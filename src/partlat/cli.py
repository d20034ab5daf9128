"""Command-line surface.

Data goes to stdout, diagnostics to stderr.  Exit status: 0 on success, 1
when `verify` finds a failing invariant, 2 on usage errors or size-cap
violations.  Output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import sys

from . import counting, errata, intmatrix, lattices, oracle, schemes, series, verify
from .partitions import label_of
from .tables import CountTable, render

# Size-cap guards for interactive use; the library itself enforces the
# oracle and lattice caps.  At the series cap the slowest kind (a capped
# product over every part 1..order, uncapped) takes about 0.2 s.
MAX_TABLE_SIZE = 200
MAX_MATRIX_SIZE = 500
MAX_SERIES_ORDER = 1500


def _matrix_table(name: str, m: intmatrix.IntMatrix, base: int = 0) -> CountTable:
    n = m.rows
    labels = tuple(range(base, base + n))
    return CountTable(name, "i", "j", labels, labels, m.entries, show_sums=False)


# Every table: its help line and how it is built from the parsed arguments.
TABLES = {
    "exact": ("partitions of m into exactly n parts (with sum column)",
              lambda a: counting.exact_table(a.max)),
    "atmost": ("partitions of m into at most n parts",
               lambda a: counting.atmost_table(a.max)),
    "odd-even-mixed": ("all-odd part counts by n, plus odd/even/mixed/p sums",
                       lambda a: counting.odd_even_mixed_table(a.max)),
    "distinct": ("distinct-part counts by n, with total and odd-even difference",
                 lambda a: counting.distinct_table(a.max)),
    "unit-diff": ("partitions of m with exactly n unit parts",
                  lambda a: counting.unit_diff_table(a.max)),
    "euler": ("partition Toeplitz matrix, entry p(i-j)",
              lambda a: _matrix_table("euler", intmatrix.partition_matrix(a.size))),
    "euler-inverse": ("its exact inverse: Euler-product coefficients e(i-j)",
                      lambda a: _matrix_table("euler-inverse", intmatrix.euler_matrix(a.size))),
    "inverse-exact": ("inverse of the exactly-n-parts table",
                      lambda a: _matrix_table("inverse-exact",
                                              intmatrix.inverse_exact_parts_matrix(a.size),
                                              base=1)),
    "inverse-unit-diff": ("inverse of the unit-diff table (= summation x euler-inverse)",
                          lambda a: _matrix_table("inverse-unit-diff",
                                                  intmatrix.inverse_unit_diff_matrix(a.size))),
    "box": ("partitions of m inside an (edge x dim) box, per edge size",
            lambda a: counting.box_table(a.edge, a.dim)),
    "scheme": ("partition scheme: largest part (rows) x part count (columns)",
               lambda a: schemes.build_scheme(a.total)),
    "neighbors": ("one-unit exchange edges between adjacent part-count columns",
                  lambda a: counting.right_hand_neighbor_table(a.max)),
    "layers": ("partitions of n per hook layer",
               lambda a: counting.layer_table(a.max)),
    "binomial": ("hook-frame partitions by largest part (binomial rows)",
                 lambda a: counting.binomial_table(a.max)),
}

TABLE_HELP = "".join(f"{name:<18} {help_line}\n" for name, (help_line, _) in TABLES.items())


def _cmd_table(args, out) -> int:
    if args.max > MAX_TABLE_SIZE or args.size > MAX_MATRIX_SIZE:
        print(f"table size exceeds the cap (max {MAX_TABLE_SIZE}, size {MAX_MATRIX_SIZE})",
              file=sys.stderr)
        return 2
    out.write(render(TABLES[args.name][1](args), args.format))
    return 0


def _cmd_count(args, out) -> int:
    record = oracle.ConstraintRecord(
        total=args.total,
        max_part=args.max_part,
        max_parts=args.max_parts,
        exact_parts=args.exact_parts,
        exact_max_part=args.exact_max_part,
        min_part=args.min_part,
        parity=args.parity,
        unit_count=args.unit_count,
        layer=args.layer,
        hook_frame=args.hook_frame,
    )
    if not args.list:
        out.write(f"{oracle.count(record)}\n")
        return 0
    pad = record.padded_length
    matches = 0
    for parts in oracle.iter_parts(record):
        out.write(label_of(parts + (0,) * (pad - len(parts))) + "\n")
        matches += 1
    out.write(f"{matches}\n")
    return 0


def _cmd_scheme(args, out) -> int:
    table = schemes.build_scheme(args.total)
    if args.inverse:
        inverse = intmatrix.invert_unitriangular(intmatrix.IntMatrix(table.cells, intmatrix.LOWER))
        table = CountTable("scheme-inverse", "m1", "n", table.rows, table.cols, inverse.entries,
                           show_sums=False)
    out.write(render(table, args.format))
    return 0


def _cmd_lattice(args, out) -> int:
    _, names = lattices.VARIANTS[args.variant]
    lat = lattices.build_lattice(args.variant, **{name: getattr(args, name) for name in names})
    if args.format == "edges":
        out.write(lat.to_edge_list())
    elif args.format == "dot":
        out.write(lat.to_dot())
    else:
        import json

        out.write(json.dumps(lat.to_json_dict(), indent=2) + "\n")
    return 0


def _parse_caps(text: str) -> list[tuple[int, int | None]]:
    caps = []
    for chunk in text.split(","):
        part, _, bound = chunk.partition(":")
        caps.append((int(part), None if bound in ("", "*") else int(bound)))
    return caps


SERIES_KINDS = {
    "euler": lambda a: series.euler_product(a.order),
    "partition": lambda a: series.partition_series(a.order),
    "distinct": lambda a: series.distinct_series(a.order),
    "distinct-signed": lambda a: series.distinct_series(a.order, signed=True),
    "capped": lambda a: series.capped_product(_parse_caps(a.caps), a.order),
}


def _cmd_series(args, out) -> int:
    if args.order > MAX_SERIES_ORDER:
        print(f"series order exceeds the cap {MAX_SERIES_ORDER}", file=sys.stderr)
        return 2
    if args.kind == "capped" and not args.caps:
        print("series --kind capped requires --caps", file=sys.stderr)
        return 2
    s = SERIES_KINDS[args.kind](args)
    out.write(" ".join(str(c) for c in s.coefficients) + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    report = verify.verify_suite(args.max)
    for r in report.results:
        if r.kind == "erratum":
            status = "erratum-confirmed" if r.ok else "ERRATUM-UNCONFIRMED"
            out.write(f"{status:18} {r.name}: {r.detail}\n")
        else:
            status = "pass" if r.ok else "FAIL"
            tail = f": first counterexample {r.detail}" if not r.ok else ""
            out.write(f"{status:18} {r.name}{tail}\n")
    invariants = [r for r in report.results if r.kind == "invariant"]
    out.write(
        f"{len([r for r in invariants if r.ok])}/{len(invariants)} invariants pass, "
        f"{len(report.unconfirmed_errata)} unconfirmed errata\n"
    )
    return 0 if report.ok else 1


def _cmd_errata(args, out) -> int:
    out.write(errata.render_json() if args.format == "json" else errata.render_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partlat",
        description="Exact partition tables, schemes, series and orbit lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="emit a counting table or matrix",
                       description=TABLE_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    t.add_argument("name", choices=TABLES)
    t.add_argument("--max", type=int, default=6, help="largest total (row index)")
    t.add_argument("--size", type=int, default=6, help="matrix dimension")
    t.add_argument("--edge", type=int, default=3, help="box tables: largest edge size")
    t.add_argument("--dim", type=int, default=3, help="box tables: number of part slots")
    t.add_argument("--total", type=int, default=7, help="scheme tables: the partitioned total")
    t.add_argument("--format", choices=("tsv", "csv", "json", "md"), default="tsv")
    t.set_defaults(fn=_cmd_table)

    c = sub.add_parser("count", help="count (or list) partitions under constraints")
    c.add_argument("--total", type=int, required=True)
    c.add_argument("--max-part", type=int)
    c.add_argument("--max-parts", type=int)
    c.add_argument("--exact-parts", type=int)
    c.add_argument("--exact-max-part", type=int)
    c.add_argument("--min-part", type=int)
    c.add_argument("--parity", choices=oracle.PARITY_CHOICES, default="none")
    c.add_argument("--unit-count", type=int)
    c.add_argument("--layer", type=int)
    c.add_argument("--hook-frame", type=int)
    c.add_argument("--list", action="store_true", help="print the partitions too")
    c.set_defaults(fn=_cmd_count)

    s = sub.add_parser("scheme", help="emit a partition scheme or its exact inverse")
    s.add_argument("--total", type=int, required=True)
    s.add_argument("--inverse", action="store_true")
    s.add_argument("--format", choices=("tsv", "csv", "json", "md"), default="tsv")
    s.set_defaults(fn=_cmd_scheme)

    g = sub.add_parser("lattice", help="emit an orbit lattice")
    g.add_argument("--variant", choices=lattices.VARIANTS, required=True)
    g.add_argument("--total", type=int, help="partition variants: the partitioned total")
    g.add_argument("--slots", type=int, help="partition variants: vector dimension (default: total)")
    g.add_argument("--bits", type=int, help="subset variants: word length")
    g.add_argument("--ones", type=int, help="subset variants: number of ones")
    g.add_argument("--dim", type=int, help="hypercube dimension")
    g.add_argument("--format", choices=("edges", "dot", "json"), default="edges")
    g.set_defaults(fn=_cmd_lattice)

    e = sub.add_parser("series", help="print generating-series coefficients")
    e.add_argument("--kind", choices=SERIES_KINDS, required=True)
    e.add_argument("--order", type=int, default=12,
                   help=f"truncation order (0..{MAX_SERIES_ORDER})")
    e.add_argument("--caps", help='capped products: "part:cap,..." with * for uncapped')
    e.set_defaults(fn=_cmd_series)

    v = sub.add_parser("verify", help="run the invariant suite and errata demonstrations")
    v.add_argument("--max", type=int, default=12, help="largest total for exhaustive checks (1..25)")
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("errata", help="print the documented misprints ledger")
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.set_defaults(fn=_cmd_errata)

    return parser


def run(argv: list[str], out=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, out if out is not None else sys.stdout)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
