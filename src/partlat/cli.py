"""Command-line surface.

Data goes to stdout, diagnostics to stderr.  Exit status: 0 on success, 1
when `verify` finds a failing invariant, 2 on usage errors, size-cap
violations and runs out of memory or recursion depth.  Output is
deterministic for fixed arguments.

The cost registry below is the single place the CLI defines its caps: each
table and series kind (`TABLES`, `SERIES_KINDS`) and the `scheme` and
`count` commands (`COMMAND_RANGES`) name the cost parameters they read,
each with its range.  `_check_ranges` refuses a value outside its range
before any work, and the help text is rendered from the same ranges.  The
library's own caps (`oracle.TOTAL_CAP`, the lattice caps,
`verify.MAX_TOTAL`) are enforced where they are; the help reads them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

from . import counting, errata, intmatrix, lattices, oracle, schemes, series, verify
from .partitions import label_of
from .tables import FORMATS, CountTable


class Range(NamedTuple):
    """Cost parameter ``flag`` must lie in low..cap; ``value`` works it out
    from the parsed arguments when it is not the flag's own value."""

    flag: str
    low: int
    cap: int
    value: Callable[[argparse.Namespace], int] | None = None

    def __str__(self) -> str:
        return f"{self.flag} {self.low}..{self.cap}"


class Entry(NamedTuple):
    """A table or series kind: its help line, how it is built from the
    parsed arguments and the ranges of the cost parameters it reads."""

    help: str
    build: Callable[[argparse.Namespace], object]
    ranges: tuple[Range, ...]


def _check_ranges(args: argparse.Namespace, ranges: tuple[Range, ...]) -> None:
    """Refuse the first cost parameter outside its range."""
    for r in ranges:
        value = r.value(args) if r.value else getattr(args, r.flag[2:])
        if not r.low <= value <= r.cap:
            raise ValueError(f"{r.flag} must be in {r.low}..{r.cap}")


def _record(args: argparse.Namespace) -> oracle.ConstraintRecord:
    """The record `count` reads: one flag per field."""
    return oracle.ConstraintRecord(**{f.name: getattr(args, f.name)
                                      for f in fields(oracle.ConstraintRecord)})


def _list_bound(args: argparse.Namespace) -> int:
    """An upper bound on the partitions `count --list` prints: the box count
    p_box over the record's part-size and part-count bounds.  Zero without
    --list, and past the oracle's cap, which refuses that total itself."""
    if not args.list or args.total > oracle.TOTAL_CAP:
        return 0
    c = _record(args)
    return counting.p_box(c.largest_bound, c.slot_bound, c.total)


def _list_width(args: argparse.Namespace) -> int:
    """The width `count --list` pads each line to: the record's part-count
    bound.  Zero without --list or a bound."""
    return _record(args).padded_length if args.list else 0


# At each cap the slowest table, series kind or command that reads it takes
# about 2 s or less in a whole CLI child (BENCH_8.json).
MAX_SERIES_ORDER = 1500
TOTALS = Range("--max", 0, 200)
SIZE = Range("--size", 1, 500)
EDGE = Range("--edge", 0, 100)
DIM = Range("--dim", 0, 100)
SCHEME_TOTAL = Range("--total", 1, 400)
ORDER = Range("--order", 0, MAX_SERIES_ORDER)
LIST_MATCHES = Range("--list matches", 0, 100_000, _list_bound)
LIST_WIDTH = Range("--list width", 0, lattices.WIDTH_CAP, _list_width)

COMMAND_RANGES = {"scheme": (SCHEME_TOTAL,), "count": (LIST_MATCHES, LIST_WIDTH)}


def _matrix_table(name: str, m: intmatrix.IntMatrix, base: int = 0) -> CountTable:
    n = m.rows
    labels = tuple(range(base, base + n))
    return CountTable(name, "i", "j", labels, labels, m.entries, show_sums=False)


TABLES = {
    "exact": Entry("partitions of m into exactly n parts (with sum column)",
                   lambda a: counting.exact_table(a.max), (TOTALS,)),
    "atmost": Entry("partitions of m into at most n parts",
                    lambda a: counting.atmost_table(a.max), (TOTALS,)),
    "odd-even-mixed": Entry("all-odd part counts by n, plus odd/even/mixed/p sums",
                            lambda a: counting.odd_even_mixed_table(a.max),
                            (TOTALS._replace(low=1),)),
    "distinct": Entry("distinct-part counts by n, with total and odd-even difference",
                      lambda a: counting.distinct_table(a.max), (TOTALS._replace(low=1),)),
    "unit-diff": Entry("partitions of m with exactly n unit parts",
                       lambda a: counting.unit_diff_table(a.max), (TOTALS,)),
    "euler": Entry("partition Toeplitz matrix, entry p(i-j)",
                   lambda a: _matrix_table("euler", intmatrix.partition_matrix(a.size)), (SIZE,)),
    "euler-inverse": Entry("its exact inverse: Euler-product coefficients e(i-j)",
                           lambda a: _matrix_table("euler-inverse",
                                                   intmatrix.euler_matrix(a.size)), (SIZE,)),
    "inverse-exact": Entry("inverse of the exactly-n-parts table",
                           lambda a: _matrix_table("inverse-exact",
                                                   intmatrix.inverse_exact_parts_matrix(a.size),
                                                   base=1), (SIZE,)),
    "inverse-unit-diff": Entry("inverse of the unit-diff table (= summation x euler-inverse)",
                               lambda a: _matrix_table("inverse-unit-diff",
                                                       intmatrix.inverse_unit_diff_matrix(a.size)),
                               (SIZE,)),
    "box": Entry("partitions of m inside an (edge x dim) box, per edge size",
                 lambda a: counting.box_table(a.edge, a.dim), (EDGE, DIM)),
    "scheme": Entry("partition scheme: largest part (rows) x part count (columns)",
                    lambda a: schemes.build_scheme(a.total), (SCHEME_TOTAL,)),
    "neighbors": Entry("one-unit exchange edges between adjacent part-count columns",
                       lambda a: counting.right_hand_neighbor_table(a.max),
                       (TOTALS._replace(low=2),)),
    "layers": Entry("partitions of n per hook layer",
                    lambda a: counting.layer_table(a.max), (TOTALS._replace(low=1),)),
    "binomial": Entry("hook-frame partitions by largest part (binomial rows)",
                      lambda a: counting.binomial_table(a.max), (TOTALS._replace(low=1),)),
}


def _registry_help(entries: dict[str, Entry]) -> str:
    return "".join(f"{name:<18} {e.help} [{', '.join(map(str, e.ranges))}]\n"
                   for name, e in entries.items())


def _table(args) -> CountTable:
    entry = TABLES[args.name]
    _check_ranges(args, entry.ranges)
    return entry.build(args)


def _cmd_count(args, out) -> int:
    record = _record(args)
    _check_ranges(args, COMMAND_RANGES["count"])
    if not args.list:
        out.write(f"{oracle.count(record)}\n")
        return 0
    pad = record.padded_length
    matches = 0
    for parts in oracle.iter_parts(record):
        out.write(label_of(parts, pad) + "\n")
        matches += 1
    out.write(f"{matches}\n")
    return 0


def _scheme(args) -> CountTable:
    _check_ranges(args, COMMAND_RANGES["scheme"])
    if not args.inverse:
        return schemes.build_scheme(args.total)
    labels = tuple(range(1, args.total + 1))
    return CountTable("scheme-inverse", "m1", "n", labels[::-1], labels,
                      intmatrix.scheme_inverse(args.total).entries, show_sums=False)


def _lattice(args) -> lattices.OrbitLattice:
    _, names = lattices.VARIANTS[args.variant]
    return lattices.build_lattice(args.variant, **{name: getattr(args, name) for name in names})


def _cmd_export(args, out) -> int:
    """Stream the table, scheme or lattice ``args.build`` makes in ``args.format``."""
    out.writelines(args.build(args).export(args.format))
    return 0


def _parse_caps(text: str | None) -> list[tuple[int, int | None]]:
    if not text:
        raise ValueError("series --kind capped requires --caps")
    caps = []
    for chunk in text.split(","):
        part, _, bound = chunk.partition(":")
        try:
            caps.append((int(part), None if bound in ("", "*") else int(bound)))
        except ValueError:
            raise ValueError(f"--caps entry {chunk!r} is not part:cap, part:* or part") from None
    return caps


SERIES_KINDS = {
    "euler": Entry("Euler product (1 - t)(1 - t^2)...",
                   lambda a: series.euler_product(a.order), (ORDER,)),
    "partition": Entry("partition numbers p(n)",
                       lambda a: series.partition_series(a.order), (ORDER,)),
    "distinct": Entry("partitions into distinct parts",
                      lambda a: series.distinct_series(a.order), (ORDER,)),
    "distinct-signed": Entry("distinct parts, even minus odd part counts",
                             lambda a: series.euler_product(a.order), (ORDER,)),
    "capped": Entry("product over --caps of 1 + t^k + ... + t^(cap k)",
                    lambda a: series.capped_product(_parse_caps(a.caps), a.order), (ORDER,)),
}


def _cmd_series(args, out) -> int:
    entry = SERIES_KINDS[args.kind]
    _check_ranges(args, entry.ranges)
    s = entry.build(args)
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
                       description=_registry_help(TABLES),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    t.add_argument("name", choices=TABLES)
    t.add_argument("--max", type=int, default=6, help="largest total (row index)")
    t.add_argument("--size", type=int, default=6, help="matrix dimension")
    t.add_argument("--edge", type=int, default=3, help="box tables: largest edge size")
    t.add_argument("--dim", type=int, default=3, help="box tables: number of part slots")
    t.add_argument("--total", type=int, default=7, help="scheme tables: the partitioned total")
    t.add_argument("--format", choices=FORMATS, default="tsv")
    t.set_defaults(fn=_cmd_export, build=_table)

    c = sub.add_parser("count", help="count (or list) partitions under constraints")
    # One flag per record field, in field order; the rest are optional ints.
    flag_options = {
        "total": {"type": int, "required": True,
                  "help": f"the partitioned total (0..{oracle.TOTAL_CAP})"},
        "parity": {"choices": oracle.PARITY_CHOICES, "default": "none"},
    }
    for f in fields(oracle.ConstraintRecord):
        c.add_argument("--" + f.name.replace("_", "-"), **flag_options.get(f.name, {"type": int}))
    c.add_argument("--list", action="store_true",
                   help="print the partitions too, zero-padded to the part-count bound "
                   f"(refused when a box bound on the matches passes {LIST_MATCHES.cap}, "
                   f"or that bound passes {LIST_WIDTH.cap})")
    c.set_defaults(fn=_cmd_count)

    s = sub.add_parser("scheme", help="emit a partition scheme or its exact inverse")
    s.add_argument("--total", type=int, required=True,
                   help=f"the partitioned total ({SCHEME_TOTAL.low}..{SCHEME_TOTAL.cap})")
    s.add_argument("--inverse", action="store_true")
    s.add_argument("--format", choices=FORMATS, default="tsv")
    s.set_defaults(fn=_cmd_export, build=_scheme)

    g = sub.add_parser("lattice", help="emit an orbit lattice")
    g.add_argument("--variant", choices=lattices.VARIANTS, required=True)
    g.add_argument("--total", type=int,
                   help=f"partition variants: the partitioned total (0..{oracle.TOTAL_CAP})")
    g.add_argument("--slots", type=int, help="partition variants: vector dimension "
                   f"(default: total, or 1 for total 0; at most {lattices.WIDTH_CAP})")
    g.add_argument("--bits", type=int,
                   help=f"subset variants: word length (at most {lattices.WIDTH_CAP})")
    g.add_argument("--ones", type=int, help="subset variants: number of ones")
    g.add_argument("--dim", type=int, help="hypercube dimension")
    g.add_argument("--format", choices=("edges", "dot", "json"), default="edges")
    g.set_defaults(fn=_cmd_export, build=_lattice)

    e = sub.add_parser("series", help="print generating-series coefficients",
                       description=_registry_help(SERIES_KINDS),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    e.add_argument("--kind", choices=SERIES_KINDS, required=True)
    e.add_argument("--order", type=int, default=12,
                   help=f"truncation order ({ORDER.low}..{ORDER.cap})")
    e.add_argument("--caps", help='capped products: "part:cap,..." with * for uncapped')
    e.set_defaults(fn=_cmd_series)

    v = sub.add_parser("verify", help="run the invariant suite and errata demonstrations")
    v.add_argument("--max", type=int, default=12,
                   help=f"largest total for exhaustive checks (1..{verify.MAX_TOTAL})")
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
    except (MemoryError, RecursionError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``partlat ... | head``).  Point stdout at
        # devnull, so that the flush at exit cannot fail again, and exit 1
        # with nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
