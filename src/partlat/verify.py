"""Self-verification: every structural identity the library promises, run
against the brute-force oracle, plus confirmation of the documented errata.

Each check yields ``(counterexample, got, want)`` cases, and one rule,
:meth:`Check.run`, fails it at the first case whose sides differ, with that
case's short counterexample.  Its ``CHECKS`` entry declares the largest
total it reads, so a ``max_total`` above that changes nothing for it.
Errata demonstrations are reported separately: they are expected
discrepancies, so an unconfirmed one is loud but does not fail the run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product, zip_longest
from typing import Callable, Iterable

from . import counting, errata, intmatrix, lattices, schemes, series
from .oracle import ConstraintRecord, classify, enumerate_partitions, iter_parts
from .partitions import Partition, from_multiplicity, require_ints

RANDOM_SEED = 20240517
# Largest max_total verify_suite accepts.
MAX_TOTAL = 25
# (counterexample, got, want): one comparison a check states.
Case = tuple[str, object, object]


@dataclass(frozen=True)
class Check:
    """A named invariant.  ``fn`` yields ``(counterexample, got, want)``
    cases, and :meth:`run` returns the counterexample of the first case
    whose two sides differ, or None when every case holds; as ``fn`` is a
    generator, no case after that one is computed.  ``cap`` is the largest
    total it reads from ``max_total``: it runs as ``fn(min(max_total, cap))``,
    or as ``fn()`` when ``cap`` is None."""

    name: str
    fn: Callable[..., Iterable[Case]]
    cap: int | None = None

    def run(self, max_total: int) -> str | None:
        cases = self.fn() if self.cap is None else self.fn(min(max_total, self.cap))
        return next((label for label, got, want in cases if got != want), None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "invariant" or "erratum"
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    max_total: int
    results: tuple[CheckResult, ...]

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok and r.kind == "invariant")

    @property
    def unconfirmed_errata(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok and r.kind == "erratum")

    @property
    def ok(self) -> bool:
        return not self.failed


def _all_partitions(total: int) -> list[Partition]:
    return enumerate_partitions(ConstraintRecord(total=total))


# -- core value checks -----------------------------------------------------

def _conjugate_transpose(top):
    for m in range(top + 1):
        for q in _all_partitions(m):
            if q.nonzero_parts:
                f = q.to_ferrers(q.nonzero_count, q.largest)
                yield f"partition {q.parts}", q.conjugate(), f.transpose().to_partition()


def _frame_involutions():
    for m in range(17):
        for q in enumerate_partitions(ConstraintRecord(total=m, max_part=4, max_parts=4)):
            f = q.to_ferrers(4, 4)
            yield f"transpose twice moved {q.parts}", f.transpose().transpose(), f
            yield f"transverse twice moved {q.parts}", f.transverse().transverse(), f
            yield (f"complement twice moved {q.parts}",
                   q.box_complement(4, 4).box_complement(4, 4), q)


def _complement_sum_law():
    for m in range(21):
        for q in enumerate_partitions(ConstraintRecord(total=m, max_part=5, max_parts=4)):
            c = q.box_complement(4, 5)
            yield f"{q.parts} -> {c.parts}", q.total + c.total, 20


def _multiplicity_round_trip(top):
    for m in range(top + 1):
        for q in _all_partitions(m):
            back = from_multiplicity(q.to_multiplicity(0))
            yield f"partition {q.parts}", tuple(v for v in back if v > 0), q.nonzero_parts


def _shift_invariance(top):
    # Shifting the n parts of a partition of m - n(r-1) by r - 1 lands on
    # total m; shifting again by s must agree with one shift by r + s - 1,
    # scale base included, and move the total by n * s.  Each (base total,
    # n) is enumerated once; its unshifted vectors are kept.
    unshifted = {}
    for m in range(1, top + 1):
        for n in range(1, 5):
            for r in range(-3, 4):
                base_total = m - n * (r - 1)
                if base_total < n or base_total > 25:
                    continue
                if (base_total, n) not in unshifted:
                    unshifted[base_total, n] = [q.to_multiplicity(1) for q in enumerate_partitions(
                        ConstraintRecord(total=base_total, exact_parts=n))]
                vs = unshifted[base_total, n]
                at_r = [v.shift(r - 1) for v in vs]
                yield f"m={m} n={n} r={r}", len({v.counts for v in at_r}), len(vs)
                for s in range(-3, 4):
                    shifted = {(v.base, v.counts) for v in (w.shift(s) for w in at_r)}
                    direct = [v.shift(r + s - 1) for v in vs]
                    yield f"m={m} n={n} r={r} s={s}", shifted, {(v.base, v.counts) for v in direct}
                    yield f"m={m} n={n} r={r} s={s}", {v.weighted_sum for v in direct}, {m + n * s}


def _layer_consistency(top):
    for m in range(1, top + 1):
        for q in _all_partitions(m):
            yield f"partition {q.parts}", q.layer(), q.total - q.hook_frame_size() + 1


# -- oracle checks -----------------------------------------------------------

def _oracle_uniqueness(top):
    for m in range(top + 1):
        qs = _all_partitions(m)
        yield f"duplicate at total {m}", len({q.nonzero_parts for q in qs}), len(qs)
        by_parts = classify(ConstraintRecord(total=m), "exact_parts")
        yield f"classifier total mismatch at {m}", sum(by_parts.values()), len(qs)


def _walked(c):
    """How many partitions match ``c``, by walking them: the checks compare
    the recurrences with brute force, not with the oracle's count table."""
    return sum(1 for _ in iter_parts(c))


def _conjugate_count(a, b, m):  # largest part b and exactly a parts, by the oracle
    return _walked(ConstraintRecord(total=m, exact_max_part=b, exact_parts=a))


def _oracle_conjugation(top):
    for m in range(1, top + 1):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                lhs, rhs = _conjugate_count(b, a, m), _conjugate_count(a, b, m)
                yield f"M={m} a={a} b={b}: {lhs} != {rhs}", lhs, rhs


def _oracle_complement():
    for a in range(1, 6):
        for b in range(1, 6):
            if a * b > 20:
                continue
            for m in range(a * b + 1):
                yield (f"box {a}x{b} M={m}",
                       _walked(ConstraintRecord(total=m, max_part=a, max_parts=b)),
                       _walked(ConstraintRecord(total=a * b - m, max_part=b, max_parts=a)))


def _oracle_determinism(top):
    for m in (0, 3, top):
        one = [q.parts for q in _all_partitions(m)]
        yield f"total {m}", one, [q.parts for q in _all_partitions(m)]


# -- counting vs oracle -------------------------------------------------------

@dataclass(frozen=True)
class _Equivalence:
    """A counting function against the oracle: ``value(*a)`` is the oracle
    count with ``fields`` set to ``a`` and the ``parity`` filter, for each
    ``a`` in ``args(m)`` at total m."""

    name: str
    fields: tuple[str, ...]
    args: Callable[[int], Iterable[tuple[int, ...]]]
    value: Callable[..., int]
    parity: str = "none"

    def case(self, args: tuple[int, ...]) -> Case:
        """The counting value at ``args`` against the oracle's walk."""
        return (f"{self.name}({','.join(map(str, args))})", self.value(*args),
                _walked(ConstraintRecord(parity=self.parity, **dict(zip(self.fields, args)))))


# Both cross-checks read these argument sets: the exhaustive one all of each,
# the random one a drawn tuple.  Each value looks its counting function up at
# call time, so a patched or wrapped one is the one checked.
_EQUIVALENCES = (
    _Equivalence("p", ("total",), lambda m: [(m,)], lambda m: counting.p(m)),
    _Equivalence("p_row_sum", ("total",), lambda m: [(m,)], lambda m: counting.p_row_sum(m)),
    _Equivalence("p_exact", ("total", "exact_parts"), lambda m: product((m,), range(m + 2)),
                 lambda m, n: counting.p_exact(m, n)),
    _Equivalence("p_atmost", ("total", "max_parts"), lambda m: product((m,), range(m + 2)),
                 lambda m, n: counting.p_atmost(m, n)),
    _Equivalence("p_box", ("max_part", "max_parts", "total"),
                 lambda m: product(range(8), range(8), (m,)),
                 lambda a, b, m: counting.p_box(a, b, m)),
    _Equivalence("exact_frame", ("exact_max_part", "exact_parts", "total"),
                 lambda m: product(range(1, m + 1), range(1, m + 1), (m,)),
                 lambda a, b, m: counting.exact_frame(a, b, m)),
    _Equivalence("p_min_part", ("total", "exact_parts", "min_part"),
                 lambda m: product((m,), range(1, m + 1), (1, 2, 3)),
                 lambda m, n, r: counting.p_min_part(m, n, r)),
    # These start at total 1: the oracle's filters count the empty partition
    # as all-odd and as all-even, odd_even_mixed(0) as 'even' alone (one class
    # per partition), and the two conventions agree only from total 1 up.
    _Equivalence("odd", ("total",), lambda m: [(m,)] if m else [],
                 lambda m: counting.odd_even_mixed(m)[0], "all-odd"),
    _Equivalence("even", ("total",), lambda m: [(m,)] if m else [],
                 lambda m: counting.odd_even_mixed(m)[1], "all-even"),
    _Equivalence("mixed", ("total",), lambda m: [(m,)] if m else [],
                 lambda m: counting.odd_even_mixed(m)[2], "mixed"),
    # distinct_row(m) holds one count for each k with 1 + 2 + ... + k <= m.
    _Equivalence("distinct", ("total", "exact_parts"),
                 lambda m: product((m,), range(1, (math.isqrt(8 * m + 1) + 1) // 2)),
                 lambda m, k: counting.distinct_row(m)[0][k - 1], "distinct"),
    _Equivalence("unit_diff", ("total", "unit_count"), lambda m: product((m,), range(m + 1)),
                 lambda m, j: counting.unit_diff_cell(m, j)),
    _Equivalence("layer_count", ("total", "layer"), lambda m: product((m,), range(1, m + 1)),
                 lambda m, k: counting.layer_count(m, k)),
    # Conjugation swaps the largest part with the part count.
    _Equivalence("largest", ("exact_max_part", "total"),
                 lambda m: product(range(1, m + 1), (m,)),
                 lambda a, m: counting.p_exact(m, a)),
)


def _counting_oracle_exhaustive(top):
    for m in range(top + 1):
        for e in _EQUIVALENCES:
            yield from map(e.case, e.args(m))


def _counting_oracle_random():
    rng = random.Random(RANDOM_SEED)
    for _case in range(200):
        m = rng.randint(15, 25)
        e = rng.choice(_EQUIVALENCES)
        yield e.case(rng.choice(list(e.args(m))))


def _exact_frame_conjugation(top):
    for m in range(1, top + 1):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                yield f"({a},{b},{m})", counting.exact_frame(a, b, m), _conjugate_count(a, b, m)


def _box_complement_law():
    for a in range(6):
        for b in range(6):
            for m in range(a * b + 1):
                yield f"({a},{b},{m})", counting.p_box(a, b, m), counting.p_box(b, a, a * b - m)


def _box_unimodality():
    for a in range(6):
        for b in range(6):
            vals = [counting.p_box(a, b, m) for m in range(a * b + 1)]
            for m in range(1, len(vals)):
                if 2 * m <= a * b:
                    yield f"rising side ({a},{b},{m})", vals[m] >= vals[m - 1], True
                else:
                    yield f"falling side ({a},{b},{m})", vals[m] <= vals[m - 1], True


def _atmost_stabilization():
    for m, p_m in enumerate(counting._partition_numbers(20)):
        for n in range(m, m + 6):
            yield f"M={m} N={n}", counting.p_atmost(m, n), p_m


def _pentagonal_vs_rowsum():
    for m, p_m in enumerate(counting._partition_numbers(60)):
        yield f"M={m}", p_m, counting.p_row_sum(m)


def _parity_partition():
    # Euler: as many partitions into odd parts as into distinct parts.  The
    # distinct counts come from another sweep; odd_even_mixed derives its
    # mixed count from p(m), so its sum always matches p(m).
    for m in range(1, 21):
        yield f"M={m}", counting.odd_even_mixed(m)[0], sum(counting.distinct_row(m)[0])


def _distinct_sign_law():
    for m in range(1, 31):
        yield f"M={m}", counting.distinct_row(m)[1], -series.euler_coefficient(m)


def _diagonal_sums():
    for d in range(1, 15):
        got, want = counting.diagonal_sum(d), 2 ** (d - 1)
        yield f"d={d}: {got} != {want}", got, want


def _binomial_rows():
    # A row equal to the binomial row also sums to 2^(r-1).
    for r in range(1, 15):
        yield f"r={r}", counting.binomial_row(r), tuple(math.comb(r - 1, k) for k in range(r))


def _neighbor_row_sums(top):
    table = counting.right_hand_neighbor_table(max(top, 2))
    for m in range(2, top + 1):
        walked = lattices.column_edge_counts(m)
        yield f"m={m}", sum(walked), counting.neighbor_total(m)
        yield f"m={m} row", walked + (0,) * (top - m), table.row(m)


# -- series checks -------------------------------------------------------------

def _series_invert_exactness():
    rng = random.Random(RANDOM_SEED)
    one = series.TruncatedSeries.one(32)
    for _case in range(100):
        coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(32)]
        s = series.TruncatedSeries(tuple(coeffs))
        yield f"coefficients {coeffs[:6]}...", s * s.invert(), one


def _partition_series_vs_counting():
    ps = series.partition_series(60)
    for m, p_m in enumerate(counting._partition_numbers(60)):
        yield f"M={m}", ps[m], p_m


def _euler_support():
    ep = series.euler_product(100)
    pent = {}
    for k in range(1, 10):
        sign = -1 if k % 2 else 1
        pent[k * (3 * k - 1) // 2] = sign
        pent[k * (3 * k + 1) // 2] = sign
    pent[0] = 1
    for n in range(101):
        yield f"coefficient {n}", ep[n], pent.get(n, 0)


def _capped_product_box():
    # Uncapped products over parts 1..a are the one-sided box counts.
    for a in range(1, 6):
        s = series.capped_product([(k, None) for k in range(1, a + 1)], 12)
        for m in range(13):
            yield f"parts<={a} M={m}", s[m], counting.p_box(a, m, m)
    # Two-sided boxes, wherever a geometric factorization exists: all 25
    # but the three without one.
    factored = [(a, b, caps) for a in range(1, 6) for b in range(1, 6)
                if (caps := series.box_caps(a, b)) is not None]
    for a, b, caps in factored:
        s = series.capped_product(caps, a * b)
        for m in range(a * b + 1):
            yield f"box {a}x{b} M={m}", s[m], counting.p_box(a, b, m)
    yield f"only {len(factored)} factorizable boxes found", len(factored) >= 20, True


# -- matrix checks ----------------------------------------------------------------

def _unitriangular_inverse_exact():
    sizes = list(range(1, 11)) + [20, 50]
    for n in sizes:
        for make in (intmatrix.exact_parts_matrix, intmatrix.unit_diff_matrix,
                     intmatrix.scheme_matrix, intmatrix.summation_matrix):
            a = make(n)
            prod = intmatrix.multiply(a, intmatrix.invert_unitriangular(a))
            yield f"{make.__name__}({n})", prod.entries, intmatrix.identity(n).entries


def _partition_euler_identity():
    n = 50
    prod = intmatrix.multiply(intmatrix.partition_matrix(n), intmatrix.euler_matrix(n))
    yield "product differs from the identity", prod.entries, intmatrix.identity(n).entries


def _toeplitz_shift():
    for make in (intmatrix.partition_matrix, intmatrix.euler_matrix):
        a = make(12)
        col0 = a.column(0)
        for j in range(1, 12):
            yield f"{make.__name__} column {j}", a.column(j), (0,) * j + col0[: 12 - j]


def _cumulative_relation():
    n = 20
    exact = intmatrix.from_cell(n, lambda i, j: counting.p_exact(i, j))
    atmost = intmatrix.from_cell(n, lambda i, j: counting.p_atmost(i, j))
    up = intmatrix.summation_matrix(n).transpose()
    yield ("cumulating the exact table misses the at-most table",
           intmatrix.multiply(exact, up).entries, atmost.entries)
    back = intmatrix.multiply(atmost, intmatrix.summation_inverse(n).transpose())
    yield "differencing the at-most table misses the exact table", back.entries, exact.entries


# -- scheme and lattice checks ------------------------------------------------------

def _scheme_symmetry(top):
    for m in range(1, top + 1):
        t = schemes.build_scheme(m)
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                yield f"scheme {m} cell ({a},{b})", t.cell(a, b), _conjugate_count(a, b, m)


def _scheme_totals(top):
    numbers = counting._partition_numbers(top)
    for m in range(1, top + 1):
        t = schemes.build_scheme(m)
        yield f"scheme {m} total", t.total, numbers[m]
        for n in range(1, m + 1):
            yield f"scheme {m} column {n}", sum(t.column(n)), counting.p_exact(m, n)
        for m1 in range(1, m + 1):
            yield f"scheme {m} row {m1}", sum(t.row(m1)), counting.p_exact(m, m1)


def _scheme_unitriangular():
    for m in range(1, 15):
        for i, row in enumerate(schemes.build_scheme(m).cells):
            yield f"scheme {m} row {i}", row[i:], (1,) + (0,) * (m - 1 - i)


def _edge_parts(lat, total: int):
    """(label pair, nonzero-part pair) for each edge of a partition lattice
    of ``total`` in ``total`` slots, read from the builder's node keys."""
    parts = {label: node for node, label in lattices._partition_nodes(total, total).items()}
    return (((x, y), (parts[x], parts[y])) for x, y in lat.edges)


def _unit_exchange_edges(top):
    for m in range(2, top + 1):
        for (x, y), (a, b) in _edge_parts(lattices.build_unit_exchange(m, m), m):
            # Both padded vectors sum to m, so squared distance 2 is
            # exactly one unit moved from one slot to another.
            yield (f"edge {x} -- {y} in lattice of {m}",
                   sum((u - v) ** 2 for u, v in zip_longest(a, b, fillvalue=0)), 2)


def _figure_edges():
    lat = lattices.build_unit_exchange(7, 7)
    edges = set(lat.edges)
    for x, y in (("6100000", "7000000"), ("3310000", "4300000"),
                 ("2211100", "2221000"), ("3220000", "3310000")):
        yield f"missing edge {x} -- {y}", (x, y) in edges, True
    yield f"node count {lat.node_count}", lat.node_count, 15


def _split_merge_graded(top):
    for m in range(2, top + 1):
        for (x, y), (a, b) in _edge_parts(lattices.build_split_merge(m, m), m):
            yield f"edge {x} -- {y}", abs(len(a) - len(b)), 1


def _subset_swap_shape():
    lat = lattices.build_subset_swap(5, 3)
    nodes, edges = lat.node_count, lat.edge_count
    yield f"{nodes} nodes, {edges} edges", (nodes, edges), (10, 30)
    yield "not 6-regular", set(map(lat.degree, lat.nodes)), {6}


def _petersen_shape():
    for ones in (2, 3):
        lat = lattices.build_subset_double_swap(5, ones)
        nodes, edges = lat.node_count, lat.edge_count
        yield f"ones={ones}: {nodes}/{edges}", (nodes, edges), (10, 15)
        yield f"ones={ones}: not 3-regular", set(map(lat.degree, lat.nodes)), {3}


def _hypercube_shape():
    lat = lattices.build_hypercube(3)
    nodes, edges = lat.node_count, lat.edge_count
    yield f"{nodes}/{edges}", (nodes, edges), (8, 12)


def _worked_distances():
    unit = lattices.build_unit_exchange(6, 3)
    yield "unit-exchange 330 -> 411", lattices.distance(unit, "330", "411"), 2
    yield "self distance", lattices.distance(unit, "330", "330"), 0
    merge = lattices.build_split_merge(6, 3)
    yield "split-merge 330 -> 411", lattices.distance(merge, "330", "411"), 3


CHECKS = (
    Check("conjugate-matches-transpose", _conjugate_transpose, MAX_TOTAL),
    Check("frame-involutions", _frame_involutions),
    Check("complement-sum-law", _complement_sum_law),
    Check("multiplicity-round-trip", _multiplicity_round_trip, 12),
    Check("shift-invariance", _shift_invariance, 12),
    Check("layer-consistency", _layer_consistency, 14),
    Check("oracle-uniqueness", _oracle_uniqueness, 14),
    Check("oracle-conjugation-symmetry", _oracle_conjugation, 12),
    Check("oracle-complement-symmetry", _oracle_complement),
    Check("oracle-determinism", _oracle_determinism, 9),
    Check("counting-oracle-exhaustive", _counting_oracle_exhaustive, MAX_TOTAL),
    Check("counting-oracle-random", _counting_oracle_random),
    Check("exact-frame-conjugation", _exact_frame_conjugation, 12),
    Check("box-complement-law", _box_complement_law),
    Check("box-unimodality", _box_unimodality),
    Check("atmost-stabilization", _atmost_stabilization),
    Check("pentagonal-vs-rowsum", _pentagonal_vs_rowsum),
    Check("parity-partition", _parity_partition),
    Check("distinct-sign-law", _distinct_sign_law),
    Check("diagonal-power-law", _diagonal_sums),
    Check("binomial-rows", _binomial_rows),
    Check("neighbor-row-sums", _neighbor_row_sums, 12),
    Check("series-invert-exactness", _series_invert_exactness),
    Check("partition-series-vs-counting", _partition_series_vs_counting),
    Check("euler-support-pentagonal", _euler_support),
    Check("capped-product-box", _capped_product_box),
    Check("unitriangular-inverse-exact", _unitriangular_inverse_exact),
    Check("partition-euler-identity", _partition_euler_identity),
    Check("toeplitz-shift", _toeplitz_shift),
    Check("cumulative-table-relation", _cumulative_relation),
    Check("scheme-symmetry", _scheme_symmetry, 14),
    Check("scheme-totals", _scheme_totals, 14),
    Check("scheme-unitriangular", _scheme_unitriangular),
    Check("unit-exchange-edge-shape", _unit_exchange_edges, 8),
    Check("figure-edges-present", _figure_edges),
    Check("split-merge-graded", _split_merge_graded, 7),
    Check("subset-swap-shape", _subset_swap_shape),
    Check("petersen-shape", _petersen_shape),
    Check("hypercube-shape", _hypercube_shape),
    Check("worked-distances", _worked_distances),
)


def verify_suite(max_total: int = 12) -> Report:
    """Run every named invariant and erratum demonstration."""
    require_ints("max_total", max_total, low=1, high=MAX_TOTAL)
    results = []
    for check in CHECKS:
        try:
            detail = check.run(max_total)
        except Exception as exc:  # a crash is a failure with the exception as witness
            detail = f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(check.name, "invariant", detail is None, detail or ""))
    for e in errata.ERRATA:
        try:
            ok, detail = e.confirm(), e.witness
        except Exception as exc:  # a crash must not read as the printed witness
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(f"erratum-{e.ident}", "erratum", ok, detail))
    return Report(max_total, tuple(results))
