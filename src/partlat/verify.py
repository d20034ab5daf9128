"""Self-verification: every structural identity the library promises, run
against the brute-force oracle, plus confirmation of the documented errata.

Each check returns None on success or a short first-counterexample string,
and its ``CHECKS`` entry declares the largest total it reads, so a
``max_total`` above that changes nothing for it.  Errata demonstrations are
reported separately: they are expected discrepancies, so an unconfirmed one
is loud but does not fail the run.
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


@dataclass(frozen=True)
class Check:
    """A named invariant.  ``fn`` returns None or a first counterexample;
    ``cap`` is the largest total it reads from ``max_total``: it runs as
    ``fn(min(max_total, cap))``, or as ``fn()`` when ``cap`` is None."""

    name: str
    fn: Callable[..., str | None]
    cap: int | None = None

    def run(self, max_total: int) -> str | None:
        return self.fn() if self.cap is None else self.fn(min(max_total, self.cap))


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
            if not q.nonzero_parts:
                continue
            f = q.to_ferrers(q.nonzero_count, q.largest)
            if q.conjugate() != f.transpose().to_partition():
                return f"partition {q.parts}"
    return None


def _frame_involutions():
    for m in range(17):
        for q in enumerate_partitions(ConstraintRecord(total=m, max_part=4, max_parts=4)):
            f = q.to_ferrers(4, 4)
            if f.transpose().transpose() != f:
                return f"transpose twice moved {q.parts}"
            if f.transverse().transverse() != f:
                return f"transverse twice moved {q.parts}"
            if q.box_complement(4, 4).box_complement(4, 4) != q:
                return f"complement twice moved {q.parts}"
    return None


def _complement_sum_law():
    for m in range(21):
        for q in enumerate_partitions(ConstraintRecord(total=m, max_part=5, max_parts=4)):
            c = q.box_complement(4, 5)
            if q.total + c.total != 20:
                return f"{q.parts} -> {c.parts}"
    return None


def _multiplicity_round_trip(top):
    for m in range(top + 1):
        for q in _all_partitions(m):
            back = from_multiplicity(q.to_multiplicity(0))
            if tuple(v for v in back if v > 0) != q.nonzero_parts:
                return f"partition {q.parts}"
    return None


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
                if len({v.counts for v in at_r}) != len(vs):
                    return f"m={m} n={n} r={r}"
                for s in range(-3, 4):
                    shifted = {(v.base, v.counts) for v in (w.shift(s) for w in at_r)}
                    direct = [v.shift(r + s - 1) for v in vs]
                    if (shifted != {(v.base, v.counts) for v in direct}
                            or any(v.weighted_sum != m + n * s for v in direct)):
                        return f"m={m} n={n} r={r} s={s}"
    return None


def _layer_consistency(top):
    for m in range(1, top + 1):
        for q in _all_partitions(m):
            if q.layer() != q.total - q.hook_frame_size() + 1:
                return f"partition {q.parts}"
    return None


# -- oracle checks -----------------------------------------------------------

def _oracle_uniqueness(top):
    for m in range(top + 1):
        qs = _all_partitions(m)
        if len({q.nonzero_parts for q in qs}) != len(qs):
            return f"duplicate at total {m}"
        by_parts = classify(ConstraintRecord(total=m), "exact_parts")
        if sum(by_parts.values()) != len(qs):
            return f"classifier total mismatch at {m}"
    return None


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
                if lhs != rhs:
                    return f"M={m} a={a} b={b}: {lhs} != {rhs}"
    return None


def _oracle_complement():
    for a in range(1, 6):
        for b in range(1, 6):
            if a * b > 20:
                continue
            for m in range(a * b + 1):
                lhs = _walked(ConstraintRecord(total=m, max_part=a, max_parts=b))
                rhs = _walked(ConstraintRecord(total=a * b - m, max_part=b, max_parts=a))
                if lhs != rhs:
                    return f"box {a}x{b} M={m}"
    return None


def _oracle_determinism(top):
    for m in (0, 3, top):
        one = [q.parts for q in _all_partitions(m)]
        two = [q.parts for q in _all_partitions(m)]
        if one != two:
            return f"total {m}"
    return None


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

    def mismatch(self, args: tuple[int, ...]) -> str | None:
        want = _walked(ConstraintRecord(parity=self.parity, **dict(zip(self.fields, args))))
        if self.value(*args) != want:
            return f"{self.name}({','.join(map(str, args))})"
        return None


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
            for args in e.args(m):
                bad = e.mismatch(args)
                if bad:
                    return bad
    return None


def _counting_oracle_random():
    rng = random.Random(RANDOM_SEED)
    for _case in range(200):
        m = rng.randint(15, 25)
        e = rng.choice(_EQUIVALENCES)
        bad = e.mismatch(rng.choice(list(e.args(m))))
        if bad:
            return bad
    return None


def _exact_frame_conjugation(top):
    for m in range(1, top + 1):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if counting.exact_frame(a, b, m) != _conjugate_count(a, b, m):
                    return f"({a},{b},{m})"
    return None


def _box_complement_law():
    for a in range(6):
        for b in range(6):
            for m in range(a * b + 1):
                if counting.p_box(a, b, m) != counting.p_box(b, a, a * b - m):
                    return f"({a},{b},{m})"
    return None


def _box_unimodality():
    for a in range(6):
        for b in range(6):
            vals = [counting.p_box(a, b, m) for m in range(a * b + 1)]
            for m in range(1, len(vals)):
                if 2 * m <= a * b and vals[m] < vals[m - 1]:
                    return f"rising side ({a},{b},{m})"
                if 2 * m > a * b and vals[m] > vals[m - 1]:
                    return f"falling side ({a},{b},{m})"
    return None


def _atmost_stabilization():
    for m, p_m in enumerate(counting._partition_numbers(20)):
        for n in range(m, m + 6):
            if counting.p_atmost(m, n) != p_m:
                return f"M={m} N={n}"
    return None


def _pentagonal_vs_rowsum():
    for m, p_m in enumerate(counting._partition_numbers(60)):
        if p_m != counting.p_row_sum(m):
            return f"M={m}"
    return None


def _parity_partition():
    numbers = counting._partition_numbers(20)
    for m in range(1, 21):
        odd, even, mixed, total = counting.odd_even_mixed(m)
        if odd + even + mixed != total or total != numbers[m]:
            return f"M={m}"
    return None


def _distinct_sign_law():
    for m in range(1, 31):
        _, diff = counting.distinct_row(m)
        if diff != -series.euler_coefficient(m):
            return f"M={m}"
    return None


def _diagonal_sums():
    for d in range(1, 15):
        if counting.diagonal_sum(d) != 2 ** (d - 1):
            return f"d={d}: {counting.diagonal_sum(d)} != {2 ** (d - 1)}"
    return None


def _binomial_rows():
    for r in range(1, 15):
        row = counting.binomial_row(r)
        if row != tuple(math.comb(r - 1, k - 1) for k in range(1, r + 1)):
            return f"r={r}"
        if sum(row) != 2 ** (r - 1):
            return f"r={r} sum"
    return None


def _neighbor_row_sums(top):
    table = counting.right_hand_neighbor_table(max(top, 2))
    for m in range(2, top + 1):
        walked = lattices.column_edge_counts(m)
        if sum(walked) != counting.neighbor_total(m):
            return f"m={m}"
        if walked + (0,) * (top - m) != table.row(m):
            return f"m={m} row"
    return None


# -- series checks -------------------------------------------------------------

def _series_invert_exactness():
    rng = random.Random(RANDOM_SEED)
    one = series.TruncatedSeries.one(32)
    for _case in range(100):
        coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(32)]
        s = series.TruncatedSeries(tuple(coeffs))
        if s * s.invert() != one:
            return f"coefficients {coeffs[:6]}..."
    return None


def _partition_series_vs_counting():
    ps = series.partition_series(60)
    for m, p_m in enumerate(counting._partition_numbers(60)):
        if ps[m] != p_m:
            return f"M={m}"
    return None


def _euler_support():
    ep = series.euler_product(100)
    pent = {}
    for k in range(1, 10):
        sign = -1 if k % 2 else 1
        pent[k * (3 * k - 1) // 2] = sign
        pent[k * (3 * k + 1) // 2] = sign
    pent[0] = 1
    for n in range(101):
        if ep[n] != pent.get(n, 0):
            return f"coefficient {n}"
    return None


def _capped_product_box():
    # Uncapped products over parts 1..a are the one-sided box counts.
    for a in range(1, 6):
        s = series.capped_product([(k, None) for k in range(1, a + 1)], 12)
        for m in range(13):
            if s[m] != counting.p_box(a, m, m):
                return f"parts<={a} M={m}"
    # Two-sided boxes, wherever a geometric factorization exists.
    realizable = 0
    for a in range(1, 6):
        for b in range(1, 6):
            caps = series.box_caps(a, b)
            if caps is None:
                continue
            realizable += 1
            s = series.capped_product(caps, a * b)
            for m in range(a * b + 1):
                if s[m] != counting.p_box(a, b, m):
                    return f"box {a}x{b} M={m}"
    if realizable < 20:  # 25 boxes minus the three without factorizations
        return f"only {realizable} factorizable boxes found"
    return None


# -- matrix checks ----------------------------------------------------------------

def _unitriangular_inverse_exact():
    sizes = list(range(1, 11)) + [20, 50]
    for n in sizes:
        for make in (intmatrix.exact_parts_matrix, intmatrix.unit_diff_matrix,
                     intmatrix.scheme_matrix, intmatrix.summation_matrix):
            a = make(n)
            prod = intmatrix.multiply(a, intmatrix.invert_unitriangular(a))
            if prod.entries != intmatrix.identity(n).entries:
                return f"{make.__name__}({n})"
    return None


def _partition_euler_identity():
    n = 50
    prod = intmatrix.multiply(intmatrix.partition_matrix(n), intmatrix.euler_matrix(n))
    if prod.entries != intmatrix.identity(n).entries:
        return "product differs from the identity"
    return None


def _toeplitz_shift():
    for make in (intmatrix.partition_matrix, intmatrix.euler_matrix):
        a = make(12)
        col0 = a.column(0)
        for j in range(1, 12):
            if a.column(j) != (0,) * j + col0[: 12 - j]:
                return f"{make.__name__} column {j}"
    return None


def _cumulative_relation():
    n = 20
    exact = intmatrix.from_cell(n, lambda i, j: counting.p_exact(i, j))
    atmost = intmatrix.from_cell(n, lambda i, j: counting.p_atmost(i, j))
    up = intmatrix.summation_matrix(n).transpose()
    if intmatrix.multiply(exact, up).entries != atmost.entries:
        return "cumulating the exact table misses the at-most table"
    back = intmatrix.multiply(atmost, intmatrix.summation_inverse(n).transpose())
    if back.entries != exact.entries:
        return "differencing the at-most table misses the exact table"
    return None


# -- scheme and lattice checks ------------------------------------------------------

def _scheme_symmetry(top):
    for m in range(1, top + 1):
        t = schemes.build_scheme(m)
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if t.cell(a, b) != _conjugate_count(a, b, m):
                    return f"scheme {m} cell ({a},{b})"
    return None


def _scheme_totals(top):
    numbers = counting._partition_numbers(top)
    for m in range(1, top + 1):
        t = schemes.build_scheme(m)
        if t.total != numbers[m]:
            return f"scheme {m} total"
        for n in range(1, m + 1):
            if sum(t.column(n)) != counting.p_exact(m, n):
                return f"scheme {m} column {n}"
        for m1 in range(1, m + 1):
            if sum(t.row(m1)) != counting.p_exact(m, m1):
                return f"scheme {m} row {m1}"
    return None


def _scheme_unitriangular():
    for m in range(1, 15):
        for i, row in enumerate(schemes.build_scheme(m).cells):
            if row[i] != 1 or any(row[i + 1:]):
                return f"scheme {m} row {i}"
    return None


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
            if sum((u - v) ** 2 for u, v in zip_longest(a, b, fillvalue=0)) != 2:
                return f"edge {x} -- {y} in lattice of {m}"
    return None


def _figure_edges():
    lat = lattices.build_unit_exchange(7, 7)
    edges = set(lat.edges)
    wanted = [
        ("6100000", "7000000"),
        ("3310000", "4300000"),
        ("2211100", "2221000"),
        ("3220000", "3310000"),
    ]
    for e in wanted:
        if e not in edges:
            return f"missing edge {e[0]} -- {e[1]}"
    if lat.node_count != 15:
        return f"node count {lat.node_count}"
    return None


def _split_merge_graded(top):
    for m in range(2, top + 1):
        for (x, y), (a, b) in _edge_parts(lattices.build_split_merge(m, m), m):
            if abs(len(a) - len(b)) != 1:
                return f"edge {x} -- {y}"
    return None


def _subset_swap_shape():
    lat = lattices.build_subset_swap(5, 3)
    if lat.node_count != 10 or lat.edge_count != 30:
        return f"{lat.node_count} nodes, {lat.edge_count} edges"
    if any(lat.degree(n) != 6 for n in lat.nodes):
        return "not 6-regular"
    return None


def _petersen_shape():
    for ones in (2, 3):
        lat = lattices.build_subset_double_swap(5, ones)
        if lat.node_count != 10 or lat.edge_count != 15:
            return f"ones={ones}: {lat.node_count}/{lat.edge_count}"
        if any(lat.degree(n) != 3 for n in lat.nodes):
            return f"ones={ones}: not 3-regular"
    return None


def _hypercube_shape():
    lat = lattices.build_hypercube(3)
    if lat.node_count != 8 or lat.edge_count != 12:
        return f"{lat.node_count}/{lat.edge_count}"
    return None


def _worked_distances():
    unit = lattices.build_unit_exchange(6, 3)
    if lattices.distance(unit, "330", "411") != 2:
        return "unit-exchange 330 -> 411"
    if lattices.distance(unit, "330", "330") != 0:
        return "self distance"
    sm = lattices.build_split_merge(6, 3)
    if lattices.distance(sm, "330", "411") != 3:
        return "split-merge 330 -> 411"
    return None


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
            ok = e.confirm()
        except Exception:
            ok = False
        results.append(CheckResult(f"erratum-{e.ident}", "erratum", ok, e.witness))
    return Report(max_total, tuple(results))
