import math
import sys
from functools import cache
from operator import add

import pytest

from partlat import counting, lattices, schemes
from partlat.oracle import ConstraintRecord, classify, count

# Row m=6 of the two classic tables, frozen from the printed versions.
EXACT_ROW_6 = (0, 1, 3, 3, 2, 1, 1)
ATMOST_ROW_6 = (0, 1, 4, 7, 9, 10, 11)
P_FIRST = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176)


class TestP:
    def test_first_values(self):
        assert tuple(counting.p(m) for m in range(16)) == P_FIRST

    def test_zero_and_negative(self):
        assert counting.p(0) == 1
        assert counting.p(-3) == 0

    @pytest.mark.parametrize("m", range(61))
    def test_pentagonal_agrees_with_row_sums(self, m):
        assert counting.p(m) == counting.p_row_sum(m)

    @pytest.mark.parametrize("m", range(15))
    def test_agrees_with_oracle(self, m):
        assert counting.p(m) == count(ConstraintRecord(total=m))


class TestPExact:
    def test_row_six(self):
        assert tuple(counting.p_exact(6, n) for n in range(7)) == EXACT_ROW_6

    def test_single_part(self):
        for m in range(1, 20):
            assert counting.p_exact(m, 1) == 1

    def test_base_case(self):
        assert counting.p_exact(0, 0) == 1
        assert counting.p_exact(3, 0) == 0
        assert counting.p_exact(-1, 2) == 0

    def test_thirteen_into_five(self):
        # Derived by brute force; also the printed column sum of the
        # size-13 scheme at n=5.
        assert counting.p_exact(13, 5) == 18
        assert counting.p_exact(13, 5) == count(ConstraintRecord(total=13, exact_parts=5))


class TestPAtmost:
    def test_row_six(self):
        assert tuple(counting.p_atmost(6, n) for n in range(7)) == ATMOST_ROW_6

    def test_worked_cells(self):
        assert counting.p_atmost(6, 4) == 9
        assert counting.p_atmost(5, 5) == 7

    def test_zero_parts(self):
        assert counting.p_atmost(0, 0) == 1
        assert counting.p_atmost(4, 0) == 0

    @pytest.mark.parametrize("m", range(21))
    def test_stabilizes_at_p(self, m):
        for n in range(m, m + 6):
            assert counting.p_atmost(m, n) == counting.p(m)


class TestPBox:
    def test_cube_column(self):
        assert [counting.p_box(3, 3, m) for m in range(10)] == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]

    def test_empty_total(self):
        assert counting.p_box(4, 2, 0) == 1
        assert counting.p_box(0, 0, 0) == 1

    def test_printed_recurrence_counterexample(self):
        # The naive two-term sum double counts at (3,3,4).
        assert counting.p_box(3, 3, 4) == 3
        assert counting.p_box(2, 3, 4) + counting.p_box(3, 2, 4) == 4

    def test_symmetry_and_complement(self):
        for a in range(6):
            for b in range(6):
                for m in range(a * b + 1):
                    assert counting.p_box(a, b, m) == counting.p_box(b, a, m)
                    assert counting.p_box(a, b, m) == counting.p_box(b, a, a * b - m)

    def test_unimodality(self):
        for a in range(6):
            for b in range(6):
                vals = [counting.p_box(a, b, m) for m in range(a * b + 1)]
                mid = a * b / 2
                for m in range(1, len(vals)):
                    if m <= mid:
                        assert vals[m] >= vals[m - 1]
                    else:
                        assert vals[m] <= vals[m - 1]

    @pytest.mark.parametrize("m", range(15))
    def test_agrees_with_oracle(self, m):
        for a in range(6):
            for b in range(6):
                assert counting.p_box(a, b, m) == count(
                    ConstraintRecord(total=m, max_part=a, max_parts=b))


class TestExactFrame:
    def test_worked_example(self):
        assert counting.exact_frame(4, 3, 8) == 2
        assert counting.p_box(3, 2, 2) == 2

    def test_hook_only(self):
        for m in range(1, 10):
            assert counting.exact_frame(m, 1, m) == 1

    def test_scheme_cell(self):
        assert counting.exact_frame(3, 3, 7) == 2

    @pytest.mark.parametrize("m", range(1, 13))
    def test_conjugation_symmetry(self, m):
        # p_box sorts its bounds, so exact_frame(b, a, m) would run the very
        # sweep under test; the recursive reference reads the conjugate.
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                assert counting.exact_frame(a, b, m) == ref_frame(b, a, m)


class TestPartiallyRestrictedSums:
    def test_scheme_row_and_column_sums_for_seven(self):
        assert counting.p_exact(7, 2) == 3
        assert counting.p_exact(7, 7) == 1

    def test_scheme_thirteen_column(self):
        assert counting.p_exact(13, 3) == 14

    def test_column_sums_match_exact_counts(self):
        for m in range(1, 13):
            t = schemes.build_scheme(m)
            for n in range(1, m + 1):
                assert sum(t.column(n)) == counting.p_exact(m, n)
                assert sum(t.row(n)) == counting.p_exact(m, n)


class TestPMinPart:
    def test_minimum_two(self):
        assert counting.p_min_part(6, 3, 2) == 1
        assert counting.p_min_part(6, 3, 2) == count(
            ConstraintRecord(total=6, exact_parts=3, min_part=2))

    def test_minimum_one_is_plain_exact(self):
        for m in range(13):
            for n in range(m + 1):
                assert counting.p_min_part(m, n, 1) == counting.p_exact(m, n)

    def test_negative_base(self):
        # Shift base -2 -> 1 adds 3 units to each of 5 parts.
        assert counting.p_min_part(-5, 5, -2) == counting.p_exact(10, 5) == 7


class TestOddEvenMixed:
    @pytest.mark.parametrize(
        "m,expected",
        [(9, (8, 0, 22, 30)), (1, (1, 0, 0, 1)), (6, (4, 3, 4, 11))],
    )
    def test_printed_rows(self, m, expected):
        assert counting.odd_even_mixed(m) == expected

    @pytest.mark.parametrize("m", range(1, 21))
    def test_partition_of_p(self, m):
        odd, even, mixed, total = counting.odd_even_mixed(m)
        assert odd + even + mixed == total == counting.p(m)

    @pytest.mark.parametrize("m", range(1, 15))
    def test_against_oracle(self, m):
        odd, even, mixed, _ = counting.odd_even_mixed(m)
        assert odd == count(ConstraintRecord(total=m, parity="all-odd"))
        assert even == count(ConstraintRecord(total=m, parity="all-even"))
        assert mixed == count(ConstraintRecord(total=m, parity="mixed"))

    def test_table_row_nine(self):
        t = counting.odd_even_mixed_table(9)
        assert t.row(9) == (1, 0, 3, 0, 2, 0, 1, 0, 1, 8, 0, 22, 30)


class TestDistinct:
    @pytest.mark.parametrize(
        "m,counts,diff",
        [(10, (1, 4, 4, 1), 0), (12, (1, 5, 7, 2), 1), (5, (1, 2), -1)],
    )
    def test_printed_rows(self, m, counts, diff):
        got_counts, got_diff = counting.distinct_row(m)
        assert got_counts == counts and got_diff == diff
        assert sum(got_counts) == {10: 10, 12: 15, 5: 3}[m]

    @pytest.mark.parametrize("m", range(1, 15))
    def test_against_oracle(self, m):
        counts, _ = counting.distinct_row(m)
        buckets = classify(ConstraintRecord(total=m, parity="distinct"), "exact_parts")
        for k, c in enumerate(counts, start=1):
            assert buckets.get(k, 0) == c

    def test_table_shape(self):
        t = counting.distinct_table(12)
        assert t.cols[-2:] == ("total", "difference")
        assert t.cell(12, "difference") == 1


class TestUnitDiff:
    def test_row_six(self):
        assert tuple(counting.unit_diff_cell(6, j) for j in range(7)) == (4, 2, 2, 1, 1, 0, 1)

    def test_diagonal_is_one(self):
        for i in range(12):
            assert counting.unit_diff_cell(i, i) == 1

    def test_no_units_column(self):
        assert counting.unit_diff_cell(4, 0) == 2

    @pytest.mark.parametrize("m", range(15))
    def test_against_oracle(self, m):
        for j in range(m + 1):
            assert counting.unit_diff_cell(m, j) == count(
                ConstraintRecord(total=m, unit_count=j))

    def test_reads_one_pentagonal_list(self, monkeypatch):
        calls = []
        numbers = counting._partition_numbers
        monkeypatch.setattr(counting, "_partition_numbers",
                            lambda order: calls.append(order) or numbers(order))
        monkeypatch.setattr(counting, "p", None)
        assert [counting.unit_diff_cell(9, j) for j in range(10)] == [
            counting.unit_diff_table(9).cell(9, j) for j in range(10)]
        assert calls[:10] == list(range(9, -1, -1))


class TestFranklin:
    @pytest.mark.parametrize("k,sums", [(1, (1, 2)), (2, (5, 7)), (3, (12, 15))])
    def test_pentagonal_sums(self, k, sums):
        a, b = counting.franklin_trapezoids(k)
        assert (a.total, b.total) == sums

    def test_shape_is_trapezoid(self):
        a, b = counting.franklin_trapezoids(4)
        for q in (a, b):
            assert q.nonzero_count == 4
            steps = {x - y for x, y in zip(q.nonzero_parts, q.nonzero_parts[1:])}
            assert steps == {1}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            counting.franklin_trapezoids(0)


class TestNeighborTable:
    def test_printed_rows(self):
        t = counting.right_hand_neighbor_table(7)
        assert t.row(7) == (1, 5, 6, 4, 2, 1)
        assert t.row(2) == (1, 0, 0, 0, 0, 0)
        assert t.row(5) == (1, 3, 2, 1, 0, 0)

    def test_row_sums_are_partition_prefix_sums(self):
        t = counting.right_hand_neighbor_table(12)
        for m, s in zip(t.rows, t.row_sums):
            assert s == counting.neighbor_total(m)
            assert s == sum(counting.p(k) for k in range(m - 1))

    def test_difference_row(self):
        t = counting.right_hand_neighbor_table(7)
        assert tuple(a - b for a, b in zip(t.row(7), t.row(6))) == (0, 1, 2, 2, 1, 1)

    def test_rows_match_the_lattice_walk(self):
        t = counting.right_hand_neighbor_table(18)
        for m in range(2, 19):
            assert t.row(m) == lattices.column_edge_counts(m) + (0,) * (18 - m)
        for m in range(3, 19):
            step = tuple(a - b for a, b in zip(t.row(m), t.row(m - 1)))
            assert tuple(counting.p_exact(m - 2, n - 1) for n in range(1, m)) == step[:m - 1]


class TestLayers:
    def test_printed_row_fifteen(self):
        t = counting.layer_table(15)
        assert t.row(15) == (15, 12, 20, 24, 31, 30, 29, 12, 3)
        assert t.row_sums[-1] == 176

    def test_row_sums_are_p(self):
        t = counting.layer_table(15)
        for n, s in zip(t.rows, t.row_sums):
            assert s == counting.p(n)

    @pytest.mark.parametrize("m", range(1, 15))
    def test_against_oracle(self, m):
        buckets = classify(ConstraintRecord(total=m), "layer")
        for k in range(1, m + 1):
            assert counting.layer_count(m, k) == buckets.get(k, 0)

    def test_diagonal_sums(self):
        assert counting.diagonal_sum(5) == 16
        assert [counting.diagonal_sum(d) for d in range(1, 15)] == [2 ** (d - 1) for d in range(1, 15)]

    def test_seventh_diagonal_completion(self):
        # The table ends at total 15; the in-table antidiagonal misses the
        # partition (4,4,4,4) of 16, which has hook frame 7.
        t = counting.layer_table(15)
        in_table = sum(t.cell(7 + k - 1, k) for k in range(1, 10))
        assert in_table == 63
        assert counting.diagonal_sum(7) == 64
        assert counting.layer_count(16, 10) == 1  # that last partition: frame 7, interior 9

    def test_power_law_checker(self):
        assert all(counting.diagonal_sum(d) == 2 ** (d - 1) for d in range(1, 31))


# Every value of each pruned field at the oracle's cap, which the oracle counts
# in milliseconds, each with the counting function it must agree with.
AT_THE_CAP = (
    [("layer", k, lambda k: counting.layer_count(80, k)) for k in range(82)]
    + [("exact_max_part", a, lambda a: counting.p_exact(80, a)) for a in range(82)]
    + [("hook_frame", h, lambda h: counting.layer_count(80, 81 - h)) for h in range(82)]
    + [("unit_count", j, lambda j: counting.unit_diff_cell(80, j)) for j in range(82)]
)


@pytest.mark.parametrize("name,value,want", AT_THE_CAP,
                         ids=[f"{name}={value}" for name, value, _ in AT_THE_CAP])
def test_oracle_at_the_cap_agrees_with_counting(name, value, want):
    assert count(ConstraintRecord(total=80, **{name: value})) == want(value)


def test_table_widths_match_the_scans():
    """The layer and distinct tables' last columns, now closed forms, equal
    the scan for the last nonzero layer cell and the staircase loop."""
    top = 200
    # Every layer cell up to top, with each interior a x b box swept on its
    # own (no conjugate mirror): cell (n, k) is hooks[n - k + 1][k - 1].
    hooks = [[0] * top for _ in range(top + 1)]
    for a in range(top):
        for b, column in enumerate(counting._box_columns(a, top - 1 - a, top - 1 - a)):
            hooks[a + b + 1] = list(map(add, hooks[a + b + 1], column[:top - a - b]))
    last = 0
    for n in range(1, top + 1):
        last = max([last] + [k for k in range(1, n + 1) if hooks[n - k + 1][k - 1]])
        assert counting._layer_width(n) == last, n
        kmax = 0
        while (kmax + 1) * (kmax + 2) // 2 <= n:
            kmax += 1
        assert counting.distinct_table(n).cols[:-2] == tuple(range(1, kmax + 1)), n
    for n in (1, 2, 3, 15, 70, top):
        assert counting.layer_table(n).cols == tuple(range(1, counting._layer_width(n) + 1))


class TestBinomialRows:
    def test_row_five(self):
        assert counting.binomial_row(5) == (1, 4, 6, 4, 1)

    @pytest.mark.parametrize("r", range(1, 15))
    def test_matches_binomials(self, r):
        row = counting.binomial_row(r)
        assert row == tuple(math.comb(r - 1, k - 1) for k in range(1, r + 1))
        assert sum(row) == 2 ** (r - 1)

    def test_table_row_sums(self):
        t = counting.binomial_table(5)
        assert t.row_sums == (1, 2, 4, 8, 16)

    def test_whole_table_is_pascal(self):
        assert counting.binomial_table(60).cells == tuple(
            tuple(math.comb(r - 1, k - 1) for k in range(1, 61)) for r in range(1, 61))


# -- the recursive definitions the kernel replaced, kept as references ------

@cache
def ref_p(total):
    if total < 0:
        return 0
    if total == 0:
        return 1
    acc = 0
    k = 1
    while k * (3 * k - 1) // 2 <= total:
        sign = 1 if k % 2 == 1 else -1
        acc += sign * ref_p(total - k * (3 * k - 1) // 2)
        acc += sign * ref_p(total - k * (3 * k + 1) // 2)
        k += 1
    return acc


@cache
def ref_exact(total, parts):
    if total < 0 or parts < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts:
        return 0
    return ref_exact(total - 1, parts - 1) + ref_exact(total - parts, parts)


@cache
def ref_atmost(total, parts):
    if total < 0 or parts < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    return ref_atmost(total, parts - 1) + ref_atmost(total - parts, parts)


@cache
def ref_box(max_part, max_parts, total):
    if total < 0:
        return 0
    if total == 0:
        return 1
    if max_part == 0 or max_parts == 0:
        return 0
    return ref_box(max_part, max_parts - 1, total) + ref_box(max_part - 1, max_parts, total - max_parts)


@cache
def ref_distinct(total, parts):
    if parts < 0 or total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts * (parts + 1) // 2:
        return 0
    return ref_distinct(total - parts, parts) + ref_distinct(total - parts, parts - 1)


@cache
def ref_unit_diff(total, units):
    if total < 0 or units < 0 or units > total:
        return 0
    if units == 0:
        return ref_p(total) - ref_p(total - 1)
    return ref_unit_diff(total - 1, units - 1)


def ref_frame(largest, parts, total):
    if largest == 0 or parts == 0:
        return 1 if largest == 0 and parts == 0 and total == 0 else 0
    return ref_box(largest - 1, parts - 1, total - largest - parts + 1)


def ref_hook_layer(frame, interior_total):
    return sum(ref_box(r - 1, frame - r, interior_total) for r in range(1, frame + 1))


@pytest.fixture
def deep_stack():
    """Room for the references' recursion, restored afterwards."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    yield
    sys.setrecursionlimit(limit)


BOX_GRID = [(a, b, t) for a in range(13) for b in range(13) for t in range(81)]
PAIR_MAX = 120
# Point queries each run their own sweep: a sample of part counts, at
# every total; the tables cover the full grid from one sweep each.
SAMPLED_PARTS = (-1, 0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 119, 120, 121)


@cache
def kernel_boxes():
    return {x: counting.p_box(*x) for x in BOX_GRID}


def ref_grid(ref, cols):
    return tuple(tuple(ref(m, k) for k in cols) for m in range(PAIR_MAX + 1))


class TestKernelAgainstRecursiveReferences:
    def test_p_box(self, deep_stack):
        assert kernel_boxes() == {x: ref_box(*x) for x in BOX_GRID}

    def test_point_counts(self, deep_stack):
        pairs = [(t, k) for t in range(-1, PAIR_MAX + 2) for k in SAMPLED_PARTS]
        for fn, ref in ((counting.p_exact, ref_exact), (counting.p_atmost, ref_atmost),
                        (counting.distinct_exact, ref_distinct),
                        (counting.unit_diff_cell, ref_unit_diff)):
            assert [fn(*x) for x in pairs] == [ref(*x) for x in pairs], fn.__name__

    def test_full_grid_tables(self, deep_stack):
        every = range(PAIR_MAX + 1)
        assert counting.exact_table(PAIR_MAX).cells == ref_grid(ref_exact, every)
        assert counting.atmost_table(PAIR_MAX).cells == ref_grid(ref_atmost, every)
        assert counting.unit_diff_table(PAIR_MAX).cells == ref_grid(ref_unit_diff, every)
        assert counting.unit_diff_column(PAIR_MAX) == tuple(ref_unit_diff(m, 0) for m in every)
        kmax = 15  # 15 distinct parts need 120 units
        distinct = ref_grid(ref_distinct, range(1, kmax + 1))[1:]
        assert [row[:kmax] for row in counting.distinct_table(PAIR_MAX).cells] == list(distinct)
        odd = ref_grid(lambda m, j: ref_exact((m + j) // 2, j) if (m + j) % 2 == 0 else 0,
                       range(1, PAIR_MAX + 1))[1:]
        assert [row[:PAIR_MAX] for row in counting.odd_even_mixed_table(PAIR_MAX).cells] == list(odd)
        assert counting.box_table(9, 7).cells == tuple(
            tuple(ref_box(e, 7, m) for e in range(10)) for m in range(64))

    def test_p_and_row_sums(self, deep_stack):
        assert [counting.p(m) for m in range(-2, 301)] == [ref_p(m) for m in range(-2, 301)]
        assert [counting.p_row_sum(m) for m in range(121)] == [ref_p(m) for m in range(121)]

    def test_frame_sums(self, deep_stack):
        for m in range(41):
            for a in range(m + 2):
                want = sum(ref_frame(a, n, m) for n in range(1, m + 1)) if a else int(m == 0)
                assert counting.p_exact(m, a) == want

    def test_scheme_and_layers(self, deep_stack):
        total = 45
        assert schemes.build_scheme(total).cells == tuple(
            tuple(ref_frame(m1, k, total) for k in range(1, total + 1))
            for m1 in range(total, 0, -1))
        table = counting.layer_table(40)
        for n in table.rows:
            for k in table.cols:
                want = ref_hook_layer(n - k + 1, k - 1) if k <= n else 0
                assert table.cell(n, k) == want
        for frame in range(1, 16):
            for t in range(30):
                assert counting.layer_count(frame + t, t + 1) == ref_hook_layer(frame, t)


class TestCorrectedRecurrencesOnTheKernel:
    """The errata's corrected recurrences hold as identities on the
    kernel's values; the printed forms fail (see test_errata)."""

    def test_exact_parts_recurrence(self):
        exact = counting.exact_table(PAIR_MAX).cells
        for m in range(1, PAIR_MAX + 1):
            for n in range(1, PAIR_MAX + 1):
                second = exact[m - n][n] if m >= n else 0
                assert exact[m][n] == exact[m - 1][n - 1] + second, (m, n)

    def test_disjoint_box_split(self):
        box = kernel_boxes()
        for a, b, t in BOX_GRID:
            if a >= 1 and b >= 1 and t >= 1:
                rest = box[a - 1, b, t - b] if t >= b else 0
                assert box[a, b, t] == box[a, b - 1, t] + rest, (a, b, t)


@pytest.mark.parametrize("call", [
    "p_box(-1, 1, 1)", "p_box(-2, 3, 5)", "p_box(2, -1, 1)", "p_box(-1, 0, 0)",
    "exact_frame(-1, 2, 1)", "exact_frame(3, -1, 4)", "p_min_part(3, -1, 2)",
    "distinct_exact(3, -1)", "p_atmost(3, -1)", "p_exact(3, -1)", "box_table(0, -1).cells[0][0]",
])
def test_negative_bound_counts_nothing(call):
    assert eval(call, vars(counting)) == 0


# Each table's rows, columns and cells, defined cell by cell.
TABLE_DEFINITIONS = {
    "box_table": lambda e, d: (range(e * d + 1), range(e + 1),
                               lambda m, k: ref_box(d, k, m) if d >= 0 else 0),
    "exact_table": lambda n: (range(n + 1), range(n + 1), ref_exact),
    "atmost_table": lambda n: (range(n + 1), range(n + 1), ref_atmost),
    "unit_diff_table": lambda n: (range(n + 1), range(n + 1), ref_unit_diff),
    "binomial_table": lambda n: (range(1, n + 1), range(1, n + 1),
                                 lambda r, k: math.comb(r - 1, k - 1)),
    "layer_table": lambda n: (range(1, n + 1), range(1, ref_layer_width(n) + 1),
                              lambda m, k: ref_hook_layer(m - k + 1, k - 1)),
    "right_hand_neighbor_table": lambda n: (range(2, n + 1), range(1, n), lambda m, k: sum(
        ref_exact(j, k - 1) for j in range(m - 1))),
}
DEGENERATE_SHAPES = (
    [("box_table", (e, d)) for e in range(-2, 4) for d in range(-2, 4)]
    + [(name, (n,)) for name in ("exact_table", "atmost_table", "unit_diff_table")
       for n in range(-1, 3)]
    + [("binomial_table", (n,)) for n in range(4)]
    + [("layer_table", (n,)) for n in (1, 2, 3, 4, 40)]
    + [("right_hand_neighbor_table", (n,)) for n in (2, 3, 4)]
)


def ref_layer_width(top):
    """The last layer with a partition of some total 1..top."""
    return max(k for m in range(1, top + 1) for k in range(1, m + 1)
               if ref_hook_layer(m - k + 1, k - 1))


@pytest.mark.parametrize("name,size", DEGENERATE_SHAPES,
                         ids=[f"{name}{size}" for name, size in DEGENERATE_SHAPES])
def test_small_and_degenerate_tables_match_their_cell_definitions(name, size):
    """Empty axes, a single row or column, and negative sizes keep each
    table's shape: a row without columns, or no rows at all."""
    rows, cols, cell = TABLE_DEFINITIONS[name](*size)
    table = getattr(counting, name)(*size)
    assert (table.rows, table.cols, table.cells) == (
        tuple(rows), tuple(cols), tuple(tuple(cell(r, c) for c in cols) for r in rows))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("call", [
    "p(5000)", "p_exact(3000, 50)", "p_atmost(1000, 1000)", "p_box(300, 300, 3000)",
    "distinct_exact(3000, 40)", "unit_diff_cell(3000, 0)", "p(499)", "p_atmost(250, 250)",
])
def test_cold_and_shallow_stack(call):
    for obj in vars(counting).values():
        getattr(obj, "cache_clear", lambda: None)()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        got = eval(call, vars(counting))
    finally:
        sys.setrecursionlimit(limit)
    assert got > 0


class TestPastBruteForce:
    """p, p_atmost(n, n) and p_row_sum against sympy's Hardy-Ramanujan-
    Rademacher partition numbers, independent of both constructions here."""

    def test_against_rademacher(self):
        numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
        for n in (0, 1, 2, 50, 99, 250, 499, 777, 1000, 1500, 2000, 3000, 4000):
            assert counting.p(n) == int(numbers.partition(n)), n
        for n in (0, 7, 120, 499, 1000, 1500):
            want = int(numbers.partition(n))
            assert counting.p_atmost(n, n) == want, n
            assert counting.p_row_sum(n) == want, n

    def test_unit_diff_column_against_rademacher(self):
        numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
        p = [int(numbers.partition(m)) for m in range(1501)]
        assert counting.unit_diff_column(1500) == tuple(
            p[m] - (p[m - 1] if m else 0) for m in range(1501))
        assert counting.unit_diff_column(-1) == ()
