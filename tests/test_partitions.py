import re
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partlat import counting, intmatrix, lattices, schemes, series, verify
from partlat.oracle import ConstraintRecord, enumerate_partitions
from partlat.partitions import (
    FerrersMatrix,
    FrameError,
    MultiplicityVector,
    Partition,
    canonicalize,
    from_multiplicity,
    label_of,
    require_ints,
)


def all_partitions(total, **kw):
    return enumerate_partitions(ConstraintRecord(total=total, **kw))


class TestCanonicalize:
    def test_sorts_a_permuted_vector(self):
        assert canonicalize((1, 2, 1, 3), 4).parts == (3, 2, 1, 1)

    def test_empty(self):
        q = canonicalize((), 0)
        assert q.parts == () and q.total == 0

    def test_zero_padding(self):
        assert canonicalize((0, 5, 0), 3).parts == (5, 0, 0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            canonicalize((3, -1), 2)

    def test_rejects_short_padding(self):
        with pytest.raises(ValueError):
            canonicalize((2, 1), 1)

    @pytest.mark.parametrize("values", [(2.5, 1), (2, True), (3, 0.0), ("1",)])
    def test_rejects_non_integer_values(self, values):
        with pytest.raises(ValueError, match="^each part must be an integer$"):
            canonicalize(values)

    @given(st.lists(st.integers(0, 30), max_size=8))
    def test_idempotent(self, values):
        once = canonicalize(values)
        again = canonicalize(once.parts, once.padded_length)
        assert once.parts == again.parts

    def test_equality_ignores_padding(self):
        assert canonicalize((2, 1), 2) == canonicalize((2, 1, 0, 0), 4)
        assert hash(canonicalize((2, 1), 2)) == hash(canonicalize((2, 1), 5))


    def test_public_constructor_messages(self):
        with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(1, 2\)$"):
            Partition((1, 2))
        with pytest.raises(ValueError, match=r"^negative part in \(2, -1\)$"):
            Partition((2, -1))
        with pytest.raises(ValueError, match="^padded_length 1 < 2 nonzero parts$"):
            Partition((2, 1), 1)

    @pytest.mark.parametrize("total", range(11))
    def test_derived_partitions_pass_the_public_checks(self, total):
        """The oracle and the derived ops build partitions unchecked; each
        must be the one the checked constructor builds from its parts."""
        def derived(q):
            yield q
            yield q.conjugate()
            yield q.interior()
            yield q.box_complement(q.nonzero_count + 2, q.largest + 1)
            yield q.to_ferrers(q.nonzero_count + 1, q.largest).to_partition()
            yield q.to_ferrers(q.nonzero_count, q.largest + 1).transpose().to_partition()

        for q in all_partitions(total, max_parts=total + 1):
            for r in derived(q):
                checked = Partition(r.parts, r.padded_length)
                assert (r.nonzero_parts, r.padded_length) == \
                    (checked.nonzero_parts, checked.padded_length), (q, r)


class TestIntegerParts:
    @pytest.mark.parametrize("parts", [(3, 1.5), (3, True), (2.0,), (3, 0.0), ("2",)])
    def test_partition_refuses_non_integer_parts(self, parts):
        with pytest.raises(ValueError, match="^each part must be an integer$"):
            Partition(parts)

    def test_float_part_no_longer_conjugates(self):
        # Accepted before, this conjugated to Partition([2, 2, 1]): total 5, not 4.5.
        with pytest.raises(ValueError):
            Partition((3, 1.5)).conjugate()

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None, IntEnum("E", "A").A])
    def test_helper_refuses_anything_but_a_plain_int(self, value):
        with pytest.raises(ValueError, match="^x must be an integer$"):
            require_ints("x", 1, value)

    def test_helper_passes_plain_ints(self):
        require_ints("x")
        require_ints("x", 0, -3, 10 ** 30)
        require_ints("x", 1, 5, low=1)
        require_ints("x", 0, 3, low=0, high=3)


# Each entry point whose argument guard is the helper: (id, a call with the
# argument, its name, the least int it takes, the largest or None).
# ConstraintRecord's fields have their own tests in test_oracle.py.
GUARDED = (
    ("franklin_trapezoids", counting.franklin_trapezoids, "k", 1, None),
    ("right_hand_neighbor_table", counting.right_hand_neighbor_table, "max_total", 2, None),
    ("layer_table", counting.layer_table, "max_total", 1, None),
    ("diagonal_sum", counting.diagonal_sum, "frame", 1, None),
    ("binomial_row", counting.binomial_row, "size", 1, None),
    ("build_scheme", schemes.build_scheme, "total", 1, None),
    ("euler_coefficient", series.euler_coefficient, "n", 0, None),
    ("TruncatedSeries.one", series.TruncatedSeries.one, "order", 0, None),
    ("euler_product", series.euler_product, "order", 0, None),
    ("distinct_series", series.distinct_series, "order", 0, None),
    ("partition_series", series.partition_series, "order", 0, None),
    ("capped_product", lambda v: series.capped_product([(1, None)], v), "order", 0, None),
    ("build_lattice", lambda v: lattices.build_lattice("unit-exchange", total=v), "total", 0, None),
    ("build_split_merge", lambda v: lattices.build_split_merge(5, v), "slots", 1, None),
    ("build_subset_swap", lambda v: lattices.build_subset_swap(v, 0), "bits", 1, None),
    ("build_subset_double_swap", lambda v: lattices.build_subset_double_swap(4, v), "ones", 0, 4),
    ("build_hypercube", lattices.build_hypercube, "dim", 1, None),
    ("column_edge_counts", lattices.column_edge_counts, "total", 2, None),
    ("verify_suite", verify.verify_suite, "max_total", 1, verify.MAX_TOTAL),
    ("MultiplicityVector", lambda v: MultiplicityVector(0, (1, v)), "counts", 0, None),
) + tuple((name, getattr(intmatrix, name), "n", 1, None) for name in (
    "summation_matrix", "summation_inverse", "partition_matrix", "euler_matrix",
    "exact_parts_matrix", "unit_diff_matrix", "inverse_unit_diff_matrix"))


@pytest.mark.parametrize("value", (2.0, True, "2"), ids=("float", "bool", "str"))
@pytest.mark.parametrize("call,name,low,high", [g[1:] for g in GUARDED],
                         ids=[g[0] for g in GUARDED])
def test_each_guarded_entry_point_refuses_by_name(call, name, low, high, value):
    # Before the helper held these guards a float or a bool was accepted
    # (layer_table(True) built a table) or failed inside a kernel with TypeError.
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(value)
    message = f"{name} must be >= {low}" if high is None else f"{name} must be between {low} and {high}"
    for bad in (low - 1,) if high is None else (low - 1, high + 1):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(bad)


# Each int parameter that takes any int, a negative one included (a count
# with a negative bound is 0): (id, a call with the argument, its name).
UNBOUNDED = (
    ("p", counting.p, "total"),
    ("p_box:max_part", lambda v: counting.p_box(v, 3, 4), "max_part"),
    ("p_box:max_parts", lambda v: counting.p_box(2, v, 4), "max_parts"),
    ("p_box:total", lambda v: counting.p_box(2, 3, v), "total"),
    ("p_atmost:total", lambda v: counting.p_atmost(v, 2), "total"),
    ("p_atmost:parts", lambda v: counting.p_atmost(5, v), "parts"),
    ("p_exact:total", lambda v: counting.p_exact(v, 2), "total"),
    ("p_exact:parts", lambda v: counting.p_exact(5, v), "parts"),
    ("p_min_part:total", lambda v: counting.p_min_part(v, 2, 1), "total"),
    ("p_min_part:parts", lambda v: counting.p_min_part(6, v, 1), "parts"),
    ("p_min_part:min_part", lambda v: counting.p_min_part(6, 2, v), "min_part"),
    ("exact_frame:largest", lambda v: counting.exact_frame(v, 2, 5), "largest"),
    ("exact_frame:parts", lambda v: counting.exact_frame(3, v, 5), "parts"),
    ("exact_frame:total", lambda v: counting.exact_frame(3, 2, v), "total"),
    ("odd_even_mixed", counting.odd_even_mixed, "total"),
    ("distinct_row", counting.distinct_row, "total"),
    ("TruncatedSeries", lambda v: series.TruncatedSeries((1, v)), "coefficients"),
    ("pentagonal_pairs", series.pentagonal_pairs, "count"),
    ("p_row_sum", counting.p_row_sum, "total"),
    ("layer_count:total", lambda v: counting.layer_count(v, 1), "total"),
    ("layer_count:layer", lambda v: counting.layer_count(5, v), "layer"),
    ("neighbor_total", counting.neighbor_total, "total"),
    ("distinct_exact:total", lambda v: counting.distinct_exact(v, 1), "total"),
    ("distinct_exact:parts", lambda v: counting.distinct_exact(5, v), "parts"),
    ("unit_diff_cell:total", lambda v: counting.unit_diff_cell(v, 1), "total"),
    ("unit_diff_cell:units", lambda v: counting.unit_diff_cell(4, v), "units"),
    ("unit_diff_column", counting.unit_diff_column, "order"),
    ("exact_table", counting.exact_table, "max_total"),
    ("atmost_table", counting.atmost_table, "max_total"),
    ("odd_even_mixed_table", counting.odd_even_mixed_table, "max_total"),
    ("distinct_table", counting.distinct_table, "max_total"),
    ("unit_diff_table", counting.unit_diff_table, "max_total"),
    ("box_table:edge", lambda v: counting.box_table(v, 2), "edge"),
    ("box_table:dim", lambda v: counting.box_table(2, v), "dim"),
    ("binomial_table", counting.binomial_table, "max_size"),
)


@pytest.mark.parametrize("value", (2.0, True, "2"), ids=("float", "bool", "str"))
@pytest.mark.parametrize("call,name", [u[1:] for u in UNBOUNDED], ids=[u[0] for u in UNBOUNDED])
def test_each_unbounded_int_parameter_refuses_a_non_int_by_name(call, name, value):
    # Before, p(True) returned 1 and p_box(2, 3, 4.0) raised TypeError in the kernel.
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(value)
    call(-1)


# Each int parameter whose range check keeps a message of its own, naming the
# value that failed: (id, a call with the argument, its name, an int out of
# range, that message).
OWN_RANGE = (
    ("Partition", lambda v: Partition((2, 1), v), "padded_length", 1,
     "padded_length 1 < 2 nonzero parts"),
    ("canonicalize", lambda v: canonicalize((2, 1), v), "padded_length", 1,
     "padded_length 1 < 2 nonzero parts"),
    ("FerrersMatrix", lambda v: FerrersMatrix(((1, v),)), "each cell", -1,
     "cell value -1 not in {0,1}"),
    ("capped_product:part", lambda v: series.capped_product([(v, None)], 5), "part value", 0,
     "part value 0 must be >= 1"),
    ("capped_product:cap", lambda v: series.capped_product([(2, v)], 5), "cap", -1,
     "cap -1 must be >= 0"),
)


@pytest.mark.parametrize("value", (2.0, True, "2"), ids=("float", "bool", "str"))
@pytest.mark.parametrize("call,name,bad,message", [o[1:] for o in OWN_RANGE],
                         ids=[o[0] for o in OWN_RANGE])
def test_each_own_range_parameter_refuses_a_non_int_by_name(call, name, bad, message, value):
    # Before, Partition((2, 1), 2.5) raised TypeError on use, FerrersMatrix
    # took True as a cell and capped_product read a True part as 1.
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


class TestConjugate:
    def test_worked_value(self):
        # Brute-force route: transpose the 0/1 matrix and read row lengths.
        q = Partition((3, 2, 1, 1))
        f = q.to_ferrers(4, 3)
        by_matrix = f.transpose().to_partition()
        assert by_matrix.nonzero_parts == (4, 2, 1)
        assert q.conjugate() == by_matrix

    def test_single_row(self):
        assert Partition((7,)).conjugate().parts == (1,) * 7

    def test_self_conjugate_square(self):
        assert Partition((2, 2)).conjugate() == Partition((2, 2))

    @pytest.mark.parametrize("total", range(13))
    def test_matches_matrix_transpose_exhaustively(self, total):
        for q in all_partitions(total):
            if q.nonzero_parts:
                f = q.to_ferrers(q.nonzero_count, q.largest)
                assert q.conjugate() == f.transpose().to_partition()

    @pytest.mark.parametrize("total", range(13))
    def test_involution(self, total):
        for q in all_partitions(total):
            assert q.conjugate().conjugate() == q


class TestFerrers:
    def test_direct_definition(self):
        assert Partition((2, 1)).to_ferrers(2, 2).cells == ((1, 1), (1, 0))

    def test_single_cell_in_two_by_two(self):
        assert Partition((1,)).to_ferrers(2, 2).cells == ((1, 0), (0, 0))

    def test_ones_count_and_row_lengths(self):
        f = Partition((3, 2, 1, 1)).to_ferrers(4, 3)
        assert sum(map(sum, f.cells)) == 7
        assert f.row_lengths() == (3, 2, 1, 1)

    def test_frame_too_small(self):
        with pytest.raises(FrameError):
            Partition((3, 1)).to_ferrers(2, 2)
        with pytest.raises(FrameError):
            Partition((1, 1, 1)).to_ferrers(2, 3)

    @pytest.mark.parametrize("call,name", [
        (lambda: Partition((1,)).to_ferrers("a", 2), "rows"),
        (lambda: Partition((1,)).to_ferrers(2, 2.0), "cols"),
        (lambda: Partition((1,)).box_complement(2.5, 3), "rows"),
        (lambda: Partition((1,)).box_complement(3, True), "cols"),
    ], ids=("str-rows", "float-cols", "float-complement-rows", "bool-complement-cols"))
    def test_non_integer_frame_refused_by_name(self, call, name):
        # Each raised TypeError, or passed a bool as 1.
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            call()

    def test_transpose_of_symmetric_matrix(self):
        f = FerrersMatrix(((1, 1), (1, 0)))
        assert f.transpose() == f

    def test_transpose_row_to_column(self):
        assert FerrersMatrix(((1, 1, 1),)).transpose().cells == ((1,), (1,), (1,))

    def test_transpose_involution_on_all_four_by_four_fills(self):
        for m in range(17):
            for q in all_partitions(m, max_part=4, max_parts=4):
                f = q.to_ferrers(4, 4)
                assert f.transpose().transpose() == f

    def test_transverse_worked_example(self):
        assert FerrersMatrix(((0, 1), (1, 1))).transverse().cells == ((1, 1), (1, 0))

    def test_transverse_all_ones_fixed(self):
        ones = FerrersMatrix(((1, 1), (1, 1)))
        assert ones.transverse() == ones

    def test_transverse_involution(self):
        grid = FerrersMatrix(((0, 1, 1), (1, 0, 0)))
        assert grid.transverse().transverse() == grid

    def test_non_ferrers_grid_refuses_partition(self):
        with pytest.raises(ValueError):
            FerrersMatrix(((0, 1), (1, 1))).to_partition()

    def test_rejects_non_binary_cells(self):
        with pytest.raises(ValueError):
            FerrersMatrix(((2, 0),))

    def test_error_messages(self):
        with pytest.raises(ValueError, match="^ragged grid$"):
            FerrersMatrix(((1, 0), (1,)))
        with pytest.raises(ValueError, match=r"^cell value 7 not in \{0,1\}$"):
            FerrersMatrix(((1, 0), (0, 7), (5, 1)))

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 4), (4, 1), (3, 5)])
    def test_whole_row_ops_match_the_cellwise_definitions(self, rows, cols):
        for m in range(rows * cols + 1):
            for q in all_partitions(m, max_part=cols, max_parts=rows):
                f = q.to_ferrers(rows, cols)
                ps = q.nonzero_parts + (0,) * (rows - q.nonzero_count)
                assert f.cells == tuple(tuple(int(j < ps[i]) for j in range(cols))
                                        for i in range(rows))
                g = f.complement()
                assert g.cells == tuple(tuple(1 - v for v in row) for row in f.cells)
                assert g.transverse().cells == tuple(tuple(reversed(row))
                                                     for row in reversed(g.cells))
                assert f.transpose().cells == tuple(tuple(f.cells[i][j] for i in range(rows))
                                                    for j in range(f.cols))


class TestBoxComplement:
    def test_worked_example(self):
        assert Partition((1,)).box_complement(2, 2).nonzero_parts == (2, 1)

    def test_empty_gives_full_rectangle(self):
        assert Partition((), 0).box_complement(3, 4).nonzero_parts == (4, 4, 4)

    def test_derived_inverse_pair(self):
        assert Partition((2, 1)).box_complement(2, 2).nonzero_parts == (1,)

    def test_involution_and_sum_law_in_three_by_three(self):
        for m in range(10):
            for q in all_partitions(m, max_part=3, max_parts=3):
                c = q.box_complement(3, 3)
                assert q.total + c.total == 9
                assert c.box_complement(3, 3) == q

    def test_sum_law_four_by_five(self):
        for m in range(21):
            for q in all_partitions(m, max_part=5, max_parts=4):
                assert q.total + q.box_complement(4, 5).total == 20


class TestMultiplicity:
    def test_tally_with_padding(self):
        v = Partition((3, 2, 1, 1), 4).to_multiplicity(0)
        assert v.base == 0 and v.counts == (0, 2, 1, 1)
        assert v.dimension == 4 and v.weighted_sum == 7

    def test_negative_base_pattern(self):
        v = MultiplicityVector(-2, (4, 0, 0, 0, 0, 1))
        assert from_multiplicity(v) == (3, -2, -2, -2, -2)
        assert v.weighted_sum == -5

    def test_all_ones(self):
        v = MultiplicityVector(1, (5,))
        assert from_multiplicity(v) == (1, 1, 1, 1, 1)
        assert v.weighted_sum == 5

    @pytest.mark.parametrize("bad", (0.5, True, "0"))
    def test_base_and_shift_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="^base must be an integer$"):
            MultiplicityVector(bad, (1,))
        with pytest.raises(ValueError, match="^base must be an integer$"):
            Partition((2, 1)).to_multiplicity(bad)
        with pytest.raises(ValueError, match="^s must be an integer$"):
            MultiplicityVector(0, (1,)).shift(bad)

    def test_part_below_base_rejected(self):
        with pytest.raises(ValueError):
            Partition((3, 2)).to_multiplicity(3)

    def test_shift_examples(self):
        pattern = MultiplicityVector(-2, (4, 0, 0, 0, 0, 1))
        sums = [pattern.shift(s).weighted_sum for s in range(5)]
        assert sums == [-5, 0, 5, 10, 15]
        assert pattern.shift(0) == pattern
        moved = pattern.shift(3)
        assert moved.base == 1 and moved.counts == pattern.counts
        assert moved.weighted_sum == -5 + 3 * 5

    @pytest.mark.parametrize("total", range(13))
    def test_round_trip(self, total):
        for q in all_partitions(total):
            back = from_multiplicity(q.to_multiplicity(0))
            assert tuple(v for v in back if v > 0) == q.nonzero_parts

    @given(st.lists(st.integers(0, 12), min_size=0, max_size=7))
    def test_round_trip_property(self, values):
        q = canonicalize(values)
        back = from_multiplicity(q.to_multiplicity(0))
        assert back == q.parts


class TestNormAndHook:
    def test_equal_norms(self):
        assert Partition((3, 3, 0)).norm_squared() == 18
        assert Partition((4, 1, 1)).norm_squared() == 18

    def test_empty_norm(self):
        assert Partition((), 0).norm_squared() == 0

    @pytest.mark.parametrize("x", range(1, 30))
    def test_exchange_raises_norm_by_two(self, x):
        flat = Partition((x, x)).norm_squared()
        tilted = Partition((x + 1, x - 1)).norm_squared()
        assert tilted == flat + 2

    def test_hook_interior_layer_worked(self):
        q = Partition((4, 4, 4))
        assert q.hook_frame_size() == 6
        assert q.interior().nonzero_parts == (3, 3)
        assert q.layer() == 7

    def test_hook_shape_has_trivial_interior(self):
        for k in range(4):
            q = Partition((5 - k,) + (1,) * k)
            assert q.interior().total == 0
            assert q.layer() == 1

    def test_second_layer_seven_example(self):
        q = Partition((5, 5, 3))
        assert q.interior().nonzero_parts == (4, 2)
        assert q.layer() == 7

    def test_empty_partition_conventions(self):
        empty = Partition((), 0)
        assert empty.layer() == 0
        assert empty.interior().total == 0
        with pytest.raises(ValueError):
            empty.hook_frame_size()

    @pytest.mark.parametrize("total", range(1, 15))
    def test_layer_equals_total_minus_hook_plus_one(self, total):
        for q in all_partitions(total):
            assert q.layer() == q.total - q.hook_frame_size() + 1


class TestShiftBijection:
    @pytest.mark.parametrize("r", range(-3, 4))
    @pytest.mark.parametrize("s", range(-3, 4))
    def test_patterns_map_bijectively(self, r, s):
        for m in range(1, 13):
            for n in range(1, 5):
                base_total = m - n * (r - 1)
                if not n <= base_total <= 25:
                    continue
                qs = all_partitions(base_total, exact_parts=n)
                shifted = {q.to_multiplicity(1).shift(r - 1).shift(s).counts for q in qs}
                direct = {q.to_multiplicity(1).shift(r + s - 1).counts for q in qs}
                assert shifted == direct
                assert len(shifted) == len(qs)


class TestLabels:
    @pytest.mark.parametrize("parts, padded, label", [
        ((), 0, ""),
        ((), 3, "000"),
        ((3, 1), 4, "3100"),
        ((9, 9), 2, "99"),
        ((10, 1), 3, "10,1,0"),
        ((12,), 1, "12"),
        ((12,), 3, "12,0,0"),
        ((10, 1), 5, "10,1,0,0,0"),
    ])
    def test_digit_and_comma_rule(self, parts, padded, label):
        assert Partition(parts, padded).label() == label
        assert label_of(parts, padded) == label

    def test_negative_part_refused(self):
        with pytest.raises(ValueError):
            label_of((-1,))
