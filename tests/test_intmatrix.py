import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partlat import counting, intmatrix, series
from partlat.intmatrix import (
    IntMatrix,
    euler_matrix,
    exact_parts_matrix,
    identity,
    inverse_exact_parts_matrix,
    inverse_unit_diff_matrix,
    invert_unitriangular,
    multiply,
    partition_matrix,
    scheme_inverse,
    scheme_matrix,
    summation_inverse,
    summation_matrix,
    toeplitz,
    unit_diff_matrix,
)


# The two unitriangular shapes, as test parameters.
LOWER, UPPER = "lower_unitriangular", "upper_unitriangular"
REFUSAL = "^only unitriangular matrices are invertible here$"


def from_rows(rows):
    return IntMatrix(tuple(map(tuple, rows)))


# The two printed inverse tables, frozen (rows m = 1..6 / 0..5).
INVERSE_EXACT_6 = (
    (1, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0),
    (1, -1, -1, 1, 0, 0),
    (0, 1, -1, -1, 1, 0),
    (0, 1, 0, -1, -1, 1),
)
INVERSE_UNIT_DIFF_6 = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (-1, 0, 1, 0, 0, 0),
    (-1, -1, 0, 1, 0, 0),
    (-1, -1, -1, 0, 1, 0),
    (0, -1, -1, -1, 0, 1),
)


def is_unitriangular(rows, shape):
    """Square, with ones on the diagonal and zeros above it (LOWER) or below
    it (UPPER), cell by cell."""
    n = len(rows)
    return all(len(row) == n for row in rows) and all(
        rows[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        if (j >= i if shape == LOWER else j <= i))


class TestEntryTypes:
    @pytest.mark.parametrize("bad", (1.5, 2.0, True, "1", None))
    def test_refused_by_name(self, bad):
        with pytest.raises(ValueError, match="^entries must be an integer$"):
            IntMatrix(((1, 0), (bad, 1)))
        with pytest.raises(ValueError, match="^entries must be an integer$"):
            toeplitz((1, bad))
        with pytest.raises(ValueError, match="^entries must be an integer$"):
            intmatrix.from_cell(2, lambda i, j: bad)

    def test_checked_before_the_shape(self):
        with pytest.raises(ValueError, match="^entries must be an integer$"):
            IntMatrix(((1.5, 2), (1, 2, 3)))
        with pytest.raises(ValueError, match="^ragged matrix$"):
            IntMatrix(((1, 2), (1, 2, 3)))


class TestShapeValidation:
    def test_tag_checked(self):
        """The shape is read off the entries when the matrix is inverted."""
        for rows in (((1, 5), (3, 1)), ((2, 0), (0, 1)), ((1, 0), (0, -1)), ((1, 1), (1, 1)),
                     ((0,),)):
            with pytest.raises(ValueError, match=REFUSAL):
                invert_unitriangular(IntMatrix(rows))

    @pytest.mark.parametrize("tag", (LOWER, UPPER))
    def test_first_fault_named(self, tag):
        """A near-unitriangular matrix inverts exactly when it is lower or
        upper unitriangular cell by cell; any other gets the one refusal."""
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 6)
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(rng.randint(0, 3)):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 0, 1, 2))
            a = from_rows(rows) if tag == LOWER else from_rows(rows).transpose()
            if is_unitriangular(a.entries, LOWER) or is_unitriangular(a.entries, UPPER):
                assert invert_unitriangular(a).entries == substitution_inverse(a).entries
            else:
                with pytest.raises(ValueError, match=REFUSAL):
                    invert_unitriangular(a)

    @pytest.mark.parametrize("rows", (
        ((1, 0, 0), (4, 1, 0), (-2, 7, 1)),
        ((1, 4, -2), (0, 1, 7), (0, 0, 1)),
        ((1, 0), (0, 1)),
        ((1,),),
        (),
    ), ids=("lower", "upper", "identity", "one", "empty"))
    def test_undeclared_unitriangular_inverts(self, rows):
        a = IntMatrix(rows)
        x = invert_unitriangular(a)
        assert x.entries == substitution_inverse(a).entries
        assert multiply(a, x).entries == multiply(x, a).entries == identity(len(rows)).entries

    @pytest.mark.parametrize("rows", (((),), ((1, 0),), ((1, 0, 0), (0, 1, 0)), ((1,), (0,))))
    def test_non_square_refused(self, rows):
        with pytest.raises(ValueError, match=REFUSAL):
            invert_unitriangular(IntMatrix(rows))

    def test_dimension_mismatch(self):
        a = from_rows([[1, 2]])
        with pytest.raises(ValueError):
            multiply(a, a)

    def test_general_matrix_not_invertible_here(self):
        with pytest.raises(ValueError, match=REFUSAL):
            invert_unitriangular(from_rows([[2, 0], [0, 2]]))


class TestSummation:
    def test_upper_definition(self):
        up = summation_matrix(3).transpose()
        assert up.entries == ((1, 1, 1), (0, 1, 1), (0, 0, 1))

    def test_upper_inverse_pattern(self):
        up = summation_inverse(3).transpose()
        assert up.entries == ((1, -1, 0), (0, 1, -1), (0, 0, 1))

    @pytest.mark.parametrize("upper", (False, True))
    def test_closed_form_inverse(self, upper):
        a, inverse = summation_matrix(6), summation_inverse(6)
        if upper:
            a, inverse = a.transpose(), inverse.transpose()
        assert invert_unitriangular(a) == inverse

    def test_cumulating_the_exact_row(self):
        row = [counting.p_exact(6, n) for n in range(7)]
        up = summation_matrix(7).transpose()
        cumulated = multiply(from_rows([row]), up)
        assert cumulated.entries[0] == (0, 1, 4, 7, 9, 10, 11)

    def test_table_relation_both_ways(self):
        n = 20
        exact = intmatrix.from_cell(n, lambda i, j: counting.p_exact(i, j))
        atmost = intmatrix.from_cell(n, lambda i, j: counting.p_atmost(i, j))
        assert multiply(exact, summation_matrix(n).transpose()).entries == atmost.entries
        assert multiply(atmost, summation_inverse(n).transpose()).entries == exact.entries


class TestMultiplyInvert:
    def test_identity_is_neutral(self):
        a = exact_parts_matrix(5)
        assert multiply(identity(5), a).entries == a.entries
        assert multiply(a, identity(5)).entries == a.entries

    @pytest.mark.parametrize("n", list(range(1, 11)) + [20, 50])
    def test_inverse_is_exact(self, n):
        for make in (exact_parts_matrix, unit_diff_matrix, scheme_matrix):
            a = make(n)
            assert multiply(a, invert_unitriangular(a)).entries == identity(n).entries
            assert multiply(invert_unitriangular(a), a).entries == identity(n).entries

    def test_upper_inversion(self):
        a = exact_parts_matrix(8).transpose()
        assert not is_unitriangular(a.entries, LOWER)
        assert multiply(a, invert_unitriangular(a)).entries == identity(8).entries

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
    def test_multiply_matches_schoolbook(self, rows, inner, cols, data):
        # Cells at the edges of a 64-bit slot and past 2^127 make the
        # product's slots grow past one and two words.
        cell = st.one_of(st.just(0), st.integers(-9, 9),
                         st.sampled_from((2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63)),
                         st.integers(2 ** 127, 2 ** 130), st.integers(-2 ** 130, -2 ** 127))
        a = data.draw(st.lists(st.lists(cell, min_size=inner, max_size=inner),
                               min_size=rows, max_size=rows))
        b = data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                               min_size=inner, max_size=inner))
        want = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
                     for i in range(rows))
        assert multiply(from_rows(a), from_rows(b)).entries == want

    @pytest.mark.parametrize("x", (2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 127 - 1,
                                   2 ** 127, -2 ** 127, 2 ** 191, -2 ** 191 - 5))
    def test_entries_at_the_slot_edges(self, x):
        assert multiply(from_rows([[1]]), from_rows([[x, -x, 0]])).entries == ((x, -x, 0),)
        assert multiply(from_rows([[x, -1], [1, 1]]), from_rows([[1], [x]])).entries == ((0,), (x + 1,))
        # A zero column of the left factor still leaves its row of B to pack.
        assert multiply(from_rows([[0, 1]]), from_rows([[x], [1]])).entries == ((1,),)

    def test_empty_products(self):
        assert multiply(from_rows([[1, 2]]), IntMatrix(((), ()))).entries == ((),)
        assert multiply(IntMatrix(()), IntMatrix(())).entries == ()


class TestPartitionToeplitz:
    def test_partition_column(self):
        assert partition_matrix(6).column(0) == (1, 1, 2, 3, 5, 7)

    def test_euler_column(self):
        assert euler_matrix(6).column(0) == (1, -1, -1, 0, 0, 1)

    def test_row_elimination(self):
        # (7*1) + (5*-1) + (3*-1) + (2*0) + (1*0) + (1*1) = 0
        row = partition_matrix(6)[5]
        col = euler_matrix(6).column(0)
        assert row == (7, 5, 3, 2, 1, 1)
        assert sum(x * y for x, y in zip(row, col)) == 0

    @pytest.mark.parametrize("n", (6, 20, 50))
    def test_product_is_identity(self, n):
        prod = multiply(partition_matrix(n), euler_matrix(n))
        assert prod.entries == identity(n).entries

    def test_columns_shift_down(self):
        for make in (partition_matrix, euler_matrix):
            a = make(10)
            col0 = a.column(0)
            for j in range(1, 10):
                assert a.column(j) == (0,) * j + col0[:10 - j]


class TestToeplitzBuilder:
    def test_small(self):
        assert toeplitz((1, 2, 3)).entries == ((1, 0, 0), (2, 1, 0), (3, 2, 1))
        assert toeplitz([1]).entries == ((1,),)
        # Only inversion needs a unit diagonal.
        assert toeplitz((2, 1)).entries == ((2, 0), (1, 2))
        assert toeplitz(()).entries == ()

    @pytest.mark.parametrize("make", (partition_matrix, euler_matrix, inverse_unit_diff_matrix))
    @pytest.mark.parametrize("n", (0, -2))
    def test_empty_sizes_refused(self, make, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            make(n)

    def test_matches_cell_definitions(self):
        unit_diff = counting.unit_diff_table(60)
        cells = {
            "partition": (partition_matrix, lambda i, j: counting.p(i - j) if i >= j else 0),
            "euler": (euler_matrix,
                      lambda i, j: series.euler_coefficient(i - j) if i >= j else 0),
            "summation": (summation_matrix, lambda i, j: 1 if j <= i else 0),
            "summation-upper": (lambda n: summation_matrix(n).transpose(),
                                lambda i, j: 1 if j >= i else 0),
            "summation-inverse": (summation_inverse,
                                  lambda i, j: 1 if i == j else (-1 if j == i - 1 else 0)),
            "summation-inverse-upper": (lambda n: summation_inverse(n).transpose(),
                                        lambda i, j: 1 if i == j else (-1 if j == i + 1 else 0)),
            "unit-diff": (unit_diff_matrix, lambda i, j: unit_diff.cell(i, j)),
        }
        for n in range(1, 61):
            for name, (make, cell) in cells.items():
                assert make(n) == intmatrix.from_cell(n, cell), (name, n)
            assert inverse_unit_diff_matrix(n) == invert_unitriangular(unit_diff_matrix(n)), n


class TestTableInverses:
    def test_inverse_exact_block(self):
        assert inverse_exact_parts_matrix(6).entries == INVERSE_EXACT_6

    def test_inverse_unit_diff_block(self):
        assert inverse_unit_diff_matrix(6).entries == INVERSE_UNIT_DIFF_6

    @pytest.mark.parametrize("n", (6, 12, 20, 60, 200))
    def test_unit_diff_inverse_is_summation_times_euler(self, n):
        composed = multiply(summation_matrix(n), euler_matrix(n))
        assert inverse_unit_diff_matrix(n).entries == composed.entries


def substitution_inverse(a):
    """Row-by-row forward substitution with three nested Python loops: the
    reference for the packed-row kernel of ``invert_unitriangular``."""
    if not is_unitriangular(a.entries, LOWER):
        return substitution_inverse(a.transpose()).transpose()
    n = a.rows
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = 1
        for k in range(i):
            coeff = a.entries[i][k]
            if coeff:
                for j in range(k + 1):
                    inv[i][j] -= coeff * inv[k][j]
    return IntMatrix(tuple(map(tuple, inv)))


class TestSliceInverse:
    """The packed-row kernel against the three-loop reference."""

    @pytest.mark.parametrize("n", range(1, 41))
    @pytest.mark.parametrize("tag", (LOWER, UPPER))
    def test_matches_forward_substitution(self, n, tag):
        rng = random.Random(n)
        rows = [[1 if i == j else rng.choice((0, rng.randint(-50, 50))) if j < i else 0
                 for j in range(n)] for i in range(n)]
        a = from_rows(rows)
        if tag == UPPER:
            a = a.transpose()
        x = invert_unitriangular(a)
        assert is_unitriangular(x.entries, tag)
        assert x.entries == substitution_inverse(a).entries
        assert multiply(a, x).entries == identity(n).entries

    @pytest.mark.parametrize("step", (40, 63, 64, 65, 200))
    def test_slots_grow_partway(self, step):
        """The subdiagonal -2^step makes entry (i, j) of the inverse
        2^(step·(i - j)), so the bound outgrows the slots row after row and
        the earlier rows are packed again at each new width."""
        n = 12
        a = from_rows([[1 if i == j else -2 ** step if j == i - 1 else 0 for j in range(n)]
                       for i in range(n)])
        x = invert_unitriangular(a)
        assert x.entries == substitution_inverse(a).entries
        assert x[n - 1][0] == 2 ** (step * (n - 1)) > 2 ** 127

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_wide_coefficients(self, seed):
        rng = random.Random(seed)
        n = 15
        a = from_rows([[1 if i == j else rng.randint(-2 ** 70, 2 ** 70) if j < i else 0
                        for j in range(n)] for i in range(n)])
        x = invert_unitriangular(a)
        assert max(map(abs, x[n - 1])) > 2 ** 127
        assert x.entries == substitution_inverse(a).entries
        assert multiply(a, x).entries == identity(n).entries


class TestSchemeInverse:
    def test_one_is_identity(self):
        assert scheme_inverse(1).entries == ((1,),)

    def test_printed_rows_for_seven(self):
        inv = scheme_inverse(7)
        assert inv[4] == (0, 2, -1, -1, 1, 0, 0)   # largest part 3
        assert inv[5] == (0, -2, 2, 0, -1, 1, 0)   # largest part 2

    def test_corrected_row_for_largest_five(self):
        # The printed block shows (0, 0, 1, ...) here, which cannot multiply
        # back to the identity; see the errata ledger.
        assert scheme_inverse(7)[2] == (0, -1, 1, 0, 0, 0, 0)

    @pytest.mark.parametrize("total", range(1, 15))
    def test_scheme_matrix_is_unitriangular_and_inverts(self, total):
        s = scheme_matrix(total)
        assert is_unitriangular(s.entries, LOWER)
        assert multiply(s, scheme_inverse(total)).entries == identity(total).entries
