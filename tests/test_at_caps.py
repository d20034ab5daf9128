"""CLI tables and series checked at their cap, each by an identity computed
another way.

The oracle stops at total 80, but ``table --max`` runs to 200, the box to
100 x 100, the matrix tables to ``--size 500``, ``scheme`` to 400 and
``series --order`` to 1500; these checks read the tables and series there,
and the oracle's count at 80.
"""

import argparse
import math
import random
from itertools import accumulate

import pytest

from partlat import cli, counting, intmatrix, oracle, schemes, series

CAP = 200
BOX_EDGE = BOX_DIM = 100
SIZE_CAP = cli.SIZE.cap
SCHEME_CAP = cli.SCHEME_TOTAL.cap
ORDER_CAP = cli.MAX_SERIES_ORDER


@pytest.fixture(scope="module")
def partition_numbers():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    return tuple(int(numbers.partition(m)) for m in range(CAP + 1))


@pytest.fixture(scope="module")
def odd_even():
    return counting.odd_even_mixed_table(CAP)


@pytest.fixture(scope="module")
def distinct():
    return counting.distinct_table(CAP)


def test_point_rows_are_the_table_rows(odd_even, distinct):
    assert counting.odd_even_mixed(0) == (0, 1, 0, 1)
    assert counting.distinct_row(0) == ((), 0)
    width = len(distinct.cols) - 2
    for m in range(1, CAP + 1):
        assert counting.odd_even_mixed(m) == odd_even.row(m)[-4:], m
        counts, diff = counting.distinct_row(m)
        assert counts + (0,) * (width - len(counts)) + (sum(counts), diff) == distinct.row(m), m


def test_distinct_totals_equal_all_odd_totals(odd_even, distinct):
    """Euler's theorem."""
    assert distinct.column("total") == odd_even.column("odd")


def test_signed_difference_is_minus_the_euler_coefficient(distinct):
    assert distinct.column("difference") == tuple(
        -series.euler_coefficient(m) for m in range(1, CAP + 1))


def test_p_column_is_sympys_partition_number(odd_even, partition_numbers):
    assert odd_even.column("p") == partition_numbers[1:]
    assert all(sum(row[-4:-1]) == row[-1] for row in odd_even.cells)


@pytest.fixture(scope="module")
def parity_counts_at_80(partition_numbers):
    """Each parity's count at total 80: distinct parts from sympy's expanded
    product of the 1 + t^k, as many all-odd (Euler), all-even a partition
    of 40 doubled, and mixed the rest."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    product = sympy.Poly(1, t)
    for k in range(1, 81):
        product *= sympy.Poly(1 + t**k, t)
    distinct = int(product.coeff_monomial(t**80))
    plain, even = partition_numbers[80], partition_numbers[40]
    return {"none": plain, "all-odd": distinct, "all-even": even,
            "mixed": plain - distinct - even, "distinct": distinct}


@pytest.mark.parametrize("parity", oracle.PARITY_CHOICES)
def test_oracle_count_at_its_cap_is_sympys(monkeypatch, parity_counts_at_80, parity):
    def no_walk(*args):
        raise AssertionError("count walked the partitions")

    monkeypatch.setattr(oracle, "_walk", no_walk)
    assert oracle.TOTAL_CAP == 80
    assert oracle.count(oracle.ConstraintRecord(total=80, parity=parity)) == \
        parity_counts_at_80[parity]


@pytest.mark.parametrize("build", (counting.exact_table, counting.unit_diff_table,
                                   counting.layer_table), ids=("exact", "unit-diff", "layers"))
def test_row_sums_are_sympys_partition_numbers(build, partition_numbers):
    table = build(CAP)
    assert table.row_sums == tuple(partition_numbers[m] for m in table.rows)


def test_atmost_last_column_and_diagonal_are_partition_numbers(partition_numbers):
    """At most n parts stops changing once n >= m; its row sums are not p(m)."""
    table = counting.atmost_table(CAP)
    assert table.column(CAP) == partition_numbers
    assert tuple(table.cell(m, m) for m in table.rows) == partition_numbers


def test_neighbor_rows_sum_to_partition_numbers_below(partition_numbers):
    """Row m sums to p(0) + ... + p(m - 2); column 1 (a single part m,
    one unit into a zero slot) is all ones."""
    table = counting.right_hand_neighbor_table(CAP)
    below = tuple(accumulate(partition_numbers))
    assert table.row_sums == tuple(below[m - 2] for m in table.rows)
    assert table.column(1) == (1,) * len(table.rows)


def test_binomial_cells_are_binomial_coefficients():
    table = counting.binomial_table(CAP)
    assert table.cells == tuple(tuple(math.comb(r - 1, k - 1) for k in table.cols)
                                for r in table.rows)


def test_box_columns_are_symmetric_unimodal_and_sum_to_a_binomial():
    table = counting.box_table(BOX_EDGE, BOX_DIM)
    for e in table.cols:
        column = table.column(e)
        top = e * BOX_DIM
        inside, outside = column[:top + 1], column[top + 1:]
        assert inside == inside[::-1] and not any(outside), e
        half = inside[:top // 2 + 1]
        assert list(accumulate(half, max)) == list(half), e
        assert sum(inside) == math.comb(e + BOX_DIM, e), e


def dot(row, vector):
    return sum(x * y for x, y in zip(row, vector))


def freivalds_identity(a, b, seed, rounds=2):
    """Whether a·b is the identity, by a seeded Freivalds test: a·(b·r) = r
    for random integer vectors r, with plain dot products.  A product that
    is not the identity passes one round with probability at most 2^-32."""
    rng = random.Random(seed)
    for _ in range(rounds):
        r = [rng.randrange(-2 ** 31, 2 ** 31) for _ in range(len(b[0]))]
        br = [dot(row, r) for row in b]
        if [dot(row, br) for row in a] != r:
            return False
    return True


def test_freivalds_catches_one_wrong_entry():
    a = intmatrix.exact_parts_matrix(40)
    x = [list(row) for row in intmatrix.invert_unitriangular(a).entries]
    assert freivalds_identity(a.entries, x, seed=0)
    x[31][7] += 1
    assert not freivalds_identity(a.entries, x, seed=0)


@pytest.mark.parametrize("matrix,inverse", (
    (intmatrix.exact_parts_matrix, intmatrix.inverse_exact_parts_matrix),
    (intmatrix.unit_diff_matrix, intmatrix.inverse_unit_diff_matrix),
    (intmatrix.partition_matrix, intmatrix.euler_matrix),
), ids=("inverse-exact", "inverse-unit-diff", "euler"))
def test_matrix_tables_invert_at_the_cap(matrix, inverse):
    a, x = matrix(SIZE_CAP).entries, inverse(SIZE_CAP).entries
    assert len(a) == len(x) == SIZE_CAP
    assert freivalds_identity(a, x, seed=SIZE_CAP)
    assert freivalds_identity(x, a, seed=SIZE_CAP + 1)


def exact_parts_counts(total):
    """Partitions of ``total`` into exactly n parts, n = 1..total, by the
    corrected recurrence p(m, n) = p(m - 1, n - 1) + p(m - n, n): is there a
    part 1, or do all n parts lose a unit?"""
    rows = [[1] + [0] * total]  # rows[m][n], with p(0, 0) = 1
    for m in range(1, total + 1):
        rows.append([0] + [rows[m - 1][n - 1] + rows[m - n][n] for n in range(1, m + 1)]
                    + [0] * (total - m))
    return tuple(rows[total][1:])


def test_scheme_and_its_inverse_at_the_cap():
    """The ``scheme`` table is symmetric under conjugation and counts every
    partition once, its column n counts the partitions with exactly n parts,
    and ``scheme --inverse`` inverts it."""
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    table = schemes.build_scheme(SCHEME_CAP)
    assert table.total == int(numbers.partition(SCHEME_CAP))
    assert table.col_sums == exact_parts_counts(SCHEME_CAP)
    cells = table.cells
    top = SCHEME_CAP - 1
    assert all(cells[top - a][b] == cells[top - b][a] for a in range(SCHEME_CAP)
               for b in range(a))
    inverse = intmatrix.invert_unitriangular(intmatrix.IntMatrix(cells))
    assert freivalds_identity(cells, inverse.entries, seed=SCHEME_CAP)
    assert freivalds_identity(inverse.entries, cells, seed=SCHEME_CAP + 1)


def series_at_the_cap(kind, caps=None):
    args = argparse.Namespace(order=ORDER_CAP, caps=caps)
    return cli.SERIES_KINDS[kind].build(args).coefficients


def test_distinct_times_euler_is_euler_in_t_squared():
    """(1 + t^k)(1 - t^k) = 1 - t^2k, so the distinct series times the Euler
    product is the Euler product read at every second power of t."""
    product = series.TruncatedSeries(series_at_the_cap("distinct")) * series.euler_product(ORDER_CAP)
    euler = series.euler_product(ORDER_CAP // 2).coefficients
    assert product.coefficients == tuple(euler[n // 2] if n % 2 == 0 else 0
                                         for n in range(ORDER_CAP + 1))


def test_distinct_signed_has_the_pentagonal_support():
    """Euler's pentagonal number theorem: (-1)^k at k(3k - 1)/2 for every
    integer k, zero elsewhere."""
    want = [0] * (ORDER_CAP + 1)
    for k in range(-40, 41):
        if k * (3 * k - 1) // 2 <= ORDER_CAP:
            want[k * (3 * k - 1) // 2] = (-1) ** k
    assert series_at_the_cap("distinct-signed") == tuple(want)


@pytest.mark.parametrize("seed", range(3))
def test_capped_is_the_product_of_its_geometric_factors(seed):
    """Each cap (k, c) is the factor 1 + t^k + ... + t^(ck), uncapped for
    c = None; the factors are multiplied one at a time as sparse series."""
    rng = random.Random(seed)
    parts = rng.sample(range(1, 60), 8) + [rng.randrange(ORDER_CAP // 2, ORDER_CAP + 200)]
    caps = [(k, rng.choice((None, 0, 1, 2, 5, 40))) for k in parts]
    text = ",".join(f"{k}:{'*' if c is None else c}" for k, c in caps)
    want = series.TruncatedSeries.one(ORDER_CAP)
    for k, c in caps:
        top = ORDER_CAP if c is None else c * k
        want = want * series.TruncatedSeries(tuple(int(n % k == 0 and n <= top)
                                                   for n in range(ORDER_CAP + 1)))
    assert series_at_the_cap("capped", text) == want.coefficients
