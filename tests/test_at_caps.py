"""CLI tables checked at their cap, each by an identity computed another way.

The oracle stops at total 80, but ``table --max`` runs to 200 and the box to
100 x 100; these checks read the tables there.
"""

import math
from itertools import accumulate

import pytest

from partlat import counting, series

CAP = 200
BOX_EDGE = BOX_DIM = 100


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
