"""CLI tables checked at their cap, each by an identity computed another way.

The oracle stops at total 80, but ``table --max`` runs to 200; these checks
read the tables there.
"""

import pytest

from partlat import counting, series

CAP = 200


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


def test_p_column_is_sympys_partition_number(odd_even):
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    assert odd_even.column("p") == tuple(int(numbers.partition(m)) for m in range(1, CAP + 1))
    assert all(sum(row[-4:-1]) == row[-1] for row in odd_even.cells)
