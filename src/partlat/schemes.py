"""Partition schemes: exact-frame counts laid out by largest part and
number of nonzero parts.

Rows run from the largest part downwards, so the scheme is symmetric about
its transversal (conjugation swaps the two axes) and, read as a matrix,
lower unitriangular, hence exactly invertible.
"""

from __future__ import annotations

from .series import _divide_one_minus, _times_binomial
from .tables import CountTable


def build_scheme(total: int) -> CountTable:
    """Scheme table of ``total``: rows m1 = total..1, columns n = 1..total;
    the cell counts partitions with largest part m1 and exactly n parts.

    Largest part a + 1 and b + 1 parts leave total - 1 - a - b units for the
    interior a x b box, so each largest part is one sweep of the box kernel
    G(a, 0), G(a, 1), ... that reads one coefficient per step, each lower
    than the last.  A term only feeds higher ones, so the sweep drops the
    term it has just read: about total^3 / 6 element operations in all."""
    if total < 1:
        raise ValueError("total must be >= 1")
    cells = [[0] * total for _ in range(total)]
    for a in range(total):
        column = [1] + [0] * (total - 1 - a)  # G(a, 0) up to t^(total-1-a)
        for b in range(total - a):
            if b:
                _times_binomial(column, a + b)
                _divide_one_minus(column, b)
            cells[a][b] = column.pop()
    return CountTable("scheme", "m1", "n", tuple(range(total, 0, -1)),
                      tuple(range(1, total + 1)), tuple(map(tuple, reversed(cells))))
