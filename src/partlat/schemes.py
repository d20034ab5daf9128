"""Partition schemes: exact-frame counts laid out by largest part and
number of nonzero parts.

Rows run from the largest part downwards, so the scheme is symmetric about
its transversal (conjugation swaps the two axes) and, read as a matrix,
lower unitriangular, hence exactly invertible.
"""

from __future__ import annotations

from . import counting
from .tables import CountTable


def build_scheme(total: int) -> CountTable:
    """Scheme table of ``total``: rows m1 = total..1, columns n = 1..total;
    the cell counts partitions with largest part m1 and exactly n parts."""
    if total < 1:
        raise ValueError("total must be >= 1")
    # Largest part a + 1 and b + 1 parts leave total - a - b - 1 units for
    # the interior box a x b: one kernel sweep per largest part.
    cells = [[0] * total for _ in range(total)]
    for a, b, column in counting._frame_interiors(total, total - 1):
        cells[a][b] = column[total - 1 - a - b]
    return CountTable("scheme", "m1", "n", tuple(range(total, 0, -1)),
                      tuple(range(1, total + 1)), tuple(map(tuple, reversed(cells))))
