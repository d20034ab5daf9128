"""Partition schemes: exact-frame counts laid out by largest part and
number of nonzero parts.

Rows run from the largest part downwards, so the scheme is symmetric about
its transversal (conjugation swaps the two axes) and, read as a matrix,
lower unitriangular, hence exactly invertible.
"""

from __future__ import annotations

from .counting import _box_columns
from .partitions import require_ints
from .tables import CountTable


def build_scheme(total: int) -> CountTable:
    """Scheme table of ``total``: rows m1 = total..1, columns n = 1..total;
    the cell counts partitions with largest part m1 and exactly n parts.

    Largest part a + 1 and b + 1 parts leave top - b units, top = total - 1 - a,
    for the interior a x b box; G(a, b) = G(b, a) fills cells (a, b) and (b, a)."""
    require_ints("total", total, low=1)
    cells = [[0] * total for _ in range(total)]
    for a in range(total):
        top = total - 1 - a
        for b, column in enumerate(_box_columns(a, min(a, top), top)):
            cells[a][b] = cells[b][a] = column[top - b]
    return CountTable("scheme", "m1", "n", tuple(range(total, 0, -1)),
                      tuple(range(1, total + 1)), tuple(map(tuple, reversed(cells))))
