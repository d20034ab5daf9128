"""Partition counts and classification tables from one polynomial kernel.

Every restricted count is a coefficient of a Gaussian polynomial
G(a, b) = prod_{k=1..b} (1 - t^(a+k)) / (1 - t^k), which counts partitions
inside an a x b box (Andrews, *The Theory of Partitions*, ch. 3), built by
:func:`_box_columns`, the one kernel sweep; tables take whole columns from
one sweep, the binomial table from the box recurrence summed over totals.
``p`` uses the pentagonal-number recurrence instead, so the two
constructions check each other.  Nothing recurses, walks a lattice or uses
the oracle.

The printed exactly-N-parts recurrence needs second term p_exact(M - N, N),
not M - N - 1, and the printed box recurrence double counts where the split
p_box(m, n-1, M) + p_box(m-1, n, M-n) (are all n slots nonzero?) does not
(see :mod:`partlat.errata`); the tests check both as kernel identities.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat, zip_longest
from operator import add, lshift, sub
from typing import Iterable, Iterator

from .partitions import Partition, require_ints
from .series import _divide_one_minus, _times_binomial, pentagonal_pairs
from .tables import CountTable, column_table


def _box_columns(a: int, b: int, order: int) -> Iterator[tuple[int, ...]]:
    """Yield t^0..t^order of G(a, 0), ..., G(a, b): partitions with parts
    <= a and at most k parts, k = 0..b (a, b, order >= 0).  Step k multiplies
    by 1 - t^(a+k), then divides by 1 - t^k, each move a few slice
    operations (the two kernels of :mod:`partlat.series`)."""
    column = [1] + [0] * order
    yield tuple(column)
    for k in range(1, b + 1):
        _times_binomial(column, a + k)
        _divide_one_minus(column, k)
        yield tuple(column)


def _partition_numbers(order: int) -> list[int]:
    """p(0), ..., p(order) by the pentagonal-number recurrence, filled
    bottom-up (empty for a negative order)."""
    pentagonal = [(g, 1 if k % 2 == 1 else -1)
                  for k, pair in enumerate(pentagonal_pairs(order), start=1)
                  for g in pair if g <= order]
    numbers = [1] if order >= 0 else []
    for n in range(1, order + 1):
        numbers.append(sum(sign * numbers[n - g] for g, sign in pentagonal if g <= n))
    return numbers


# -- base counts ---------------------------------------------------------

def p(total: int) -> int:
    """Unrestricted partition count, by the pentagonal-number recurrence."""
    require_ints("total", total)
    return _partition_numbers(total)[total] if total >= 0 else 0


def p_box(max_part: int, max_parts: int, total: int) -> int:
    """Partitions of ``total`` with parts <= max_part and at most
    ``max_parts`` of them (orbits inside a box); none if a bound is
    negative."""
    require_ints("max_part", max_part)
    require_ints("max_parts", max_parts)
    require_ints("total", total)
    if min(max_part, max_parts, total) < 0:
        return 0
    # Bounds above total change nothing; G(a, b) = G(b, a): sweep the short side.
    short, wide = sorted((min(max_part, total), min(max_parts, total)))
    for column in _box_columns(wide, short, total):
        pass
    return column[total]


def p_atmost(total: int, parts: int) -> int:
    """Partitions of ``total`` into at most ``parts`` parts.

    Stabilizes at p(total) once ``parts >= total``: adding more zero slots
    changes nothing.
    """
    require_ints("total", total)
    require_ints("parts", parts)
    return p_box(total, parts, total)


def p_exact(total: int, parts: int) -> int:
    """Partitions of ``total`` into exactly ``parts`` positive parts: strip
    one unit from each part to get at most ``parts`` parts of the rest."""
    require_ints("total", total)
    require_ints("parts", parts)
    return p_atmost(total - parts, parts)


def p_row_sum(total: int) -> int:
    """Unrestricted partition count as a sum over exact part counts."""
    require_ints("total", total)
    if total < 0:
        return 0
    return sum(column[total - n] for n, column in enumerate(_box_columns(total, total, total)))


def exact_frame(largest: int, parts: int, total: int) -> int:
    """Partitions of ``total`` with largest part exactly ``largest`` and
    exactly ``parts`` parts.

    The hook (first row plus first column) eats largest+parts-1 units; the
    rest is free inside the (largest-1) x (parts-1) box.
    """
    require_ints("largest", largest)
    require_ints("parts", parts)
    require_ints("total", total)
    if largest <= 0 or parts <= 0:
        return 1 if largest == 0 and parts == 0 and total == 0 else 0
    return p_box(largest - 1, parts - 1, total - largest - parts + 1)


def p_min_part(total: int, parts: int, min_part: int) -> int:
    """Partitions of ``total`` into exactly ``parts`` parts, each >= min_part.

    Shifting every part by 1 - min_part is a bijection onto ordinary
    partitions into exactly ``parts`` positive parts, for any integer
    ``min_part`` (negative bases included).
    """
    require_ints("total", total)
    require_ints("parts", parts)
    require_ints("min_part", min_part)
    if parts < 0:
        return 0
    return p_exact(total - parts * (min_part - 1), parts)


# -- parity and distinct parts -------------------------------------------

def odd_even_mixed(total: int) -> tuple[int, int, int, int]:
    """(all-odd, all-even, mixed, total) partition counts."""
    require_ints("total", total)
    if total < 1:
        return (0, 1, 0, 1) if total == 0 else (0, 0, 0, 0)
    return next(_odd_even_mixed_rows(total, (total,)))[-4:]


def odd_even_mixed_table(max_total: int) -> CountTable:
    """All-odd counts by part count, with odd/even/mixed/p sums."""
    require_ints("max_total", max_total)
    cols: list = list(range(1, max_total + 1)) + ["odd", "even", "mixed", "p"]
    cells = tuple(_odd_even_mixed_rows(max_total, range(1, max_total + 1)))
    return CountTable("odd-even-mixed", "m", "n", tuple(range(1, max_total + 1)),
                      tuple(cols), cells, show_sums=False)


def _odd_even_mixed_rows(max_total: int, totals: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The odd-even-mixed table's rows m in ``totals`` (1 <= m <= max_total).
    Adding 1 to each of j odd parts of m and halving leaves at most j parts
    of (m - j) / 2, so every row comes from one sweep."""
    columns = list(_box_columns(max_total, max_total, max_total // 2))
    numbers = _partition_numbers(max_total)
    for m in totals:
        odd = tuple(columns[j][(m - j) // 2] if j <= m and (m - j) % 2 == 0 else 0
                    for j in range(1, max_total + 1))
        even = numbers[m // 2] if m % 2 == 0 else 0
        yield odd + (sum(odd), even, numbers[m] - sum(odd) - even, numbers[m])


def distinct_exact(total: int, parts: int) -> int:
    """Partitions of ``total`` into exactly ``parts`` distinct parts:
    removing the staircase parts, parts-1, ..., 1 leaves at most ``parts``
    parts."""
    require_ints("total", total)
    require_ints("parts", parts)
    return p_atmost(total - parts * (parts + 1) // 2, parts)


def distinct_row(total: int) -> tuple[tuple[int, ...], int]:
    """Distinct-part counts of ``total`` by part count, and the signed
    difference (#odd part counts) - (#even part counts)."""
    require_ints("total", total)
    if total < 1:
        return (), 0
    row = next(_distinct_rows(total, (total,)))
    return row[:-2], row[-1]


def distinct_table(max_total: int) -> CountTable:
    require_ints("max_total", max_total)
    cells = tuple(_distinct_rows(max_total, range(1, max_total + 1)))
    width = len(cells[-1]) - 2 if cells else 0
    cols: list = list(range(1, width + 1)) + ["total", "difference"]
    return CountTable("distinct", "m", "n", tuple(range(1, max_total + 1)),
                      tuple(cols), cells, show_sums=False)


def _distinct_rows(max_total: int, totals: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The distinct table's rows m in ``totals`` (1 <= m <= max_total): the
    counts by part count, their total and the signed difference, from one
    sweep.  k distinct parts need 1 + 2 + ... + k = k(k + 1)/2 units."""
    kmax = (math.isqrt(8 * max(max_total, 0) + 1) - 1) // 2
    columns = list(_box_columns(max_total, kmax, max_total))
    for m in totals:
        counts = tuple(columns[k][m - k * (k + 1) // 2] if k * (k + 1) // 2 <= m else 0
                       for k in range(1, kmax + 1))
        diff = sum(c if k % 2 == 1 else -c for k, c in enumerate(counts, start=1))
        yield counts + (sum(counts), diff)


# -- unit-part differences -------------------------------------------------

def unit_diff_column(order: int) -> tuple[int, ...]:
    """p(m) - p(m - 1) for m = 0..order: the partitions of m with no part
    equal to 1 (empty for a negative order)."""
    require_ints("order", order)
    numbers = _partition_numbers(order)
    return tuple(map(sub, numbers, [0] + numbers))


def unit_diff_cell(total: int, units: int) -> int:
    """Partitions of ``total`` with exactly ``units`` parts equal to 1:
    remove them and forbid any further 1, p(rest) - p(rest - 1)."""
    require_ints("total", total)
    require_ints("units", units)
    if units < 0 or units > total:
        return 0
    return unit_diff_column(total - units)[-1]


def unit_diff_table(max_total: int) -> CountTable:
    require_ints("max_total", max_total)
    column = unit_diff_column(max_total)
    return column_table("unit-diff", "m", "n", range(max_total + 1), range(max_total + 1),
                        ((0,) * n + column for n in range(max_total + 1)))


# -- trapezoid blocks ------------------------------------------------------

def franklin_trapezoids(k: int) -> tuple[Partition, Partition]:
    """The two minimal k-row trapezoids with consecutive parts differing by
    one; their sizes are the generalized pentagonal pair
    (k(3k-1)/2, k(3k+1)/2)."""
    require_ints("k", k, low=1)
    first = Partition(tuple(range(2 * k - 1, k - 1, -1)))
    second = Partition(tuple(range(2 * k, k, -1)))
    return first, second


# -- neighbor counts --------------------------------------------------------

def neighbor_total(total: int) -> int:
    """Number of one-unit exchange edges that increase the nonzero part
    count, summed over all partitions of ``total``: equals
    p(0) + p(1) + ... + p(total - 2)."""
    require_ints("total", total)
    return sum(_partition_numbers(total - 2))


def right_hand_neighbor_table(max_total: int) -> CountTable:
    """Edge counts between adjacent part-count columns of the one-unit
    exchange lattice, per total m = 2..max_total.  An edge from n to n + 1
    nonzero parts moves a unit from a part x >= 2 into a zero slot, and
    removing one copy of x leaves a partition of m - x into n - 1 parts:
    cell (m, n) sums p_exact(j, n - 1) over j = 0..m-2, a running sum down
    the exact table's column n - 1."""
    require_ints("max_total", max_total, low=2)
    top = max_total - 2
    return column_table("neighbors", "m", "n", range(2, max_total + 1), range(1, max_total),
                        (accumulate((0,) * n + column)
                         for n, column in enumerate(_box_columns(top, top, top))))


# -- hook layers -------------------------------------------------------------

def layer_count(total: int, layer: int) -> int:
    """Partitions of ``total`` in the given layer (1 + interior size): the
    hook frame holds total - layer + 1 units and the interior layer - 1, so
    sum over the first-row length r of the interior counts inside the
    (r-1) x (frame-r) box."""
    require_ints("total", total)
    require_ints("layer", layer)
    if layer < 1 or layer > total:
        return 0
    frame = total - layer + 1
    return sum(p_box(r - 1, frame - r, layer - 1) for r in range(1, frame + 1))


def layer_table(max_total: int) -> CountTable:
    require_ints("max_total", max_total, low=1)
    # hooks[f][t] = layer_count(f + t, t + 1) for every frame and interior
    # that fit in a total up to max_total: t <= max_total - f.  G(a, b) =
    # G(b, a), so a sweep over b <= a adds box (a, b) twice when a != b.
    hooks = [[0] * max_total for _ in range(max_total + 1)]
    for a in range(max_total):
        top = max_total - 1 - a
        for b, column in enumerate(_box_columns(a, min(a, top), top)):
            pair = map(lshift, column[:top - b + 1], repeat(a != b))
            hooks[a + b + 1] = list(map(add, hooks[a + b + 1], pair))
    return column_table("layers", "n", "k",
                        range(1, max_total + 1), range(1, _layer_width(max_total) + 1),
                        ((0,) * t + by_frame
                         for t, by_frame in enumerate(zip_longest(*hooks[1:], fillvalue=0))))


def _layer_width(max_total: int) -> int:
    """The last nonzero column of the layer table up to ``max_total`` >= 1.
    Layer k of n needs an interior of k - 1 units inside an a x (n - k - a)
    box, which holds at most (n - k)^2 / 4 units, and n = max_total admits
    the most: the largest k with 4(k - 1) <= (max_total - k)^2, that is
    k <= max_total + 2 - 2 sqrt(max_total)."""
    return max_total + 1 - math.isqrt(4 * max_total - 1)


def diagonal_sum(frame: int) -> int:
    """Total number of partitions (of any size) with the given hook frame:
    its hook layers summed over every interior size up to (frame-1)^2 / 4,
    that is, the whole a x (frame - 1 - a) interior box of each first row
    a + 1: the last column of one kernel sweep each.

    The source states diagonal_sum(frame) == 2**(frame-1) as a conjecture;
    it follows from the binomial rows: frame d holds C(d-1, a) partitions
    in each a x (d-1-a) interior box (see :func:`binomial_row`), and these
    sum to 2**(d-1)."""
    require_ints("frame", frame, low=1)
    total = 0
    for a in range(frame):
        for column in _box_columns(a, frame - 1 - a, (frame - 1) ** 2 // 4):
            pass
        total += sum(column)
    return total


def binomial_row(size: int) -> tuple[int, ...]:
    """For hook frame ``size``, the partition counts by largest part k
    (largest exactly k, exactly size-k+1 parts, any total).  These come out
    as the binomial coefficients C(size-1, k-1)."""
    require_ints("size", size, low=1)
    return binomial_table(size).row(size)


def binomial_table(max_size: int) -> CountTable:
    """Row r, column k: every partition inside the interior box (k-1) x (r-k),
    of any total.  Summed over totals, the corrected box recurrence (are
    all b slots nonzero?) reads B(a, b) = B(a, b-1) + B(a-1, b), with
    B(0, b) = B(a, 0) = 1."""
    require_ints("max_size", max_size)
    # Row a of B holds the running sums of row a - 1 along b.
    boxes = accumulate(range(1, max_size), lambda box, _: tuple(accumulate(box)),
                       initial=(1,) * max_size)
    return column_table("binomial", "r", "k", range(1, max_size + 1), range(1, max_size + 1),
                        ((0,) * a + box for a, box in enumerate(boxes)))


# -- the classic table pair ---------------------------------------------------

def exact_table(max_total: int) -> CountTable:
    require_ints("max_total", max_total)
    columns = _box_columns(max_total, max_total, max_total)
    return column_table("exact", "m", "n", range(max_total + 1), range(max_total + 1),
                        ((0,) * n + column for n, column in enumerate(columns)))


def atmost_table(max_total: int) -> CountTable:
    require_ints("max_total", max_total)
    return column_table("atmost", "m", "n", range(max_total + 1), range(max_total + 1),
                        _box_columns(max_total, max_total, max_total), show_sums=False)


def box_table(edge: int, dim: int) -> CountTable:
    """Counts of partitions in cubes: rows are totals, columns edge sizes
    0..edge, each column counting inside the (e x dim) box."""
    require_ints("edge", edge)
    require_ints("dim", dim)
    return column_table("box", "m", "edge", range(edge * dim + 1), range(edge + 1),
                        _box_columns(dim, edge, edge * dim) if dim >= 0 else (), show_sums=False)
