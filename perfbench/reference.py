"""Independent reference values for the benchmark's output checks.

Nothing here imports partlat.  Partition numbers come from sympy's
Hardy-Ramanujan-Rademacher implementation (computed in run.py and
handed to the worker); every other count is a generating-function product
evaluated bottom-up, which shares no code and no recurrence with partlat's
memoized recursions.
"""

from __future__ import annotations

import math
import random


def sympy_partition_numbers(limit: int) -> list[int]:
    """p(0..limit) by Hardy-Ramanujan-Rademacher (sympy)."""
    from sympy.functions.combinatorial.numbers import partition

    return [int(partition(n)) for n in range(limit + 1)]


def pentagonal_sign(n: int) -> int:
    """Coefficient of t^n in prod_k (1 - t^k), from Euler's pentagonal
    number theorem: (-1)^k at n = k(3k -+ 1)/2, else 0."""
    if n < 0:
        return 0
    # 24n + 1 = (6k -+ 1)^2 exactly at the generalized pentagonal numbers.
    root = math.isqrt(24 * n + 1)
    if root * root != 24 * n + 1 or root % 6 not in (1, 5):
        return 0
    k = (root + 1) // 6 if root % 6 == 5 else (root - 1) // 6
    return -1 if k % 2 else 1


def box_coefficients(max_part: int, max_parts: int, top: int) -> list[int]:
    """Coefficients 0..top of the Gaussian binomial
    prod_{k=1..max_parts} (1 - t^(max_part+k)) / (1 - t^k): partitions with
    at most ``max_parts`` parts, each at most ``max_part``."""
    c = [1] + [0] * top
    for k in range(1, max_parts + 1):
        d = max_part + k
        for i in range(top, d - 1, -1):
            c[i] -= c[i - d]
        for i in range(k, top + 1):
            c[i] += c[i - k]
    return c


def atmost_coefficients(max_parts: int, top: int) -> list[int]:
    """Partitions of 0..top into at most ``max_parts`` parts:
    prod_{k=1..max_parts} 1 / (1 - t^k)."""
    c = [1] + [0] * top
    for k in range(1, max_parts + 1):
        for i in range(k, top + 1):
            c[i] += c[i - k]
    return c


def parts_from_coefficients(parts: list[int] | range, top: int) -> list[int]:
    """prod over the given part values of 1 / (1 - t^part), to order top."""
    c = [1] + [0] * top
    for k in parts:
        for i in range(k, top + 1):
            c[i] += c[i - k]
    return c


def box(max_part: int, max_parts: int, total: int) -> int:
    if total < 0:
        return 0
    return box_coefficients(max_part, max_parts, total)[total]


def exact(total: int, parts: int) -> int:
    """Partitions of ``total`` into exactly ``parts`` parts: remove one unit
    from each part, leaving at most ``parts`` parts of total - parts."""
    if parts == 0:
        return 1 if total == 0 else 0
    if parts < 0 or total < parts:
        return 0
    return atmost_coefficients(parts, total - parts)[total - parts]


def exact_grid(top: int) -> list[list[int]]:
    """exact(m, n) for 0 <= m, n <= top, built column by column."""
    grid = [[0] * (top + 1) for _ in range(top + 1)]
    grid[0][0] = 1
    c = [1] + [0] * top  # at most n parts, updated as n grows
    for n in range(1, top + 1):
        for i in range(n, top + 1):
            c[i] += c[i - n]
        for m in range(n, top + 1):
            grid[m][n] = c[m - n]
    return grid


def exact_frame(largest: int, parts: int, total: int) -> int:
    if largest == 0 or parts == 0:
        return 1 if largest == parts == total == 0 else 0
    return box(largest - 1, parts - 1, total - largest - parts + 1)


def layer_count(total: int, layer: int) -> int:
    """Partitions of ``total`` whose interior (Ferrers graph minus its first
    row and column) holds layer - 1 cells: sum over the first-row length r of
    interiors inside the (r-1) x (frame-r) box."""
    if layer < 1 or layer > total:
        return 0
    frame = total - layer + 1
    return sum(box(r - 1, frame - r, layer - 1) for r in range(1, frame + 1))


def distinct(total: int, parts: int) -> int:
    """Distinct parts: subtract the staircase 0, 1, ..., parts-1."""
    if parts == 0:
        return 1 if total == 0 else 0
    return exact(total - parts * (parts - 1) // 2, parts)


def odd_part_series(top: int) -> list[int]:
    """Partitions into odd parts, which by Euler's theorem equal partitions
    into distinct parts."""
    return parts_from_coefficients(range(1, top + 1, 2), top)


class Reference:
    """Reference values that need the sympy partition numbers."""

    def __init__(self, partition_numbers: list[int]):
        self.pn = partition_numbers

    def p(self, n: int) -> int:
        if n < 0:
            return 0
        if n >= len(self.pn):
            raise ValueError(f"no reference partition number for {n}")
        return self.pn[n]

    def unit_diff(self, total: int, units: int) -> int:
        if units < 0 or units > total:
            return 0
        return self.p(total - units) - self.p(total - units - 1)


def convolve_at(a: tuple[int, ...], b: tuple[int, ...], n: int) -> int:
    return sum(a[i] * b[n - i] for i in range(n + 1) if a[i])


def is_identity_product(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a * b == 1 up to the common truncation order, term by term."""
    top = min(len(a), len(b)) - 1
    return all(convolve_at(a, b, n) == (1 if n == 0 else 0) for n in range(top + 1))


def mat_vec(rows, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v) if x) for row in rows]


def freivalds_inverse(matrix, inverse, rng: random.Random, rounds: int = 2) -> bool:
    """Randomized exact test of matrix @ inverse == I: for random integer
    vectors v, matrix @ (inverse @ v) must give back v."""
    n = len(matrix)
    for _ in range(rounds):
        v = [rng.randint(-9, 9) for _ in range(n)]
        if mat_vec(matrix, mat_vec(inverse, v)) != v:
            return False
    return True
