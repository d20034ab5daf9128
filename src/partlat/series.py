"""Truncated formal power series with exact integer coefficients.

All series are finite coefficient vectors c_0..c_T for an explicit
truncation order T; arithmetic never reads past T, and operations on
mismatched orders truncate to the smaller one.

Products of binomial and geometric factors are expanded in place by two
moves on a coefficient list, each a few C-level slice operations:
multiplying by 1 -/+ t^k (:func:`_times_binomial`) and dividing by 1 - t^k
(:func:`_divide_one_minus`), as in the Gaussian-polynomial kernel of
:mod:`partlat.counting` (Andrews, *The Theory of Partitions*, ch. 3).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import Sequence

from .partitions import require_ints


def _times_binomial(c: list[int], k: int, sign: int = -1) -> None:
    """Multiply the coefficient list ``c`` in place by 1 + sign * t^k
    (sign -1 or +1, k >= 1), truncated at its length: one slice operation."""
    if k < len(c):  # the map reads old terms: it runs before the store
        c[k:] = map(add if sign > 0 else sub, c[k:], c)


def _divide_one_minus(c: list[int], k: int) -> None:
    """Divide the coefficient list ``c`` in place by 1 - t^k (k >= 1),
    truncated at its length: running sums with stride k, in at most
    sqrt(len(c)) slice operations."""
    n = len(c)
    if k * k < n:  # few residue classes: sum each one
        for r in range(k):
            c[r::k] = accumulate(c[r::k])
    else:  # few blocks of k: add each finished block to the next
        for start in range(k, n, k):
            c[start:start + k] = map(add, c[start:start + k], c[start - k:start])


def _nonzero(coefficients: Sequence[int], order: int) -> list[tuple[int, int]]:
    """The (index, coefficient) pairs with a nonzero coefficient up to
    ``order``, by increasing index."""
    return [(i, c) for i, c in enumerate(coefficients[: order + 1]) if c]


@dataclass(frozen=True)
class TruncatedSeries:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        require_ints("coefficients", *self.coefficients)
        if not self.coefficients:
            raise ValueError("a series carries at least the constant term")

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        require_ints("order", order, low=0)
        return cls((1,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product truncated to the smaller order.

        Only nonzero terms are multiplied, the sparser operand in the outer
        loop, so the cost grows with the product of the two nonzero counts:
        O(T * nnz) for a binomial or geometric factor.
        """
        T = min(self.order, other.order)
        a, b = _nonzero(self.coefficients, T), _nonzero(other.coefficients, T)
        if len(a) > len(b):
            a, b = b, a
        b_index = [j for j, _ in b]
        out = [0] * (T + 1)
        for i, x in a:
            for j, y in b[: bisect_right(b_index, T - i)]:
                out[i + j] += x * y
        return TruncatedSeries(tuple(out))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order.

        Needs a unit constant term (+1 or -1) so the inverse stays integral.
        Each coefficient sums over the nonzero terms of ``self`` only, so the
        cost is O(T * nnz): O(T^1.5) for the Euler product.
        """
        c0 = self.coefficients[0]
        if c0 not in (1, -1):
            raise ValueError(f"constant term {c0} is not a unit")
        T = self.order
        terms = _nonzero(self.coefficients, T)[1:]
        inv = [0] * (T + 1)
        inv[0] = c0
        for n in range(1, T + 1):
            s = 0
            for k, c in terms:
                if k > n:
                    break
                s += c * inv[n - k]
            inv[n] = -c0 * s
        return TruncatedSeries(tuple(inv))


def _alternating_product(order: int, sign: int) -> TruncatedSeries:
    """(1 + sign*t)(1 + sign*t^2)...(1 + sign*t^order), truncated, expanded
    factor by factor in one list: O(order^2) element operations."""
    require_ints("order", order, low=0)
    c = [1] + [0] * order
    for k in range(1, order + 1):
        _times_binomial(c, k, sign)
    return TruncatedSeries(tuple(c))


def euler_product(order: int) -> TruncatedSeries:
    """(1 - t)(1 - t^2)...(1 - t^order), truncated.

    The nonzero coefficients sit on the generalized pentagonal numbers with
    signs (-1)^k; that emerges from the factor-by-factor expansion here
    rather than being assumed.
    """
    return _alternating_product(order, -1)


def euler_coefficient(n: int) -> int:
    """Coefficient of t^n in the Euler product (values in {-1, 0, 1})."""
    require_ints("n", n, low=0)
    return euler_product(n)[n]


def pentagonal_pairs(count: int) -> list[tuple[int, int]]:
    """The first ``count`` pairs (k(3k-1)/2, k(3k+1)/2), k = 1, 2, ..."""
    require_ints("count", count)
    return [(k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) for k in range(1, count + 1)]


def partition_series(order: int) -> TruncatedSeries:
    """Inverse of the Euler product: coefficient of t^M is the number of
    partitions of M."""
    return euler_product(order).invert()


def distinct_series(order: int) -> TruncatedSeries:
    """Product over parts k of (1 + t^k): the coefficient of t^M counts
    distinct-part partitions of M.  With signs, (1 - t^k), the product is
    :func:`euler_product`, whose coefficient is the even-minus-odd
    part-count difference of those partitions."""
    return _alternating_product(order, 1)


def box_caps(max_part: int, max_parts: int) -> list[tuple[int, int]] | None:
    """Caps whose product generates the (max_part x max_parts) box counts,
    when such caps exist.

    The box polynomial is prod_k (1 - t^(max_part+k)) / (1 - t^k) over
    k = 1..max_parts; it splits into geometric blocks exactly when the
    numerator exponents can be matched bijectively to the denominator ones
    by divisibility.  Most small boxes split (3 x 3 needs caps 1:4, 2:1,
    3:1) but some do not: the 4 x 3 polynomial has value 35 = 5 * 7 at t=1
    and degree 12, which no product of geometric blocks achieves.
    """
    if max_parts < 0:
        return None
    # Bipartite matching by shortest augmenting paths, without recursion:
    # k runs down from max_parts.  Each k searches breadth first, every k it
    # reaches scanning the numerators it divides in increasing order, until
    # one is free; then each k along the path takes over the numerator that
    # reached it.  One search reaches each numerator once, so the cost is
    # polynomial in max_parts.
    top = max_part + max_parts
    owner: dict[int, int] = {}  # numerator -> the k it is matched to
    numerator: dict[int, int] = {}  # the inverse
    for k in range(max_parts, 0, -1):
        came: dict[int, int] = {}  # numerator -> the k whose scan reached it
        queue = [k]
        for j in queue:
            reached = [v for v in range((max_part + j) // j * j, top + 1, j) if v not in came]
            came.update((v, j) for v in reached)
            free = next((v for v in reached if v not in owner), None)
            if free is not None:
                break
            queue.extend(owner[v] for v in reached)
        else:
            return None
        v = free
        while v is not None:
            j = came[v]
            held = numerator.get(j)
            owner[v], numerator[j] = j, v
            v = held
    return [(k, numerator[k] // k - 1) for k in range(1, max_parts + 1)]


def capped_product(caps: Sequence[tuple[int, int | None]], order: int) -> TruncatedSeries:
    """Product over (part value k, max repetitions c) of
    1 + t^k + ... + t^(c*k); c = None means uncapped within the truncation.

    With caps (k, bound) for k = 1..n this generates box-restricted counts.
    Every cap is checked; a part value above the order changes nothing.  A
    factor is (1 - t^((c+1)k)) / (1 - t^k), expanded in place: one
    multiplication, skipped when (c+1)k is past the order, and one division.
    """
    require_ints("order", order, low=0)
    seen = set()
    terms = [1] + [0] * order
    for k, c in caps:
        require_ints("part value", k)
        if k < 1:
            raise ValueError(f"part value {k} must be >= 1")
        if k in seen:
            raise ValueError(f"duplicate part value {k}")
        seen.add(k)
        if c is not None:
            require_ints("cap", c)
            if c < 0:
                raise ValueError(f"cap {c} must be >= 0")
        if k <= order:
            if c is not None:
                _times_binomial(terms, (c + 1) * k)
            _divide_one_minus(terms, k)
    return TruncatedSeries(tuple(terms))
