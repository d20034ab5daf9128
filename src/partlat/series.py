"""Truncated formal power series with exact integer coefficients.

All series are finite coefficient vectors c_0..c_T for an explicit
truncation order T; arithmetic never reads past T, and operations on
mismatched orders truncate to the smaller one.

Products of binomial and geometric factors are expanded in place by two
moves on a coefficient list, each a few C-level slice operations:
multiplying by 1 -/+ t^k (:func:`_times_binomial`) and dividing by 1 - t^k
(:func:`_divide_one_minus`), as in the Gaussian-polynomial kernel of
:mod:`partlat.counting` (Andrews, *The Theory of Partitions*, ch. 3).

Series products and the matrix rows of :mod:`partlat.intmatrix` share one
packed-integer kernel (:class:`_Slots`, Kronecker substitution): a list
packed as P = sum_j x_j·2^(W·j) is its series at t = 2^W, so one C-level
bigint product packs the product of two lists, and a sum of packed rows
packs their sum.  Reading the W-bit slots back is exact when every entry has
|x| < 2^(W−1); each caller takes W from a bound proved before the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add, and_, lshift, rshift, sub
from struct import Struct
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


# -- the packed-integer kernel --------------------------------------------------

_WORD = 64
_WORD_MASK = (1 << _WORD) - 1


def _slot_width(bound: int) -> int:
    """The least multiple of 64 bits W with bound < 2^(W−1): signed W-bit
    slots then hold every entry of absolute value at most ``bound``."""
    return _WORD * (bound.bit_length() // _WORD + 1)


def _peak(row: Sequence[int]) -> int:
    return max(map(abs, row)) if row else 0


class _Slots:
    """Rows of ``count`` ints, each entry in a signed ``width``-bit slot of
    one packed int.  A slot is read as 64-bit little-endian words, the top
    one signed, so the layout does not depend on the host's byte order.

    ``offset`` holds 2^(W−1) in every slot.  Adding it to a packed row makes
    every slot x + 2^(W−1), in 0..2^W − 1, so no slot borrows from the next;
    XOR with it then flips each slot's top bit, which leaves x in W-bit
    two's complement.  Packing runs the same two steps backwards."""

    def __init__(self, count: int, width: int):
        self.words = width // _WORD
        self.offset = ((1 << width * count) - 1) // ((1 << width) - 1) << (width - 1)
        self.struct = Struct("<" + ("Q" * (self.words - 1) + "q") * count)

    def pack(self, row: Sequence[int]) -> int:
        top = self.words - 1
        if top:
            low = [map(and_, map(rshift, row, repeat(_WORD * t)), repeat(_WORD_MASK))
                   for t in range(top)]
            row = chain.from_iterable(zip(*low, map(rshift, row, repeat(_WORD * top))))
        return (int.from_bytes(self.struct.pack(*row), "little") ^ self.offset) - self.offset

    def unpack(self, packed: int) -> tuple[int, ...]:
        fields = self.struct.unpack(
            ((packed + self.offset) ^ self.offset).to_bytes(self.struct.size, "little"))
        w = self.words
        row = fields[w - 1::w]
        for t in range(w - 2, -1, -1):
            row = map(add, map(lshift, row, repeat(_WORD)), fields[t::w])
        return tuple(row)


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
        """Product truncated to the smaller order T, as one product of packed
        ints: both operands are padded to 2T + 1 slots, so no coefficient of
        the full product, of degree at most 2T, wraps into another.  Each of
        those is a sum of at most T + 1 products, so it is at most
        (T + 1)·max|a|·max|b| in absolute value; the slots also hold the
        operands' own entries, which that bound misses when one is zero."""
        T = min(self.order, other.order)
        a, b = self.coefficients[:T + 1], other.coefficients[:T + 1]
        peak_a, peak_b = _peak(a), _peak(b)
        slots = _Slots(2 * T + 1, _slot_width(max(peak_a, peak_b, (T + 1) * peak_a * peak_b)))
        pad = (0,) * T
        return TruncatedSeries(slots.unpack(slots.pack(a + pad) * slots.pack(b + pad))[:T + 1])

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
        terms = [(k, c) for k, c in enumerate(self.coefficients[1:], 1) if c]
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
