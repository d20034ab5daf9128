"""Partitions, Ferrers matrices and multiplicity vectors.

A partition is a weakly decreasing sequence of nonnegative integers.  Zero
parts are real state here: a partition carries an explicit ``padded_length``
(the dimension of the vector it lives in), because fixed-dimension tables
and lattices need it.  Two partitions compare equal when their nonzero parts
agree, regardless of padding.

Negative part values are representable only through
:class:`MultiplicityVector` (a count vector over a shifted integer scale);
:class:`Partition` itself stays nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence


class FrameError(ValueError):
    """A partition does not fit the requested rectangular frame."""


_INT = frozenset((int,))


def require_ints(name: str, *values: object, low: int | None = None,
                 high: int | None = None) -> None:
    """Refuse unless every value is a plain ``int``: a bool, a float or an
    int subclass raises ``ValueError("<name> must be an integer")``.  One
    C-level pass over the value types.  Then a value below ``low`` raises
    "<name> must be >= <low>", or, when ``high`` is given, a value outside
    low..high raises "<name> must be between <low> and <high>"."""
    if not _INT.issuperset(map(type, values)):
        raise ValueError(f"{name} must be an integer")
    if low is not None and values and (min(values) < low or high is not None and max(values) > high):
        raise ValueError(f"{name} must be >= {low}" if high is None
                         else f"{name} must be between {low} and {high}")


def canonicalize(values: Iterable[int], padded_length: int | None = None) -> "Partition":
    """Sort ``values`` into weakly decreasing order and zero-pad.

    This picks the sorted representative of the permutation class of a
    vector.  Negative entries are rejected: shifted-base values belong in
    :class:`MultiplicityVector`.
    """
    vals = list(values)
    require_ints("each part", *vals)
    for v in vals:
        if v < 0:
            raise ValueError(f"negative part {v}: use MultiplicityVector for shifted bases")
    nonzero = sorted((v for v in vals if v > 0), reverse=True)
    return Partition(nonzero, len(vals) if padded_length is None else padded_length)


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def label_of(parts: Sequence[int], width: int = 0) -> str:
    """Canonical text label of ``parts`` and zero slots up to ``width``:
    concatenated digits while every part is < 10, else comma-separated."""
    zeros = width - len(parts)
    if max(parts, default=0) > 9:
        return ",".join(map(str, parts)) + ",0" * zeros
    return bytes(parts).translate(_DIGITS).decode() + "0" * zeros


class Partition:
    """An integer partition with explicit zero padding.

    ``parts`` is the padded tuple; equality and hashing ignore the padding
    so that orbit identity works across dimensions.
    """

    __slots__ = ("_nonzero", "_padded")

    def __init__(self, parts: Sequence[int], padded_length: int | None = None):
        parts = tuple(parts)
        require_ints("each part", *parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        nonzero = tuple(v for v in parts if v > 0)
        if padded_length is None:
            padded_length = len(parts)
        else:
            require_ints("padded_length", padded_length)
        if padded_length < len(nonzero):
            raise ValueError(f"padded_length {padded_length} < {len(nonzero)} nonzero parts")
        self._nonzero = nonzero
        self._padded = padded_length

    @classmethod
    def _trusted(cls, nonzero: tuple[int, ...], padded_length: int) -> "Partition":
        """A partition from parts already known to be valid (positive, weakly
        decreasing, at most ``padded_length`` of them), built unchecked."""
        q = object.__new__(cls)
        q._nonzero = nonzero
        q._padded = padded_length
        return q

    @property
    def parts(self) -> tuple[int, ...]:
        return self._nonzero + (0,) * (self._padded - len(self._nonzero))

    @property
    def nonzero_parts(self) -> tuple[int, ...]:
        return self._nonzero

    @property
    def padded_length(self) -> int:
        return self._padded

    @property
    def total(self) -> int:
        return sum(self._nonzero)

    @property
    def largest(self) -> int:
        return self._nonzero[0] if self._nonzero else 0

    @property
    def nonzero_count(self) -> int:
        return len(self._nonzero)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._nonzero == other._nonzero
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._nonzero)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def label(self) -> str:
        """Canonical text label of the padded parts; see :func:`label_of`."""
        return label_of(self._nonzero, self._padded)

    def conjugate(self) -> "Partition":
        """Column counts of the Ferrers graph (the transposed partition)."""
        cols = tuple(
            sum(1 for p in self._nonzero if p > j) for j in range(self.largest)
        )
        return Partition._trusted(cols, max(self.largest, 1))

    def to_ferrers(self, rows: int, cols: int) -> "FerrersMatrix":
        """Left-justified 0/1 matrix of the partition inside a rows x cols frame."""
        if rows < self.nonzero_count:
            raise FrameError(f"frame rows {rows} < {self.nonzero_count} nonzero parts")
        if cols < self.largest:
            raise FrameError(f"frame cols {cols} < largest part {self.largest}")
        ps = self._nonzero + (0,) * (rows - self.nonzero_count)
        return FerrersMatrix._trusted(tuple((1,) * p + (0,) * (cols - p) for p in ps))

    def box_complement(self, rows: int, cols: int) -> "Partition":
        """Complement inside the all-ones rows x cols frame, then transverse.

        The result is the partition of rows*cols - total that fills the rest
        of the box.
        """
        f = self.to_ferrers(rows, cols)
        return f.complement().transverse().to_partition()

    def to_multiplicity(self, base: int = 0) -> "MultiplicityVector":
        """Count parts of each value, over the scale base, base+1, ...

        Padding zeros count toward the value-0 slot, so the dimension of the
        result equals ``padded_length``.
        """
        require_ints("base", base)
        ps = self.parts
        low = min(ps) if ps else base
        if low < base:
            raise ValueError(f"part {low} below base {base}")
        top = max(ps) if ps else base
        counts = [0] * (top - base + 1)
        for v in ps:
            counts[v - base] += 1
        return MultiplicityVector._trusted(base, tuple(counts))

    def norm_squared(self) -> int:
        return sum(v * v for v in self._nonzero)

    def hook_frame_size(self) -> int:
        """Units in the first row plus first column of the Ferrers graph."""
        if not self._nonzero:
            raise ValueError("hook frame of the empty partition is undefined")
        return self.largest + self.nonzero_count - 1

    def interior(self) -> "Partition":
        """Partition left after deleting the first row and first column."""
        inner = tuple(v - 1 for v in self._nonzero[1:] if v > 1)
        return Partition._trusted(inner, len(inner))

    def layer(self) -> int:
        """1 + size of the interior; 0 for the empty partition."""
        if not self._nonzero:
            return 0
        return 1 + self.interior().total


# The values a Ferrers matrix cell may hold.
_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class FerrersMatrix:
    """A 0/1 grid.  Ferrers-shaped when rows are left-justified runs of ones
    with weakly decreasing lengths; intermediate complements may violate the
    shape until transversed."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(map(len, self.cells))) > 1:
            raise ValueError("ragged grid")
        require_ints("each cell", *chain.from_iterable(self.cells))
        if not _BITS.issuperset(chain.from_iterable(self.cells)):
            bad = next(v for v in chain.from_iterable(self.cells) if v not in _BITS)
            raise ValueError(f"cell value {bad} not in {{0,1}}")

    @classmethod
    def _trusted(cls, cells: tuple[tuple[int, ...], ...]) -> "FerrersMatrix":
        """A grid derived from a valid one (rectangular, 0/1 cells), built
        without ``__post_init__``'s checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "cells", cells)
        return m

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def row_lengths(self) -> tuple[int, ...]:
        return tuple(map(sum, self.cells))

    def is_ferrers(self) -> bool:
        lengths = self.row_lengths()
        for row, k in zip(self.cells, lengths):
            if row[:k] != (1,) * k:
                return False
        return all(a >= b for a, b in zip(lengths, lengths[1:]))

    def transpose(self) -> "FerrersMatrix":
        return FerrersMatrix._trusted(tuple(zip(*self.cells)))

    def transverse(self) -> "FerrersMatrix":
        """Reverse both row and column order (180-degree rotation)."""
        return FerrersMatrix._trusted(tuple(row[::-1] for row in self.cells[::-1]))

    def complement(self) -> "FerrersMatrix":
        """Subtract from the all-ones frame of the same shape."""
        return FerrersMatrix._trusted(tuple(tuple(map((1).__sub__, row)) for row in self.cells))

    def to_partition(self) -> Partition:
        if not self.is_ferrers():
            raise ValueError("grid is not Ferrers-shaped; transverse it first")
        return Partition._trusted(tuple(k for k in self.row_lengths() if k > 0), self.rows)


@dataclass(frozen=True)
class MultiplicityVector:
    """Counts of parts per value over the integer scale base, base+1, ...

    The base may be negative; the weighted sum is the represented total.
    """

    base: int
    counts: tuple[int, ...]

    def __post_init__(self):
        require_ints("base", self.base)
        require_ints("counts", *self.counts, low=0)

    @classmethod
    def _trusted(cls, base: int, counts: tuple[int, ...]) -> "MultiplicityVector":
        """A vector from an int base and counts already known to be ints
        >= 0, built without ``__post_init__``'s checks."""
        v = object.__new__(cls)
        object.__setattr__(v, "base", base)
        object.__setattr__(v, "counts", counts)
        return v

    @property
    def dimension(self) -> int:
        return sum(self.counts)

    @property
    def weighted_sum(self) -> int:
        return sum((self.base + i) * c for i, c in enumerate(self.counts))

    def shift(self, s: int) -> "MultiplicityVector":
        """Same count pattern on a scale shifted by s; the weighted sum
        changes by s * dimension."""
        require_ints("s", s)
        return MultiplicityVector._trusted(self.base + s, self.counts)


def from_multiplicity(v: MultiplicityVector) -> tuple[int, ...]:
    """Expand a multiplicity vector into its sorted (decreasing) parts.

    The result may contain negative values, so it is a plain tuple rather
    than a Partition.
    """
    parts: list[int] = []
    for i, c in enumerate(v.counts):
        parts.extend([v.base + i] * c)
    return tuple(sorted(parts, reverse=True))
