"""Exact integer matrix algebra for the table identities.

Only what the tables need: multiplication, lower Toeplitz matrices built
from (and inverted as) power series, the summation operators among them,
and exact inversion of the other unitriangular matrices.  No rationals, no
floating point, no general elimination.

Products and inverses build each output row as an integer combination of
other rows: row i of A·B is sum_k A[i][k]·B[k], and row i of X = A⁻¹ is
e_i − sum_{k<i} A[i][k]·X[k].  Each of those rows is packed into one Python
int, P = sum_j x_j·2^(W·j) (Kronecker substitution), so a row is one C-level
sum of bigint-by-int products, and the packing is linear: the packed sum is
the packed row of the sum, whatever W is.  Reading the row back out of its
W-bit slots is exact when every entry has |x| < 2^(W−1); each kernel takes
W from a bound on its entries proved before the row is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, and_, lshift, mul, rshift
from struct import Struct
from typing import Callable, Sequence

from . import counting, schemes, series
from .partitions import require_ints

GENERAL = "general"
LOWER = "lower_unitriangular"
UPPER = "upper_unitriangular"


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]
    shape_tag: str = GENERAL

    def __post_init__(self):
        require_ints("entries", *chain.from_iterable(self.entries))
        self._check_shape()

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...], shape_tag: str) -> "IntMatrix":
        """A matrix whose entries are already known to be ints (a kernel's
        output or a counting table's cells), built without the type pass.
        The shape tag is still checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "shape_tag", shape_tag)
        m._check_shape()
        return m

    def _check_shape(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != len(self.entries[0]):
                raise ValueError("ragged matrix")
        if self.shape_tag not in (GENERAL, LOWER, UPPER):
            raise ValueError(f"unknown shape tag {self.shape_tag!r}")
        if self.shape_tag in (LOWER, UPPER):
            if not self.entries or len(self.entries[0]) != n:
                raise ValueError("unitriangular matrices must be square")
            lower = self.shape_tag == LOWER
            for i, row in enumerate(self.entries):
                if row[i] != 1:
                    raise ValueError(f"diagonal entry at {i} is not 1")
                if any(row[i + 1:] if lower else row[:i]):
                    j = next(j for j in (range(i + 1, n) if lower else range(i)) if row[j])
                    raise ValueError(f"entry ({i},{j}) breaks {self.shape_tag}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return multiply(self, other)

    def transpose(self) -> "IntMatrix":
        tag = {LOWER: UPPER, UPPER: LOWER}.get(self.shape_tag, GENERAL)
        return IntMatrix._trusted(tuple(zip(*self.entries)), tag)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


def identity(n: int) -> IntMatrix:
    return IntMatrix._trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
                              LOWER if n else GENERAL)


# -- the packed-row kernel -----------------------------------------------------

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


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """A·B with row i packed as sum_k A[i][k]·P_k, where P_k is row k of B
    packed.  Every entry of row i is at most sum_k |A[i][k]|·max|B[k]| in
    absolute value, and every entry of B at most max|B|: the slot width
    holds the larger of the two."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    peaks = [_peak(row) for row in b.entries]
    bound = max(chain(peaks, (sum(map(mul, map(abs, row), peaks)) for row in a.entries)),
                default=0)
    slots = _Slots(b.cols, _slot_width(bound))
    packed = [slots.pack(row) for row in b.entries]
    grid = tuple(slots.unpack(sum(map(mul, row, packed))) for row in a.entries)
    tag = a.shape_tag if a.shape_tag == b.shape_tag and a.shape_tag != GENERAL else GENERAL
    return IntMatrix._trusted(grid, tag)


def invert_unitriangular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unitriangular matrix; rejects anything that is not
    tagged unitriangular.

    Row i of the lower inverse X is packed as 2^(W·i) − sum_{k<i} A[i][k]·P_k
    from the packed rows P_k before it, then read back.  Every entry of
    row i is at most 1 + sum_{k<i} |A[i][k]|·max|X[k]| in absolute value,
    read off the rows already decoded; when that bound outgrows the slots,
    W grows to the next fitting multiple of 64 and the earlier rows are
    packed again."""
    if a.shape_tag == UPPER:
        return invert_unitriangular(a.transpose()).transpose()
    if a.shape_tag != LOWER:
        raise ValueError("only unitriangular matrices are invertible here")
    n = a.rows
    width, slots = 0, None
    inv: list[tuple[int, ...]] = []
    peaks: list[int] = []
    packed: list[int] = []
    for i, row in enumerate(a.entries):
        bound = 1 + sum(map(mul, map(abs, row), peaks))
        if bound.bit_length() >= width:
            width = _slot_width(bound)
            slots = _Slots(n, width)
            packed = [slots.pack(x) for x in inv]
        p = (1 << width * i) - sum(map(mul, row, packed))
        x = slots.unpack(p)
        inv.append(x)
        peaks.append(_peak(x))
        packed.append(p)
    return IntMatrix._trusted(tuple(inv), LOWER)


def from_cell(n: int, cell: Callable[[int, int], int]) -> IntMatrix:
    return IntMatrix(tuple(tuple(cell(i, j) for j in range(n)) for i in range(n)))


# -- Toeplitz matrices: the summation operators and the partition pair ----

def toeplitz(column: Sequence[int]) -> IntMatrix:
    """Lower Toeplitz matrix with entry column[i - j] on and below the
    diagonal; column[0] must be 1.  Multiplying two such matrices multiplies
    their columns as truncated power series, so the inverse of one is the
    Toeplitz matrix of the inverse series."""
    c = tuple(column)
    require_ints("entries", *c)
    n = len(c)
    return IntMatrix._trusted(tuple(c[i::-1] + (0,) * (n - 1 - i) for i in range(n)), LOWER)


def summation_matrix(n: int) -> IntMatrix:
    """All-ones lower triangular matrix, the Toeplitz matrix of 1/(1 - t):
    right-multiplying by its transpose turns a row into its running sums."""
    return toeplitz((1,) * n)


def summation_inverse(n: int) -> IntMatrix:
    """Bidiagonal inverse of the summation matrix (1 on the diagonal, -1
    below it), the Toeplitz matrix of 1 - t."""
    return toeplitz(((1, -1) + (0,) * n)[:n])


def partition_matrix(n: int) -> IntMatrix:
    """Lower Toeplitz matrix with entry p(i - j): every column repeats the
    partition counts shifted one row down."""
    return toeplitz(counting._partition_numbers(n - 1))


def euler_matrix(n: int) -> IntMatrix:
    """Lower Toeplitz matrix of Euler-product coefficients e(i - j); the
    exact inverse of :func:`partition_matrix`."""
    return toeplitz(series.euler_product(max(n - 1, 0)).coefficients[:n])


# -- the counting tables as matrices and their inverses ---------------------

def exact_parts_matrix(n: int) -> IntMatrix:
    """Partitions-into-exactly-n-parts table as a lower unitriangular matrix
    (rows m = 1..n, columns part counts 1..n)."""
    return IntMatrix._trusted(tuple(row[1:] for row in counting.exact_table(n).cells[1:]), LOWER)


def unit_diff_matrix(n: int) -> IntMatrix:
    """Unit-part difference table as a lower unitriangular matrix (rows and
    columns 0..n-1)."""
    return IntMatrix._trusted(counting.unit_diff_table(n - 1).cells, LOWER)


def inverse_exact_parts_matrix(n: int) -> IntMatrix:
    return invert_unitriangular(exact_parts_matrix(n))


def inverse_unit_diff_matrix(n: int) -> IntMatrix:
    """Inverse of the unit-diff table; also equals the lower summation
    matrix times the Euler matrix, column-shift structure included.

    The table is Toeplitz with column p(m) - p(m - 1), so its inverse is
    the Toeplitz matrix of the inverse series."""
    column = series.TruncatedSeries(counting.unit_diff_column(max(n - 1, 0)))
    return toeplitz(column.invert().coefficients[:n])


# -- partition schemes -------------------------------------------------------

def scheme_matrix(total: int) -> IntMatrix:
    """The partition scheme of ``total`` as a matrix: row i holds largest
    part total - i, column j holds part count j + 1.  Unit diagonal, zeros
    above: the only partition with largest part total - i and i + 1 parts is
    the hook (total - i, 1, ..., 1)."""
    return IntMatrix._trusted(schemes.build_scheme(total).cells, LOWER)


def scheme_inverse(total: int) -> IntMatrix:
    return invert_unitriangular(scheme_matrix(total))
