"""Exact integer matrix algebra for the table identities.

Only what the tables need: multiplication, lower Toeplitz matrices built
from (and inverted as) power series, the summation operators among them,
and exact inversion of the other unitriangular matrices.  No rationals, no
floating point, no general elimination.

Products and inverses build each output row as an integer combination of
other rows: row i of A·B is sum_k A[i][k]·B[k], and row i of X = A⁻¹ is
e_i − sum_{k<i} A[i][k]·X[k].  Each row is packed into one int by the
packed-integer kernel of :mod:`partlat.series`, so a row is one C-level sum
of bigint-by-int products, in slots whose width W comes from a bound on its
entries proved before the row is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import mul
from typing import Callable, Sequence

from . import counting, schemes, series
from .partitions import require_ints


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_ints("entries", *chain.from_iterable(self.entries))
        if len(set(map(len, self.entries))) > 1:
            raise ValueError("ragged matrix")

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix whose rows are already known to be ints of one length
        (a kernel's output or a counting table's cells), built unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.entries)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


def identity(n: int) -> IntMatrix:
    return IntMatrix._trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


# -- the packed-row kernel -----------------------------------------------------

def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """A·B with row i packed as sum_k A[i][k]·P_k, where P_k is row k of B
    packed.  Every entry of row i is at most sum_k |A[i][k]|·max|B[k]| in
    absolute value, and every entry of B at most max|B|: the slot width
    holds the larger of the two."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    peaks = [series._peak(row) for row in b.entries]
    bound = max(chain(peaks, (sum(map(mul, map(abs, row), peaks)) for row in a.entries)),
                default=0)
    slots = series._Slots(b.cols, series._slot_width(bound))
    packed = [slots.pack(row) for row in b.entries]
    return IntMatrix._trusted(tuple(slots.unpack(sum(map(mul, row, packed))) for row in a.entries))


def _lower_unitriangular(entries: tuple[tuple[int, ...], ...]) -> bool:
    """Ones on the diagonal and zeros above it, for a square matrix."""
    return all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(entries))


def invert_unitriangular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a lower or upper unitriangular matrix, read off its
    entries; any other matrix is refused.

    Row i of the lower inverse X is packed as 2^(W·i) − sum_{k<i} A[i][k]·P_k
    from the packed rows P_k before it, then read back.  Every entry of
    row i is at most 1 + sum_{k<i} |A[i][k]|·max|X[k]| in absolute value,
    read off the rows already decoded; when that bound outgrows the slots,
    W grows to the next fitting multiple of 64 and the earlier rows are
    packed again."""
    if a.rows == a.cols:
        if _lower_unitriangular(a.entries):
            return _invert_lower(a.entries)
        transposed = a.transpose().entries
        if _lower_unitriangular(transposed):
            return _invert_lower(transposed).transpose()
    raise ValueError("only unitriangular matrices are invertible here")


def _invert_lower(entries: tuple[tuple[int, ...], ...]) -> IntMatrix:
    n = len(entries)
    width, slots = 0, None
    inv: list[tuple[int, ...]] = []
    peaks: list[int] = []
    packed: list[int] = []
    for i, row in enumerate(entries):
        bound = 1 + sum(map(mul, map(abs, row), peaks))
        if bound.bit_length() >= width:
            width = series._slot_width(bound)
            slots = series._Slots(n, width)
            packed = [slots.pack(x) for x in inv]
        p = (1 << width * i) - sum(map(mul, row, packed))
        x = slots.unpack(p)
        inv.append(x)
        peaks.append(series._peak(x))
        packed.append(p)
    return IntMatrix._trusted(tuple(inv))


def from_cell(n: int, cell: Callable[[int, int], int]) -> IntMatrix:
    return IntMatrix(tuple(tuple(cell(i, j) for j in range(n)) for i in range(n)))


# -- Toeplitz matrices: the summation operators and the partition pair ----

def toeplitz(column: Sequence[int]) -> IntMatrix:
    """Lower Toeplitz matrix with entry column[i - j] on and below the
    diagonal.  Multiplying two such matrices multiplies their columns as
    truncated power series, so the inverse of one is the Toeplitz matrix of
    the inverse series."""
    c = tuple(column)
    require_ints("entries", *c)
    n = len(c)
    return IntMatrix._trusted(tuple(c[i::-1] + (0,) * (n - 1 - i) for i in range(n)))


def summation_matrix(n: int) -> IntMatrix:
    """All-ones lower triangular matrix, the Toeplitz matrix of 1/(1 - t):
    right-multiplying by its transpose turns a row into its running sums."""
    require_ints("n", n, low=1)
    return toeplitz((1,) * n)


def summation_inverse(n: int) -> IntMatrix:
    """Bidiagonal inverse of the summation matrix (1 on the diagonal, -1
    below it), the Toeplitz matrix of 1 - t."""
    require_ints("n", n, low=1)
    return toeplitz(((1, -1) + (0,) * n)[:n])


def partition_matrix(n: int) -> IntMatrix:
    """Lower Toeplitz matrix with entry p(i - j): every column repeats the
    partition counts shifted one row down."""
    require_ints("n", n, low=1)
    return toeplitz(counting._partition_numbers(n - 1))


def euler_matrix(n: int) -> IntMatrix:
    """Lower Toeplitz matrix of Euler-product coefficients e(i - j); the
    exact inverse of :func:`partition_matrix`."""
    require_ints("n", n, low=1)
    return toeplitz(series.euler_product(n - 1).coefficients)


# -- the counting tables as matrices and their inverses ---------------------

def exact_parts_matrix(n: int) -> IntMatrix:
    """Partitions-into-exactly-n-parts table as a lower unitriangular matrix
    (rows m = 1..n, columns part counts 1..n)."""
    require_ints("n", n, low=1)
    return IntMatrix._trusted(tuple(row[1:] for row in counting.exact_table(n).cells[1:]))


def unit_diff_matrix(n: int) -> IntMatrix:
    """Unit-part difference table as a lower unitriangular matrix (rows and
    columns 0..n-1): the Toeplitz matrix of p(m) - p(m - 1)."""
    require_ints("n", n, low=1)
    return toeplitz(counting.unit_diff_column(n - 1))


def inverse_exact_parts_matrix(n: int) -> IntMatrix:
    return invert_unitriangular(exact_parts_matrix(n))


def inverse_unit_diff_matrix(n: int) -> IntMatrix:
    """Inverse of the unit-diff table: the lower summation matrix times the
    Euler matrix.

    The table is Toeplitz with column p(m) - p(m - 1), the series
    (1 - t)·P(t), so its inverse is the Toeplitz matrix of E(t)/(1 - t):
    the running sums of the Euler-product coefficients."""
    require_ints("n", n, low=1)
    return toeplitz(accumulate(series.euler_product(n - 1).coefficients))


# -- partition schemes -------------------------------------------------------

def scheme_matrix(total: int) -> IntMatrix:
    """The partition scheme of ``total`` as a matrix: row i holds largest
    part total - i, column j holds part count j + 1.  Unit diagonal, zeros
    above: the only partition with largest part total - i and i + 1 parts is
    the hook (total - i, 1, ..., 1)."""
    return IntMatrix._trusted(schemes.build_scheme(total).cells)


def scheme_inverse(total: int) -> IntMatrix:
    return invert_unitriangular(scheme_matrix(total))
