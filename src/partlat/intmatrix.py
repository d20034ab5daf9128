"""Exact integer matrix algebra for the table identities.

Only what the tables need: multiplication, lower Toeplitz matrices built
from (and inverted as) power series, the summation operators among them,
and exact inversion of the other unitriangular matrices by forward
substitution, one slice dot product per entry.  No rationals, no floating
point, no general elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

from . import counting, schemes, series

GENERAL = "general"
LOWER = "lower_unitriangular"
UPPER = "upper_unitriangular"


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]
    shape_tag: str = GENERAL

    def __post_init__(self):
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
        return IntMatrix(tuple(zip(*self.entries)), tag)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
                     LOWER if n else GENERAL)


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    # Each column of b as its nonzero (row, value) pairs: the triangular and
    # Toeplitz operands here are mostly zeros.
    columns = [[(k, v) for k, v in enumerate(col) if v] for col in zip(*b.entries)]
    grid = tuple(
        tuple(sum(row[k] * v for k, v in col) for col in columns) for row in a.entries
    )
    tag = a.shape_tag if a.shape_tag == b.shape_tag and a.shape_tag != GENERAL else GENERAL
    return IntMatrix(grid, tag)


def invert_unitriangular(a: IntMatrix) -> IntMatrix:
    """Exact inverse by forward substitution; rejects anything that is not
    tagged unitriangular.

    Entry (i, j) of the lower inverse X is -sum_{k=j..i-1} A[i][k] X[k][j]:
    the slice A[i][j:i] against column j of X from row j down, one C-level
    dot product.  The columns of X are kept as lists that grow by one entry
    per row, so each dot product reads one contiguous list."""
    if a.shape_tag == UPPER:
        return invert_unitriangular(a.transpose()).transpose()
    if a.shape_tag != LOWER:
        raise ValueError("only unitriangular matrices are invertible here")
    n = a.rows
    columns: list[list[int]] = []  # column j of X, rows j..i-1
    inv = []
    for i, row in enumerate(a.entries):
        new = [-sum(map(mul, row[j:i], column)) for j, column in enumerate(columns)]
        for column, x in zip(columns, new):
            column.append(x)
        columns.append([1])
        inv.append(tuple(new) + (1,) + (0,) * (n - 1 - i))
    return IntMatrix(tuple(inv), LOWER)


def from_cell(n: int, cell: Callable[[int, int], int]) -> IntMatrix:
    return IntMatrix(tuple(tuple(cell(i, j) for j in range(n)) for i in range(n)))


# -- Toeplitz matrices: the summation operators and the partition pair ----

def toeplitz(column: Sequence[int]) -> IntMatrix:
    """Lower Toeplitz matrix with entry column[i - j] on and below the
    diagonal; column[0] must be 1.  Multiplying two such matrices multiplies
    their columns as truncated power series, so the inverse of one is the
    Toeplitz matrix of the inverse series."""
    c = tuple(column)
    n = len(c)
    return IntMatrix(tuple(c[i::-1] + (0,) * (n - 1 - i) for i in range(n)), LOWER)


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
    return IntMatrix(tuple(row[1:] for row in counting.exact_table(n).cells[1:]), LOWER)


def unit_diff_matrix(n: int) -> IntMatrix:
    """Unit-part difference table as a lower unitriangular matrix (rows and
    columns 0..n-1)."""
    return IntMatrix(counting.unit_diff_table(n - 1).cells, LOWER)


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
    return IntMatrix(schemes.build_scheme(total).cells, LOWER)


def scheme_inverse(total: int) -> IntMatrix:
    return invert_unitriangular(scheme_matrix(total))
