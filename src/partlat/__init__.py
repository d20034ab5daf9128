"""Exact-integer partition combinatorics: Ferrers operations, counting
tables, Euler/pentagonal inversion, partition schemes and orbit lattices."""

from .partitions import (
    FerrersMatrix,
    FrameError,
    MultiplicityVector,
    Partition,
    canonicalize,
    from_multiplicity,
)
from .oracle import ConstraintRecord, classify, count, enumerate_partitions, iter_parts
from .tables import CountTable
from .counting import (
    binomial_row,
    diagonal_sum,
    distinct_row,
    exact_frame,
    franklin_trapezoids,
    odd_even_mixed,
    p,
    p_atmost,
    p_box,
    p_exact,
    p_min_part,
)
from .series import (
    TruncatedSeries,
    capped_product,
    distinct_series,
    euler_coefficient,
    euler_product,
    partition_series,
    pentagonal_pairs,
)
from .intmatrix import (
    IntMatrix,
    euler_matrix,
    invert_unitriangular,
    partition_matrix,
    scheme_inverse,
    summation_matrix,
)
from .schemes import build_scheme
from .lattices import OrbitLattice, build_lattice, distance
from .errata import ERRATA, Erratum
from .verify import verify_suite

__version__ = "0.1.0"

__all__ = [
    "ConstraintRecord",
    "CountTable",
    "ERRATA",
    "Erratum",
    "FerrersMatrix",
    "FrameError",
    "IntMatrix",
    "MultiplicityVector",
    "OrbitLattice",
    "Partition",
    "TruncatedSeries",
    "binomial_row",
    "build_lattice",
    "build_scheme",
    "canonicalize",
    "capped_product",
    "classify",
    "count",
    "diagonal_sum",
    "distance",
    "distinct_row",
    "distinct_series",
    "enumerate_partitions",
    "euler_coefficient",
    "euler_matrix",
    "euler_product",
    "exact_frame",
    "franklin_trapezoids",
    "from_multiplicity",
    "invert_unitriangular",
    "iter_parts",
    "odd_even_mixed",
    "p",
    "p_atmost",
    "p_box",
    "p_exact",
    "p_min_part",
    "partition_matrix",
    "partition_series",
    "pentagonal_pairs",
    "scheme_inverse",
    "summation_matrix",
    "verify_suite",
]
