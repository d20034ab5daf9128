"""Documented misprints in the reference tables this package reproduces.

Each entry records a claim exactly as printed in the source material, a
concrete witness showing it cannot be right, and the corrected form the
implementation uses.  ``confirm()`` re-derives the witness from scratch, so
the ledger stays honest: an entry whose discrepancy disappeared would fail
its own check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from . import counting, intmatrix, oracle
from .partitions import MultiplicityVector, Partition
from .schemes import build_scheme


@dataclass(frozen=True)
class Erratum:
    ident: str
    where: str
    printed: str
    witness: str
    corrected: str
    confirm: Callable[[], bool]


def _check_exact_parts_recurrence() -> bool:
    # Printed second term drops one unit too many; the corrected recurrence
    # reproduces the table cell.
    printed = counting.p_exact(5, 2) + counting.p_exact(2, 3)
    corrected = counting.p_exact(5, 2) + counting.p_exact(3, 3)
    true = oracle.count(oracle.ConstraintRecord(total=6, exact_parts=3))
    return true == 3 and corrected == 3 and printed == 2


def _check_box_recurrence() -> bool:
    printed = counting.p_box(2, 3, 4) + counting.p_box(3, 2, 4)
    true = oracle.count(oracle.ConstraintRecord(total=4, max_part=3, max_parts=3))
    return true == 3 and counting.p_box(3, 3, 4) == 3 and printed == 4


def _check_partition_matrix_offset() -> bool:
    table_column = (1, 1, 2, 3, 5, 7)
    numbers = tuple(counting._partition_numbers(6))
    as_implemented, as_printed = numbers[:6], numbers[1:]
    return (intmatrix.partition_matrix(6).column(0) == table_column
            and as_implemented == table_column
            and as_printed != table_column)


def _check_layer_seven_list() -> bool:
    listed = Partition((3, 3, 3, 2, 1))
    replacement = Partition((3, 3, 3, 2, 2))
    rest = [
        Partition(q) for q in
        [(5, 5, 3), (5, 4, 4), (4, 4, 4, 1), (4, 4, 3, 2), (4, 3, 3, 3), (3, 3, 3, 3, 1)]
    ]
    return (listed.total == 12
            and replacement.total == 13 and replacement.layer() == 7
            and all(q.total == 13 and q.layer() == 7 for q in rest)
            and counting.layer_count(13, 7) == 7)


def _check_min_part_second_difference() -> bool:
    # Second application of the inverse summation operator to the
    # exactly-n-parts table: row 6 goes negative and disagrees with the true
    # minimum-part-2 counts.
    row = [counting.p_exact(6, n) for n in range(7)]
    diffed = [row[j] - (row[j - 1] if j else 0) for j in range(7)]
    true = [counting.p_min_part(6, n, 2) for n in range(7)]
    return min(diffed) < 0 and diffed != true and true == [0, 1, 2, 1, 0, 0, 0]


def _check_scheme_seven_total() -> bool:
    return build_scheme(7).total == 15 and counting.p(7) == 15


def _check_scheme_seven_inverse_row() -> bool:
    inv = intmatrix.scheme_inverse(7)
    printed_row = (0, 0, 1, 0, 0, 0, 0)
    exact_row = inv[2]  # largest part 5
    product = intmatrix.multiply(intmatrix.scheme_matrix(7), inv)
    return (product.entries == intmatrix.identity(7).entries
            and exact_row == (0, -1, 1, 0, 0, 0, 0)
            and exact_row != printed_row)


def _check_length_growth_inequality() -> bool:
    x = 2
    printed_holds = (x + 1) ** 2 + (x - 1) ** 2 > (2 * x) ** 2
    identity_holds = all(
        (v + 1) ** 2 + (v - 1) ** 2 == 2 * v * v + 2 for v in range(1, 50)
    )
    return not printed_holds and identity_holds


def _check_scheme_fourteen_cells() -> bool:
    col4 = sum(counting.exact_frame(m, 4, 14) for m in range(1, 15))
    col5 = sum(counting.exact_frame(m, 5, 14) for m in range(1, 15))
    return (counting.exact_frame(4, 4, 14) == 2      # printed as 3
            and counting.exact_frame(3, 5, 14) == 1  # printed as 2
            and col4 == 23 and col5 == 23)           # the printed sum row


def _check_shifted_scale_row() -> bool:
    bad = MultiplicityVector(-2, (1, 2, 2))
    valid = oracle.enumerate_partitions(oracle.ConstraintRecord(total=10, exact_parts=5))
    return bad.weighted_sum == -4 and len(valid) == 7


def _check_cube_orbit_entry() -> bool:
    listed = oracle.enumerate_partitions(
        oracle.ConstraintRecord(total=2, max_part=3, max_parts=3)
    )
    return ([q.nonzero_parts for q in listed] == [(2,), (1, 1)]
            and sum((2, 1, 0)) != 2)


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        ident="exact-parts-recurrence",
        where="recurrence for partitions into exactly N parts",
        printed="p(*,N,M) = p(*,N-1,M-1) + p(*,N,M-N-1)",
        witness="M=6, N=3: the printed form gives 2, the table itself says 3",
        corrected="second term is p(*,N,M-N): add a row of N units to partitions of M-N",
        confirm=_check_exact_parts_recurrence,
    ),
    Erratum(
        ident="box-recurrence",
        where="recurrence for partitions inside an m x n box",
        printed="p(m,n,M) = p(m-1,n,M) + p(m,n-1,M)",
        witness="(m,n,M)=(3,3,4): printed sum gives 2+2=4, but only 310, 220, 211 exist",
        corrected="p(m,n,M) = p(m,n-1,M) + p(m-1,n,M-n), split on whether all n slots are used",
        confirm=_check_box_recurrence,
    ),
    Erratum(
        ident="partition-matrix-offset",
        where="entry rule for the partition Toeplitz matrix",
        printed="entry(i,j) = p(i-j+1)",
        witness="column 0 of the printed matrix reads 1,1,2,3,5,7 = p(0)..p(5), not p(1)..p(6)",
        corrected="entry(i,j) = p(i-j)",
        confirm=_check_partition_matrix_offset,
    ),
    Erratum(
        ident="layer-seven-list",
        where="list of the seven layer-7 partitions of 13",
        printed="final member 3,3,3,2,1",
        witness="3+3+3+2+1 = 12, not 13",
        corrected="3,3,3,2,2 (sums to 13, layer 7); the layer count 7 is right",
        confirm=_check_layer_seven_list,
    ),
    Erratum(
        ident="min-part-second-difference",
        where="claim that differencing the exactly-N-parts table once more counts partitions with smallest part 2",
        printed="a second multiplication by the inverse summation matrix yields minimum-part-2 counts",
        witness="row m=6 differences to (0,1,2,0,-1,-1,0); true minimum-part-2 counts are (0,1,2,1,0,0,0)",
        corrected="count by the shift bijection: p_min_part(M,N,r) = p_exact(M-N(r-1), N)",
        confirm=_check_min_part_second_difference,
    ),
    Erratum(
        ident="scheme-seven-total",
        where="grand total of the (7,7) partition scheme",
        printed="11",
        witness="the printed sum row 1,3,4,3,2,1,1 itself adds to 15 = p(7)",
        corrected="15",
        confirm=_check_scheme_seven_total,
    ),
    Erratum(
        ident="scheme-seven-inverse-row",
        where="row for largest part 5 in the printed inverse of the (7,7) scheme",
        printed="(0, 0, 1, 0, 0, 0, 0)",
        witness="multiplying the scheme by the printed block misses the identity in that row",
        corrected="(0, -1, 1, 0, 0, 0, 0); scheme times inverse is then exactly the identity",
        confirm=_check_scheme_seven_inverse_row,
    ),
    Erratum(
        ident="length-growth-inequality",
        where="vector-length comparison for scheme rows",
        printed="(x+1)^2 + (x-1)^2 > (2x)^2",
        witness="x=2: 10 > 16 is false",
        corrected="the usable identity is (x+1)^2 + (x-1)^2 = 2x^2 + 2 (each exchange adds 2)",
        confirm=_check_length_growth_inequality,
    ),
    Erratum(
        ident="scheme-fourteen-cells",
        where="cells (largest 4, parts 4) and (largest 3, parts 5) of the size-14 scheme",
        printed="3 and 2",
        witness="exact counts are 2 and 1; the printed column sums (23, 23) only balance with those",
        corrected="2 and 1",
        confirm=_check_scheme_fourteen_cells,
    ),
    Erratum(
        ident="shifted-scale-row",
        where="count patterns listed for the shifted-scale example with sum -5",
        printed="a row with counts 1,2,2 on scale values -2,-1,0",
        witness="that pattern has weighted sum -4; the valid family has exactly 7 members",
        corrected="drop the row (or read it as 1,2,0,2 over -2,-1,0,1)",
        confirm=_check_shifted_scale_row,
    ),
    Erratum(
        ident="cube-orbit-entry",
        where="orbit list for total 2 in the edge-3 cube",
        printed="210; 110",
        witness="210 sums to 3; the orbits of 2 are 200 and 110",
        corrected="200; 110 (the printed count of 2 is right)",
        confirm=_check_cube_orbit_entry,
    ),
)


# The ledger fields each renderer prints after the ident, in order.
_FIELDS = ("where", "printed", "witness", "corrected")


def render_text() -> str:
    return "\n".join(
        f"{e.ident}\n" + "".join(f"  {name + ':':<11}{getattr(e, name)}\n" for name in _FIELDS)
        for e in ERRATA)


def render_json() -> str:
    return json.dumps([{"ident": e.ident, **{name: getattr(e, name) for name in _FIELDS}}
                       for e in ERRATA], indent=2) + "\n"
