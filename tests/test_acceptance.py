"""Acceptance suite: one test per shipped criterion, exact integer equality
throughout.  Each test prints a single pass line (visible with pytest -s or
in captured output) naming the criterion it covers."""

import math

from partlat import counting, errata, intmatrix, lattices, schemes, series
from partlat.oracle import ConstraintRecord, count
from partlat.partitions import MultiplicityVector, Partition


def report(line):
    print(f"PASS {line}")


def test_c01_exact_and_atmost_tables():
    exact = counting.exact_table(6)
    atmost = counting.atmost_table(6)
    printed_exact = {
        0: (1,), 1: (0, 1), 2: (0, 1, 1), 3: (0, 1, 1, 1),
        4: (0, 1, 2, 1, 1), 5: (0, 1, 2, 2, 1, 1), 6: (0, 1, 3, 3, 2, 1, 1),
    }
    for m, row in printed_exact.items():
        assert exact.row(m) == row + (0,) * (7 - len(row))
    assert exact.row_sums == (1, 1, 2, 3, 5, 7, 11)
    printed_atmost = {
        0: (1, 1, 1, 1, 1, 1, 1), 1: (0, 1, 1, 1, 1, 1, 1),
        2: (0, 1, 2, 2, 2, 2, 2), 3: (0, 1, 2, 3, 3, 3, 3),
        4: (0, 1, 3, 4, 5, 5, 5), 5: (0, 1, 3, 5, 6, 7, 7),
        6: (0, 1, 4, 7, 9, 10, 11),
    }
    for m, row in printed_atmost.items():
        assert atmost.row(m) == row
    report("criterion 1: exact and at-most tables with sum column 1,1,2,3,5,7,11")


def test_c02_odd_even_mixed_table():
    printed = {
        1: ((1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 1)),
        2: ((0, 1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 2)),
        3: ((1, 0, 1, 0, 0, 0, 0, 0, 0), (2, 0, 1, 3)),
        4: ((0, 1, 0, 1, 0, 0, 0, 0, 0), (2, 2, 1, 5)),
        5: ((1, 0, 1, 0, 1, 0, 0, 0, 0), (3, 0, 4, 7)),
        6: ((0, 2, 0, 1, 0, 1, 0, 0, 0), (4, 3, 4, 11)),
        7: ((1, 0, 2, 0, 1, 0, 1, 0, 0), (5, 0, 10, 15)),
        8: ((0, 2, 0, 2, 0, 1, 0, 1, 0), (6, 5, 11, 22)),
        9: ((1, 0, 3, 0, 2, 0, 1, 0, 1), (8, 0, 22, 30)),
    }
    table = counting.odd_even_mixed_table(9)
    for m, (odd_cells, sums) in printed.items():
        assert table.row(m) == odd_cells + sums
    assert counting.odd_even_mixed(9) == (8, 0, 22, 30)
    report("criterion 2: odd/even/mixed table to m=9, row 9 sums (8, 0, 22, 30)")


def test_c03_distinct_table_and_sign_law():
    printed = {
        1: ((1, 0, 0, 0), 1, 1), 2: ((1, 0, 0, 0), 1, 1),
        3: ((1, 1, 0, 0), 2, 0), 4: ((1, 1, 0, 0), 2, 0),
        5: ((1, 2, 0, 0), 3, -1), 6: ((1, 2, 1, 0), 4, 0),
        7: ((1, 3, 1, 0), 5, -1), 8: ((1, 3, 2, 0), 6, 0),
        9: ((1, 4, 3, 0), 8, 0), 10: ((1, 4, 4, 1), 10, 0),
        11: ((1, 5, 5, 1), 12, 0), 12: ((1, 5, 7, 2), 15, 1),
    }
    table = counting.distinct_table(12)
    for m, (cells, total, diff) in printed.items():
        assert table.row(m) == cells + (total, diff)
    for m in range(1, 31):
        _, diff = counting.distinct_row(m)
        assert diff == -series.euler_coefficient(m)
    report("criterion 3: distinct-part table to m=12; difference = -e(m) to m=30")


def test_c04_unit_diff_table_and_its_inverse():
    printed = {
        0: (1, 0, 0, 0, 0, 0, 0), 1: (0, 1, 0, 0, 0, 0, 0),
        2: (1, 0, 1, 0, 0, 0, 0), 3: (1, 1, 0, 1, 0, 0, 0),
        4: (2, 1, 1, 0, 1, 0, 0), 5: (2, 2, 1, 1, 0, 1, 0),
        6: (4, 2, 2, 1, 1, 0, 1),
    }
    table = counting.unit_diff_table(6)
    for m, row in printed.items():
        assert table.row(m) == row
    printed_inverse = (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (-1, 0, 1, 0, 0, 0),
        (-1, -1, 0, 1, 0, 0), (-1, -1, -1, 0, 1, 0), (0, -1, -1, -1, 0, 1),
    )
    assert intmatrix.inverse_unit_diff_matrix(6).entries == printed_inverse
    for n in (6, 20):
        composed = intmatrix.multiply(
            intmatrix.summation_matrix(n), intmatrix.euler_matrix(n))
        assert intmatrix.inverse_unit_diff_matrix(n).entries == composed.entries
    report("criterion 4: unit-diff table to m=6; inverse block; summation x euler to size 20")


def test_c05_partition_matrix_and_euler_inverse():
    printed_left = (
        (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0),
        (3, 2, 1, 1, 0, 0), (5, 3, 2, 1, 1, 0), (7, 5, 3, 2, 1, 1),
    )
    printed_right = (
        (1, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0), (-1, -1, 1, 0, 0, 0),
        (0, -1, -1, 1, 0, 0), (0, 0, -1, -1, 1, 0), (1, 0, 0, -1, -1, 1),
    )
    assert intmatrix.partition_matrix(6).entries == printed_left
    assert intmatrix.euler_matrix(6).entries == printed_right
    prod = intmatrix.multiply(intmatrix.partition_matrix(50), intmatrix.euler_matrix(50))
    assert prod.entries == intmatrix.identity(50).entries
    report("criterion 5: partition/euler matrix blocks; product is the 50x50 identity")


def test_c06_inverse_of_exact_table():
    printed = (
        (1, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0), (0, -1, 1, 0, 0, 0),
        (1, -1, -1, 1, 0, 0), (0, 1, -1, -1, 1, 0), (0, 1, 0, -1, -1, 1),
    )
    got = intmatrix.invert_unitriangular(intmatrix.exact_parts_matrix(6))
    assert got.entries == printed
    report("criterion 6: generic unitriangular inversion reproduces the inverse-exact block")


def test_c07_box_counts_symmetry_complement_unimodality():
    printed_columns = {
        0: (1,),
        1: (1, 1, 1, 1),
        2: (1, 1, 2, 2, 2, 1, 1),
        3: (1, 1, 2, 3, 3, 3, 3, 2, 1, 1),
    }
    for edge, column in printed_columns.items():
        for m, want in enumerate(column):
            assert counting.p_box(edge, 3, m) == want
        assert all(counting.p_box(edge, 3, m) == 0
                   for m in range(len(column), 3 * edge + 2))
    for a in range(6):
        for b in range(6):
            for m in range(a * b + 1):
                assert counting.p_box(a, b, m) == counting.p_box(b, a, m)
                assert counting.p_box(a, b, m) == counting.p_box(b, a, a * b - m)
            vals = [counting.p_box(a, b, m) for m in range(a * b + 1)]
            for m in range(1, len(vals)):
                assert vals[m] >= vals[m - 1] if 2 * m <= a * b else vals[m] <= vals[m - 1]
    report("criterion 7: cube orbit counts for edges 0-3; symmetry, complement, unimodality")


def test_c08_scheme_tables_and_inversion():
    seven = schemes.build_scheme(7)
    printed_cells = (
        (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0),
        (0, 1, 1, 1, 0, 0, 0), (0, 0, 2, 1, 1, 0, 0), (0, 0, 0, 1, 1, 1, 0),
        (0, 0, 0, 0, 0, 0, 1),
    )
    assert seven.cells == printed_cells
    assert seven.col_sums == (1, 3, 4, 3, 2, 1, 1)
    assert schemes.build_scheme(13).col_sums == (1, 6, 14, 18, 18, 14, 11, 7, 5, 3, 2, 1, 1)
    fourteen = schemes.build_scheme(14)
    assert fourteen.col_sums == (1, 7, 16, 23, 23, 20, 15, 11, 7, 5, 3, 2, 1, 1)
    starred = {
        (6, 4): 5, (6, 5): 5, (6, 6): 3, (5, 4): 5, (5, 5): 5, (5, 6): 5,
        (4, 5): 5, (4, 6): 5, (3, 6): 3,
    }
    for (m1, n), value in starred.items():
        assert fourteen.cell(m1, n) == value
    # Inversion block: every printed row except the documented misprint at
    # largest part 5 (see the errata ledger), plus exactness of the inverse.
    inv = intmatrix.scheme_inverse(7)
    assert inv[0] == (1, 0, 0, 0, 0, 0, 0)
    assert inv[1] == (0, 1, 0, 0, 0, 0, 0)
    assert inv[3] == (0, 0, -1, 1, 0, 0, 0)
    assert inv[4] == (0, 2, -1, -1, 1, 0, 0)
    assert inv[5] == (0, -2, 2, 0, -1, 1, 0)
    assert inv[6] == (0, 0, 0, 0, 0, 0, 1)
    assert inv[2] == (0, -1, 1, 0, 0, 0, 0)
    product = intmatrix.multiply(intmatrix.scheme_matrix(7), inv)
    assert product.entries == intmatrix.identity(7).entries
    report("criterion 8: scheme tables for 7/13/14 with starred cells; exact scheme inverse")


def test_c09_neighbor_table_and_row_sum_law():
    printed = {
        2: (1,), 3: (1, 1), 4: (1, 2, 1), 5: (1, 3, 2, 1),
        6: (1, 4, 4, 2, 1), 7: (1, 5, 6, 4, 2, 1),
    }
    for m, row in printed.items():
        assert lattices.column_edge_counts(m) == row
    table = counting.right_hand_neighbor_table(7)
    difference = tuple(a - b for a, b in zip(table.row(7), table.row(6)))
    assert difference == (0, 1, 2, 2, 1, 1)
    assert difference == tuple(counting.p_exact(5, n) for n in range(6))
    assert sum(difference) == 7
    for m in range(2, 13):
        assert sum(lattices.column_edge_counts(m)) == sum(
            counting.p(k) for k in range(m - 1))
    report("criterion 9: neighbor rows m=2..7 and difference row; prefix-sum law to m=12")


def test_c10_layer_table_diagonals_binomial():
    printed_rows = {
        1: (1,), 2: (2,), 3: (3,), 4: (4, 1), 5: (5, 2), 6: (6, 3, 2),
        7: (7, 4, 4), 8: (8, 5, 6, 3), 9: (9, 6, 8, 6, 1),
        10: (10, 7, 10, 9, 6), 11: (11, 8, 12, 12, 11, 2),
        12: (12, 9, 14, 15, 16, 9, 2), 13: (13, 10, 16, 18, 21, 16, 7),
        14: (14, 11, 18, 21, 26, 23, 18, 4), 15: (15, 12, 20, 24, 31, 30, 29, 12, 3),
    }
    table = counting.layer_table(15)
    for n, row in printed_rows.items():
        assert table.row(n) == row + (0,) * (9 - len(row))
    assert table.row_sums == (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176)
    for d in range(1, 15):
        assert counting.diagonal_sum(d) == 2 ** (d - 1)
    assert sum(table.cell(6 + k, k) for k in range(1, 10)) == 63
    assert counting.layer_count(16, 10) == 1  # completed by (4,4,4,4)
    binom = counting.binomial_table(5)
    assert binom.row_sums == (1, 2, 4, 8, 16)
    for r in range(1, 6):
        assert counting.binomial_row(r) == tuple(
            math.comb(r - 1, k - 1) for k in range(1, r + 1))
    report("criterion 10: layer table to n=15 (sum 176); diagonal powers of two; binomial rows")


def test_c11_worked_identities():
    assert counting.exact_frame(4, 3, 8) == 2
    assert counting.p_box(3, 2, 2) == 2
    assert count(ConstraintRecord(total=8, exact_max_part=4, exact_parts=3)) == 2
    pattern = MultiplicityVector(-2, (4, 0, 0, 0, 0, 1))
    assert [pattern.shift(s).weighted_sum for s in range(5)] == [-5, 0, 5, 10, 15]
    row = intmatrix.partition_matrix(6)[5]
    col = intmatrix.euler_matrix(6).column(0)
    assert sum(x * y for x, y in zip(row, col)) == 0
    assert series.pentagonal_pairs(3) == [(1, 2), (5, 7), (12, 15)]
    for k, (g1, g2) in enumerate(series.pentagonal_pairs(3), start=1):
        a, b = counting.franklin_trapezoids(k)
        assert (a.total, b.total) == (g1, g2)
        assert series.euler_coefficient(g1) == series.euler_coefficient(g2) == (-1) ** k
    report("criterion 11: worked frame identity, shifted-scale sums, row elimination, pentagonal pairs")


def test_c12_oracle_equivalence():
    import random

    for m in range(15):
        assert counting.p(m) == count(ConstraintRecord(total=m))
        for n in range(m + 2):
            assert counting.p_exact(m, n) == count(ConstraintRecord(total=m, exact_parts=n))
            assert counting.p_atmost(m, n) == count(ConstraintRecord(total=m, max_parts=n))
        for a in range(6):
            for b in range(6):
                assert counting.p_box(a, b, m) == count(
                    ConstraintRecord(total=m, max_part=a, max_parts=b))
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                assert counting.exact_frame(a, b, m) == count(
                    ConstraintRecord(total=m, exact_max_part=a, exact_parts=b))
    rng = random.Random(4201)
    for _ in range(200):
        m = rng.randint(15, 25)
        pick = rng.randrange(4)
        if pick == 0:
            assert counting.p(m) == count(ConstraintRecord(total=m))
        elif pick == 1:
            n = rng.randint(1, m)
            assert counting.p_exact(m, n) == count(ConstraintRecord(total=m, exact_parts=n))
        elif pick == 2:
            a, b = rng.randint(0, 7), rng.randint(0, 7)
            assert counting.p_box(a, b, m) == count(
                ConstraintRecord(total=m, max_part=a, max_parts=b))
        else:
            a, b = rng.randint(1, m), rng.randint(1, m)
            assert counting.exact_frame(a, b, m) == count(
                ConstraintRecord(total=m, exact_max_part=a, exact_parts=b))
    report("criterion 12: counting equals enumeration, exhaustive to 14 plus 200 random to 25")


def test_c13_errata_demonstrations():
    # (a) the printed box recurrence fails at (3,3,4)
    assert counting.p_box(2, 3, 4) + counting.p_box(3, 2, 4) == 4
    assert counting.p_box(3, 3, 4) == 3
    assert count(ConstraintRecord(total=4, max_part=3, max_parts=3)) == 3
    # (b) the printed exactly-N recurrence term breaks the table row
    assert counting.p_exact(5, 2) + counting.p_exact(2, 3) == 2
    assert counting.p_exact(5, 2) + counting.p_exact(3, 3) == counting.p_exact(6, 3) == 3
    # (c) the printed Toeplitz index is off by one
    assert tuple(counting.p(i + 1) for i in range(6)) != (1, 1, 2, 3, 5, 7)
    assert intmatrix.partition_matrix(6).column(0) == (1, 1, 2, 3, 5, 7)
    # (d) the layer-seven list contains a sum-12 entry
    assert Partition((3, 3, 3, 2, 1)).total == 12
    assert Partition((3, 3, 3, 2, 2)).total == 13
    assert Partition((3, 3, 3, 2, 2)).layer() == 7
    for entry in errata.ERRATA:
        assert entry.confirm(), entry.ident
    report("criterion 13: all documented errata confirmed with witnesses")


def test_c14_graph_shapes():
    unit = lattices.build_unit_exchange(7, 7)
    assert unit.node_count == 15
    for edge in (("6100000", "7000000"), ("3310000", "4300000"),
                 ("2211100", "2221000"), ("3220000", "3310000")):
        assert edge in unit.edges
    small_unit = lattices.build_unit_exchange(6, 3)
    small_split = lattices.build_split_merge(6, 3)
    assert lattices.distance(small_unit, "330", "411") == 2
    assert lattices.distance(small_split, "330", "411") == 3
    petersen = lattices.build_subset_double_swap(5, 2)
    assert petersen.node_count == 10 and petersen.edge_count == 15
    assert all(petersen.degree(v) == 3 for v in petersen.nodes)
    cube = lattices.build_hypercube(3)
    assert cube.node_count == 8 and cube.edge_count == 12
    swap = lattices.build_subset_swap(5, 3)
    assert swap.node_count == 10
    assert all(swap.degree(v) == 6 for v in swap.nodes)
    report("criterion 14: lattice shapes, drawn edges, distances, Petersen, cube, swap graph")


def test_full_verification_suite_is_green():
    from partlat.verify import verify_suite

    result = verify_suite(12)
    assert result.ok, [r.name for r in result.failed]
    assert not result.unconfirmed_errata
    report("verify: every named invariant passes and every erratum confirms at depth 12")
