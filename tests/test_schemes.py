import pytest

from partlat import counting
from partlat.oracle import ConstraintRecord, count
from partlat.schemes import build_scheme

# Scheme of 7 exactly as printed (rows m1 = 7..1, columns n = 1..7).
SCHEME_7 = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
    (0, 0, 2, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)

# Scheme of 13, cell by cell from the printed table (all cells check out
# against the exact-frame counts).
SCHEME_13_ROWS = {
    13: {1: 1},
    12: {2: 1},
    11: {2: 1, 3: 1},
    10: {2: 1, 3: 1, 4: 1},
    9: {2: 1, 3: 2, 4: 1, 5: 1},
    8: {2: 1, 3: 2, 4: 2, 5: 1, 6: 1},
    7: {2: 1, 3: 3, 4: 3, 5: 2, 6: 1, 7: 1},
    6: {3: 3, 4: 4, 5: 3, 6: 2, 7: 1, 8: 1},
    5: {3: 2, 4: 4, 5: 5, 6: 3, 7: 2, 8: 1, 9: 1},
    4: {4: 3, 5: 4, 6: 4, 7: 3, 8: 2, 9: 1, 10: 1},
    3: {5: 2, 6: 3, 7: 3, 8: 2, 9: 2, 10: 1, 11: 1},
    2: {7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 12: 1},
    1: {13: 1},
}

# The size-14 cells masked with * in the printed table, computed exactly.
SCHEME_14_STARRED = {
    (6, 4): 5, (6, 5): 5, (6, 6): 3,
    (5, 4): 5, (5, 5): 5, (5, 6): 5,
    (4, 5): 5, (4, 6): 5,
    (3, 6): 3,
}


class TestSchemeSeven:
    def test_cells(self):
        assert build_scheme(7).cells == SCHEME_7

    def test_column_sums(self):
        t = build_scheme(7)
        assert t.col_sums == (1, 3, 4, 3, 2, 1, 1)

    def test_total_is_p_of_seven(self):
        # The printed grand total reads 11; the cells add to p(7) = 15.
        assert build_scheme(7).total == 15


class TestSchemeThirteen:
    def test_all_printed_cells(self):
        t = build_scheme(13)
        for m1, cells in SCHEME_13_ROWS.items():
            for n in range(1, 14):
                assert t.cell(m1, n) == cells.get(n, 0)

    def test_column_sums(self):
        assert build_scheme(13).col_sums == (1, 6, 14, 18, 18, 14, 11, 7, 5, 3, 2, 1, 1)


class TestSchemeFourteen:
    def test_column_sums(self):
        assert build_scheme(14).col_sums == (1, 7, 16, 23, 23, 20, 15, 11, 7, 5, 3, 2, 1, 1)

    def test_starred_cells(self):
        t = build_scheme(14)
        for (m1, n), value in SCHEME_14_STARRED.items():
            assert t.cell(m1, n) == value


class TestSchemeStructure:
    @pytest.mark.parametrize("total", range(1, 15))
    def test_transversal_symmetry(self, total):
        # The build mirrors each cell pair, so read the conjugate frame from
        # the oracle instead of the mirrored cell.
        t = build_scheme(total)
        for a in range(1, total + 1):
            for b in range(1, total + 1):
                assert t.cell(a, b) == count(
                    ConstraintRecord(total=total, exact_max_part=b, exact_parts=a))

    @pytest.mark.parametrize("total", range(1, 15))
    def test_totals_and_marginals(self, total):
        t = build_scheme(total)
        assert t.total == counting.p(total)
        for n in range(1, total + 1):
            assert sum(t.column(n)) == counting.p_exact(total, n)
        for m1 in range(1, total + 1):
            assert sum(t.row(m1)) == counting.p_exact(total, m1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_scheme(0)

    @pytest.mark.parametrize("total", list(range(1, 41)) + [150])
    def test_every_cell_is_the_exact_frame_count(self, total):
        """The truncated sweep against one point kernel call per cell."""
        t = build_scheme(total)
        for m1 in range(1, total + 1):
            assert t.row(m1) == tuple(counting.exact_frame(m1, n, total)
                                      for n in range(1, total + 1)), m1
