"""Checks of the verify suite itself: a check must be able to fail."""

import functools
import inspect
from array import array
from dataclasses import replace

import pytest

from partlat import counting, errata, intmatrix, lattices, schemes, series, verify
from partlat.partitions import MultiplicityVector


def check_named(name: str) -> verify.Check:
    return next(c for c in verify.CHECKS if c.name == name)


def names_failure(name: str, max_total: int = 12) -> str:
    return check_named(name).run(max_total)


def test_shift_invariance_passes_on_the_real_shift():
    assert names_failure("shift-invariance") is None


@pytest.mark.parametrize("wrong_base", (
    lambda base, s: base + 2 * s + 7,  # breaks composition of shifts
    lambda base, s: base + 2 * s,      # composes, but moves the total by 2ns
    lambda base, s: base,              # never moves the scale
), ids=("composition", "total", "fixed"))
def test_shift_invariance_names_a_wrong_shift(monkeypatch, wrong_base):
    monkeypatch.setattr(MultiplicityVector, "shift",
                        lambda self, s: MultiplicityVector(wrong_base(self.base, s), self.counts))
    detail = names_failure("shift-invariance")
    assert detail is not None and detail.startswith("m=")
    result = {r.name: r for r in verify.verify_suite(12).results}["shift-invariance"]
    assert not result.ok and result.detail == detail


def two_unit_moves(parts: bytes, slots: int) -> set[bytes]:
    """Level two parts by two units: each edge joins padded vectors at
    squared distance 8, not 2."""
    if len(parts) < slots:
        parts += b"\0"
    out = set()
    for x in set(parts):
        for y in set(parts):
            if x - y >= 4:
                moved = list(parts)
                moved[moved.index(x)] -= 2
                moved[moved.index(y)] += 2
                out.add(bytes(sorted(moved, reverse=True)).rstrip(b"\0"))
    return out


def test_unit_exchange_edge_shape_names_a_two_unit_edge(monkeypatch):
    assert names_failure("unit-exchange-edge-shape") is None
    monkeypatch.setattr(lattices, "_unit_moves", two_unit_moves)
    assert names_failure("unit-exchange-edge-shape") == "edge 2200 -- 4000 in lattice of 4"


@pytest.mark.parametrize("check", verify.CHECKS, ids=[c.name for c in verify.CHECKS])
def test_each_check_passes_at_its_cap(check):
    assert check.run(verify.MAX_TOTAL) is None


@pytest.mark.parametrize("check", verify.CHECKS, ids=[c.name for c in verify.CHECKS])
def test_each_check_states_cases_at_the_largest_total(check):
    assert inspect.isgeneratorfunction(check.fn)
    cases = check.fn() if check.cap is None else check.fn(min(verify.MAX_TOTAL, check.cap))
    label, *sides = next(cases)
    assert isinstance(label, str) and len(sides) == 2


def test_run_stops_at_the_first_case_whose_sides_differ():
    def cases():
        yield "same", 1, 1
        yield "first", (1, 2), (1, 3)
        yield "second", 1, 2
        raise AssertionError("a case after the first mismatch was computed")

    assert verify.Check("c", cases).run(1) == "first"


@pytest.mark.parametrize("max_total", (1, 5, 25))
def test_each_check_reads_its_declared_bound(monkeypatch, max_total):
    calls = {}

    def recorder(name):
        def fn(*args):
            calls[name] = args
            return ()
        return fn

    monkeypatch.setattr(verify, "CHECKS", tuple(replace(c, fn=recorder(c.name))
                                               for c in verify.CHECKS))
    assert verify.verify_suite(max_total).ok
    assert calls == {c.name: () if c.cap is None else (min(max_total, c.cap),)
                     for c in verify.CHECKS}


def test_a_crashing_erratum_reports_the_exception_not_its_witness(monkeypatch):
    def crash():
        raise KeyError("gone")

    first, *rest = errata.ERRATA
    monkeypatch.setattr(errata, "ERRATA", (replace(first, confirm=crash), *rest))
    report = verify.verify_suite(1)
    crashed = next(r for r in report.results if r.name == f"erratum-{first.ident}")
    assert (crashed.ok, crashed.detail) == (False, "raised KeyError: 'gone'")
    assert report.unconfirmed_errata == (crashed,) and report.ok


@pytest.mark.parametrize("family", verify._EQUIVALENCES,
                         ids=[e.name for e in verify._EQUIVALENCES])
def test_an_off_by_one_family_is_named_by_both_cross_checks(monkeypatch, family):
    broken = replace(family, value=lambda *args: family.value(*args) + 1)
    monkeypatch.setattr(verify, "_EQUIVALENCES", tuple(broken if e is family else e
                                                       for e in verify._EQUIVALENCES))
    for name in ("counting-oracle-exhaustive", "counting-oracle-random"):
        detail = names_failure(name, verify.MAX_TOTAL)
        assert detail is not None and detail.startswith(f"{family.name}("), (name, detail)


@pytest.mark.parametrize("cell,row", (((3, 3), 3), ((5, 6), 5)), ids=("diagonal", "above"))
def test_scheme_unitriangular_names_a_broken_row(monkeypatch, cell, row):
    build = schemes.build_scheme

    def broken(total):
        table = build(total)
        if total < 9:
            return table
        cells = [list(r) for r in table.cells]
        cells[cell[0]][cell[1]] = 2
        return replace(table, cells=tuple(map(tuple, cells)))

    assert names_failure("scheme-unitriangular") is None
    monkeypatch.setattr(schemes, "build_scheme", broken)
    assert names_failure("scheme-unitriangular") == f"scheme 9 row {row}"


# A corruption that keeps conjugation symmetry: frame (2, 3) and (3, 2) at
# total 9 both off by one.  Comparing each value with its own conjugate
# cannot see it; the oracle's conjugate count does.
SYMMETRIC_PAIR = {(2, 3), (3, 2)}


def test_exact_frame_conjugation_names_a_symmetric_off_by_one(monkeypatch):
    frame = counting.exact_frame
    assert names_failure("exact-frame-conjugation") is None
    monkeypatch.setattr(counting, "exact_frame",
                        lambda a, b, m: frame(a, b, m) + (m == 9 and (a, b) in SYMMETRIC_PAIR))
    assert names_failure("exact-frame-conjugation") == "(2,3,9)"


def test_scheme_symmetry_names_a_symmetric_off_by_one(monkeypatch):
    build = schemes.build_scheme

    def broken(total):
        table = build(total)
        if total != 9:
            return table
        cells = [list(r) for r in table.cells]
        for m1, n in SYMMETRIC_PAIR:
            cells[total - m1][n - 1] += 1
        return replace(table, cells=tuple(map(tuple, cells)))

    assert names_failure("scheme-symmetry") is None
    monkeypatch.setattr(schemes, "build_scheme", broken)
    assert names_failure("scheme-symmetry") == "scheme 9 cell (2,3)"


def test_the_exhaustive_cross_check_reads_every_total_verify_accepts():
    assert check_named("counting-oracle-exhaustive").cap == verify.MAX_TOTAL == 25


@pytest.mark.parametrize("max_total", (True, 5.5, "12", None))
def test_a_non_integer_bound_is_refused_before_any_check(max_total):
    # True passed the range test and failed oracle-determinism; 5.5 failed
    # 14 checks, 13 of them with TypeError.
    with pytest.raises(ValueError, match="^max_total must be an integer$"):
        verify.verify_suite(max_total)


# -- each rewritten stopping condition, sabotaged: the exact detail it reports --

@pytest.mark.parametrize("cell,detail", (
    ((2, 2, 2), "rising side (2,2,2)"),
    ((2, 2, 4), "falling side (2,2,4)"),
), ids=("rising", "falling"))
def test_box_unimodality_names_a_dent(monkeypatch, cell, detail):
    box = counting.p_box
    dent = -2 if detail.startswith("rising") else 2
    monkeypatch.setattr(counting, "p_box",
                        lambda a, b, m: box(a, b, m) + dent * ((a, b, m) == cell))
    assert names_failure("box-unimodality") == detail


def test_binomial_rows_names_a_wrong_row(monkeypatch):
    row = counting.binomial_row
    monkeypatch.setattr(counting, "binomial_row",
                        lambda r: row(r)[::-1] + (0,) if r == 5 else row(r))
    assert names_failure("binomial-rows") == "r=5"


def test_neighbor_row_sums_names_a_wrong_total(monkeypatch):
    total = counting.neighbor_total
    monkeypatch.setattr(counting, "neighbor_total", lambda m: total(m) + (m == 5))
    assert names_failure("neighbor-row-sums") == "m=5"


def test_neighbor_row_sums_names_a_reordered_row(monkeypatch):
    counts = lattices.column_edge_counts
    monkeypatch.setattr(lattices, "column_edge_counts",
                        lambda m: counts(m)[::-1] if m == 5 else counts(m))
    assert names_failure("neighbor-row-sums") == "m=5 row"


@pytest.mark.parametrize("operator,detail", (
    ("summation_matrix", "cumulating the exact table misses the at-most table"),
    ("summation_inverse", "differencing the at-most table misses the exact table"),
), ids=("cumulate", "difference"))
def test_cumulative_table_relation_names_the_broken_direction(monkeypatch, operator, detail):
    make = getattr(intmatrix, operator)

    def broken(n):
        entries = [list(r) for r in make(n).entries]
        entries[3][1] += 1
        return intmatrix.IntMatrix(tuple(map(tuple, entries)))

    monkeypatch.setattr(intmatrix, operator, broken)
    assert names_failure("cumulative-table-relation") == detail


def test_capped_product_box_names_a_one_sided_box(monkeypatch):
    box = counting.p_box
    monkeypatch.setattr(counting, "p_box", lambda a, b, m: box(a, b, m) + ((a, b, m) == (2, 5, 5)))
    assert names_failure("capped-product-box") == "parts<=2 M=5"


def test_capped_product_box_names_a_two_sided_box(monkeypatch):
    caps = series.box_caps
    monkeypatch.setattr(series, "box_caps",
                        lambda a, b: caps(2, 2) if (a, b) == (2, 3) else caps(a, b))
    assert names_failure("capped-product-box") == "box 2x3 M=3"


def test_capped_product_box_names_too_few_factorizations(monkeypatch):
    monkeypatch.setattr(series, "box_caps", lambda a, b: None)
    assert names_failure("capped-product-box") == "only 0 factorizable boxes found"


# Scheme 9, row index i is largest part 9 - i, column index j is j + 1 parts;
# the cells set here are (row 7, column 0) = 0, (7, 4) = 1, (7, 8) = 0, (8, 8) = 1.
@pytest.mark.parametrize("cells,detail", (
    ({(7, 0): 1}, "scheme 9 total"),
    ({(7, 0): 1, (7, 4): 0}, "scheme 9 column 1"),  # within a row: the row sums hold
    ({(7, 8): 1, (8, 8): 0}, "scheme 9 row 1"),     # within a column: the column sums hold
), ids=("total", "column", "row"))
def test_scheme_totals_names_the_first_wrong_sum(monkeypatch, cells, detail):
    build = schemes.build_scheme

    def broken(total):
        table = build(total)
        if total != 9:
            return table
        rows = [list(r) for r in table.cells]
        for (i, j), value in cells.items():
            rows[i][j] = value
        return replace(table, cells=tuple(map(tuple, rows)))

    monkeypatch.setattr(schemes, "build_scheme", broken)
    assert names_failure("scheme-totals") == detail


def test_oracle_uniqueness_names_a_duplicate(monkeypatch):
    every = verify._all_partitions
    monkeypatch.setattr(verify, "_all_partitions", lambda m: every(m) * 2)
    assert names_failure("oracle-uniqueness") == "duplicate at total 0"


def test_oracle_uniqueness_names_a_classifier_miscount(monkeypatch):
    monkeypatch.setattr(verify, "classify", lambda record, field: {0: 2})
    assert names_failure("oracle-uniqueness") == "classifier total mismatch at 0"


def figure_lattice(drop=(), extra=()):
    """The figure's lattice of 7 without the edges ``drop`` and with the
    isolated nodes ``extra``."""
    lat = lattices.build_unit_exchange(7, 7)
    kept = [(i, j) for i, j, e in zip(lat._low, lat._high, lat.edges) if e not in drop]
    return lattices.OrbitLattice(lat.variant, lat.nodes + tuple(extra),
                                 array("I", [i for i, _ in kept]), array("I", [j for _, j in kept]))


@pytest.mark.parametrize("lattice,detail", (
    (lambda: figure_lattice(drop={("3310000", "4300000")}), "missing edge 3310000 -- 4300000"),
    (lambda: figure_lattice(extra=("zzz",)), "node count 16"),
), ids=("edge", "nodes"))
def test_figure_edges_present_names_what_is_missing(monkeypatch, lattice, detail):
    wrong = lattice()
    monkeypatch.setattr(lattices, "build_unit_exchange", lambda total, slots: wrong)
    assert names_failure("figure-edges-present") == detail


def not_regular(monkeypatch):
    monkeypatch.setattr(lattices.OrbitLattice, "degree", lambda self, node: 5)


def test_subset_swap_shape_names_a_wrong_size(monkeypatch):
    build = lattices.build_subset_swap
    monkeypatch.setattr(lattices, "build_subset_swap", lambda bits, ones: build(bits + 1, ones))
    assert names_failure("subset-swap-shape") == "20 nodes, 90 edges"


def test_subset_swap_shape_names_an_irregular_graph(monkeypatch):
    not_regular(monkeypatch)
    assert names_failure("subset-swap-shape") == "not 6-regular"


def test_petersen_shape_names_a_wrong_size(monkeypatch):
    build = lattices.build_subset_double_swap
    monkeypatch.setattr(lattices, "build_subset_double_swap",
                        lambda bits, ones: build(bits + (ones == 3), ones))
    assert names_failure("petersen-shape") == "ones=3: 20/90"


def test_petersen_shape_names_an_irregular_graph(monkeypatch):
    not_regular(monkeypatch)
    assert names_failure("petersen-shape") == "ones=2: not 3-regular"


def test_hypercube_shape_names_a_wrong_size(monkeypatch):
    build = lattices.build_hypercube
    monkeypatch.setattr(lattices, "build_hypercube", lambda dim: build(dim + 1))
    assert names_failure("hypercube-shape") == "16/32"


@pytest.mark.parametrize("patch,detail", (
    (("build_unit_exchange", "build_split_merge"), "unit-exchange 330 -> 411"),
    (("build_split_merge", "build_unit_exchange"), "split-merge 330 -> 411"),
    ("distance", "self distance"),
), ids=("unit-exchange", "split-merge", "self"))
def test_worked_distances_names_the_wrong_distance(monkeypatch, patch, detail):
    if patch == "distance":
        distance = lattices.distance
        monkeypatch.setattr(lattices, "distance", lambda lat, a, b: distance(lat, a, b) or 1)
    else:
        target, source = patch
        monkeypatch.setattr(lattices, target, getattr(lattices, source))
    assert names_failure("worked-distances") == detail


def test_parity_partition_names_a_wrong_odd_count(monkeypatch):
    split = counting.odd_even_mixed

    def broken(m):
        odd, even, mixed, total = split(m)
        return (odd + (m == 7), even, mixed, total)

    monkeypatch.setattr(counting, "odd_even_mixed", broken)
    assert names_failure("parity-partition") == "M=7"


def test_parity_partition_names_a_split_that_keeps_its_own_sum(monkeypatch):
    # odd + 1 and mixed - 1 still add up to p(m), the value the check once
    # compared them with; Euler's distinct count sees the odd count move.
    split = counting.odd_even_mixed

    def broken(m):
        odd, even, mixed, total = split(m)
        return (odd + 1, even, mixed - 1, total) if m == 7 else (odd, even, mixed, total)

    assert names_failure("parity-partition") is None
    monkeypatch.setattr(counting, "odd_even_mixed", broken)
    assert names_failure("parity-partition") == "M=7"


def test_toeplitz_shift_names_a_column_that_is_not_shifted(monkeypatch):
    make = intmatrix.euler_matrix

    @functools.wraps(make)
    def broken(n):
        entries = [list(r) for r in make(n).entries]
        entries[5][3] += 1
        return intmatrix.IntMatrix(tuple(map(tuple, entries)))

    monkeypatch.setattr(intmatrix, "euler_matrix", broken)
    assert names_failure("toeplitz-shift") == "euler_matrix column 3"
