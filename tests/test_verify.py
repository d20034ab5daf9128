"""Checks of the verify suite itself: a check must be able to fail."""

from dataclasses import replace

import pytest

from partlat import counting, errata, lattices, schemes, verify
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


@pytest.mark.parametrize("max_total", (1, 5, 25))
def test_each_check_reads_its_declared_bound(monkeypatch, max_total):
    calls = {}

    def recorder(name):
        def fn(*args):
            calls[name] = args
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
