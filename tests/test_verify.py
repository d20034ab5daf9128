"""Checks of the verify suite itself: a check must be able to fail."""

import pytest

from partlat import verify
from partlat.partitions import MultiplicityVector


def names_failure(name: str, max_total: int = 12) -> str:
    fn = dict(verify.CHECKS)[name]
    return fn(max_total)


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
