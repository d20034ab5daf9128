import json

import pytest

from partlat import errata

REQUIRED = (
    "exact-parts-recurrence",
    "box-recurrence",
    "partition-matrix-offset",
    "layer-seven-list",
)


def test_required_entries_present():
    idents = {e.ident for e in errata.ERRATA}
    for ident in REQUIRED:
        assert ident in idents


def test_idents_unique():
    idents = [e.ident for e in errata.ERRATA]
    assert len(set(idents)) == len(idents)


@pytest.mark.parametrize("entry", errata.ERRATA, ids=lambda e: e.ident)
def test_every_entry_confirms(entry):
    assert entry.confirm(), entry.witness


@pytest.mark.parametrize("entry", errata.ERRATA, ids=lambda e: e.ident)
def test_fields_filled(entry):
    for field in (entry.where, entry.printed, entry.witness, entry.corrected):
        assert field.strip()


def test_lookup():
    by_ident = {e.ident: e for e in errata.ERRATA}
    assert by_ident["box-recurrence"].printed.startswith("p(m,n,M)")
    assert "nonexistent" not in by_ident


def test_text_rendering_lists_all():
    text = errata.render_text()
    for e in errata.ERRATA:
        assert e.ident in text
        assert e.witness in text


def test_json_rendering_round_trips():
    data = json.loads(errata.render_json())
    assert len(data) == len(errata.ERRATA)
    assert {d["ident"] for d in data} == {e.ident for e in errata.ERRATA}
