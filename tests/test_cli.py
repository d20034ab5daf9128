import argparse
import hashlib
import io
import json
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from partlat import cli, oracle, tables
from partlat.counting import atmost_table, box_table, exact_table, odd_even_mixed_table, p, p_box
from partlat.schemes import build_scheme
from partlat.tables import CountTable


def run_cli(*argv):
    out = io.StringIO()
    status = cli.run(list(argv), out=out)
    return status, out.getvalue()


def export_reference(table):
    """Each format's text, built here from the table's fields."""
    sums = table.show_sums
    grid = [[f"{table.row_label}\\{table.col_label}", *table.cols] + (["sum"] if sums else [])]
    for key, row in zip(table.rows, table.cells):
        grid.append([key, *row] + ([sum(row)] if sums else []))
    col_sums = [sum(row[j] for row in table.cells) for j in range(len(table.cols))]
    if sums:
        grid.append(["sum", *col_sums, sum(col_sums)])
    lines = [list(map(str, line)) for line in grid]
    md = ["| " + " | ".join(line) + " |\n" for line in lines]
    md.insert(1, "|" + "|".join([" --- "] * len(lines[0])) + "|\n")
    fields = {"name": table.name, "row_label": table.row_label, "col_label": table.col_label,
              "rows": list(table.rows), "cols": list(table.cols),
              "cells": [list(row) for row in table.cells],
              "row_sums": [sum(row) for row in table.cells], "col_sums": col_sums}
    return {"tsv": "".join("\t".join(line) + "\n" for line in lines),
            "csv": "".join(",".join(line) + "\n" for line in lines),
            "json": json.dumps(fields, indent=2) + "\n",
            "md": "".join(md)}


MID_SIZES = ["--max", "20", "--size", "20", "--edge", "8", "--dim", "8", "--total", "14"]
PINNED_TABLES = {
    "table exact": "b92c34e7aaef7ea713436285cabdb9ef8404ae026be2d2c179dc085f6e7ba8af",
    "table atmost": "8b04a7b318f89bf19585fb1ae5ba1779423040183134fb9d029e9ff3cf094e8f",
    "table odd-even-mixed": "dce3c79c00a1e2aa557aac54ce560b389bf9767b06b6e3922ddd153d98d02062",
    "table distinct": "422cf838e16c123b6608ce1850edafb652a1e12d6601c08a4d5e7abc63301a29",
    "table unit-diff": "4d927d336f8d5399ef634e8db1e5855b605094bbbfc1c1a92a915bf7de216174",
    "table euler": "62a1987f02c253dea86dec2ffd77e039abb2f9bdd2a8525f8170fbabb65fe38e",
    "table euler-inverse": "9a7f9c3b844dc28ef796a9cf5b1e345b6db0bb4d1e575c5c35470c3542751242",
    "table inverse-exact": "c34172acc265ed118c4818f2304a24f73b88f4a23a30dc2943b6978e0ba5c02b",
    "table inverse-unit-diff": "6cc0f8f425c35abb7777f864afbb7351b030864e335edfef905105875c329033",
    "table box": "a7d42b2d1d385449be37f931bb81655a75d1a2c879a9845634767bec6f997a8e",
    "table scheme": "25bbdba5d7ad5de9c1125b5e0d93db9f06d93afc87658cfbdbd699ec129dd82b",
    "table neighbors": "3ee2041759bccb93275bc8be2ef2141f6a2a0bf713963e977c774441cb0127e3",
    "table layers": "b72d152b7f096d80ddb33b377837f13ab80ec2b09a968853323ac283c0246d6e",
    "table binomial": "733721a524c5e69054f407d02e788ca4163f73fdf0abeb9b4bee11daef94fa21",
    "scheme --total 14": "25bbdba5d7ad5de9c1125b5e0d93db9f06d93afc87658cfbdbd699ec129dd82b",
    "scheme --total 14 --inverse": "ac63700e158b4283de734c3017b7e541a73e4d8f194665c003378f352e617ddd",
}


class TestTableCommand:
    def test_exact_tsv_golden_row(self):
        status, text = run_cli("table", "exact", "--max", "6", "--format", "tsv")
        assert status == 0
        lines = text.splitlines()
        assert lines[0] == "m\\n\t0\t1\t2\t3\t4\t5\t6\tsum"
        assert lines[7] == "6\t0\t1\t3\t3\t2\t1\t1\t11"
        assert lines[8].startswith("sum\t") and lines[8].endswith("\t30")

    def test_sum_column_is_the_partition_sequence(self):
        _, text = run_cli("table", "exact", "--max", "6")
        table = CountTable.parse_delimited(text, "\t", name="exact")
        assert table.row_sums == (1, 1, 2, 3, 5, 7, 11)

    def test_json_round_trip(self):
        status, text = run_cli("table", "exact", "--max", "6", "--format", "json")
        assert status == 0
        assert CountTable.from_json(text) == exact_table(6)

    def test_tsv_round_trip(self):
        _, text = run_cli("table", "exact", "--max", "5")
        parsed = CountTable.parse_delimited(text, "\t", name="exact")
        assert parsed.cells == exact_table(5).cells
        assert parsed.rows == exact_table(5).rows

    @pytest.mark.parametrize("line,message", (
        (-1, "sum row disagrees with cells"),
        (3, "sum column disagrees with cells"),
    ))
    def test_parse_checks_the_sums(self, line, message):
        _, text = run_cli("table", "exact", "--max", "4")
        assert CountTable.parse_delimited(text, "\t").total == 12
        lines = text.splitlines()
        lines[line] = "\t".join(lines[line].split("\t")[:1] + ["9"] * 5 + ["999"])
        with pytest.raises(ValueError, match=message):
            CountTable.parse_delimited("\n".join(lines) + "\n", "\t")

    @pytest.mark.parametrize("chunk", (1, 2, 3, 4096))
    @pytest.mark.parametrize("fmt", tables.FORMATS)
    def test_export_chunks_join_to_the_reference_text(self, monkeypatch, fmt, chunk):
        monkeypatch.setattr(tables, "_CHUNK", chunk)
        for table in (exact_table(9), atmost_table(9), odd_even_mixed_table(7), exact_table(-1)):
            chunks = list(table.export(fmt))
            assert "".join(chunks) == export_reference(table)[fmt], table.name
            if fmt != "json":
                assert max(c.count("\n") for c in chunks) <= chunk

    @pytest.mark.parametrize("fmt", ("tsv", "csv", "md"))
    def test_wide_export_chunks_by_cells(self, monkeypatch, fmt):
        monkeypatch.setattr(tables, "_CHUNK", 64)
        table = box_table(12, 30)  # 15 cells a line with the key and sum: 4 lines a chunk
        chunks = list(table.export(fmt))
        assert "".join(chunks) == export_reference(table)[fmt]
        assert max(c.count("\n") for c in chunks) == 4

    @pytest.mark.parametrize("rows,cols,message", (
        ((0, 1), (0,), "cell grid height != number of rows"),
        ((0,), (0, 1), "cell grid width != number of columns"),
    ))
    def test_refuses_a_grid_of_the_wrong_shape(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            CountTable("t", "m", "n", rows, cols, ((1,),))

    @pytest.mark.parametrize("key", ("row_sums", "col_sums"))
    def test_from_json_checks_the_sums(self, key):
        d = exact_table(4).to_json_dict()
        d[key][-1] += 1
        with pytest.raises(ValueError, match="stored sums disagree with cells"):
            CountTable.from_json(json.dumps(d))

    def test_string_keys_round_trip(self):
        table = odd_even_mixed_table(7)
        text = "".join(table.export("tsv"))
        parsed = CountTable.parse_delimited(text, "\t", name="odd-even-mixed", has_sums=False)
        assert parsed == table
        assert parsed.cols[-4:] == ("odd", "even", "mixed", "p")

    def test_export_refuses_an_unknown_format(self):
        with pytest.raises(ValueError, match="unknown table format 'xml'"):
            list(exact_table(4).export("xml"))

    @pytest.mark.parametrize("chunk", (16, 4096))
    @pytest.mark.parametrize("fmt", tables.FORMATS)
    def test_written_in_chunks_as_the_whole_export(self, monkeypatch, fmt, chunk):
        monkeypatch.setattr(tables, "_CHUNK", chunk)
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        assert cli.run(["table", "exact", "--max", "200", "--format", fmt], out=Recorder()) == 0
        assert "".join(writes) == export_reference(exact_table(200))[fmt]
        assert len(writes) > 1
        if fmt != "json":
            assert max(w.count("\n") for w in writes) <= chunk

    @pytest.mark.parametrize("command,digest", PINNED_TABLES.items(), ids=list(PINNED_TABLES))
    def test_pinned_table_bytes(self, command, digest):
        # sha256 of the tsv, csv, json and md stdout in turn, recorded from
        # the whole-string renderers that export replaced.
        argv = command.split() + (MID_SIZES if command.startswith("table") else [])
        text = "".join(run_cli(*argv, "--format", fmt)[1] for fmt in tables.FORMATS)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_csv_and_markdown(self):
        status, text = run_cli("table", "atmost", "--max", "4", "--format", "csv")
        assert status == 0 and text.splitlines()[0].startswith("m\\n,")
        status, text = run_cli("table", "distinct", "--max", "6", "--format", "md")
        assert status == 0 and text.startswith("| m\\n |")

    @pytest.mark.parametrize("name", cli.TABLES)
    def test_every_table_renders(self, name):
        status, text = run_cli("table", name)
        assert status == 0 and text

    def test_scheme_table_via_table_command(self):
        _, text = run_cli("table", "scheme", "--total", "7")
        parsed = CountTable.parse_delimited(text, "\t", name="scheme")
        assert parsed.cells == build_scheme(7).cells

    def test_unknown_name_usage_error(self):
        status, _ = run_cli("table", "nonsense")
        assert status == 2

    def test_size_cap(self):
        status, _ = run_cli("table", "exact", "--max", "1000")
        assert status == 2


class TestCountCommand:
    def test_count_only(self):
        status, text = run_cli("count", "--total", "7")
        assert status == 0 and text == "15\n"

    def test_listing(self):
        status, text = run_cli(
            "count", "--total", "8", "--exact-max-part", "4", "--exact-parts", "3", "--list")
        assert status == 0
        assert text.splitlines() == ["431", "422", "2"]

    def test_invalid_combination(self):
        status, _ = run_cli("count", "--total", "5", "--max-parts", "2", "--exact-parts", "2")
        assert status == 2

    def test_cap_violation_names_bound(self):
        status, _ = run_cli("count", "--total", "90")
        assert status == 2

    def test_empty_partition_has_hook_frame_zero(self):
        assert run_cli("count", "--total", "0", "--hook-frame", "0") == (0, "1\n")
        assert run_cli("count", "--total", "0", "--hook-frame", "0", "--list") == (0, "\n1\n")

    def test_listing_pads_to_the_part_bound(self):
        status, text = run_cli("count", "--total", "11", "--max-parts", "3",
                               "--min-part", "4", "--list")
        assert status == 0 and text.splitlines() == ["11,0,0", "740", "650", "3"]

    @pytest.mark.parametrize("field", [f.name for f in fields(oracle.ConstraintRecord)
                                       if f.name != "total"])
    def test_every_record_field_is_a_flag(self, field):
        values = oracle.PARITY_CHOICES if field == "parity" else range(14)
        flag = "--" + field.replace("_", "-")
        for v in values:
            want = oracle.count(oracle.ConstraintRecord(total=12, **{field: v}))
            assert run_cli("count", "--total", "12", flag, str(v)) == (0, f"{want}\n"), v

    def test_help_is_pinned(self, monkeypatch, capsys):
        # sha256 of `count --help` as argparse lays it out at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli("count", "--help") == (0, "")
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "53d6cce31fdec03d07d04cbc22e427a1526e79563f596263a0ffb7f570183990"


def flag_list_bound(a):
    """The --list matches bound written out from the flags."""
    size = min(b for b in (a.max_part, a.exact_max_part, a.total) if b is not None)
    parts = min(b for b in (a.max_parts, a.exact_parts, a.total) if b is not None)
    return p_box(size, parts, a.total)


def flag_list_width(a):
    """The --list width written out from the flags."""
    return next((b for b in (a.exact_parts, a.max_parts) if b is not None), 0)


def test_list_bound_and_width_restate_the_flags():
    parser = cli.build_parser()
    for total in range(21):
        base = vars(parser.parse_args(["count", "--total", str(total)]))
        values = sorted({v for v in (0, 1, 2, total // 2, total - 1, total, total + 1, total + 3)
                         if v >= 0})
        sizes = [{}] + [{name: v} for name in ("max_part", "exact_max_part") for v in values]
        counts = [{}] + [{name: v} for name in ("max_parts", "exact_parts") for v in values]
        for size in sizes:
            for slots in counts:
                for listing in (False, True):
                    a = argparse.Namespace(**{**base, **size, **slots, "list": listing})
                    assert cli._list_bound(a) == (flag_list_bound(a) if listing else 0), a
                    assert cli._list_width(a) == (flag_list_width(a) if listing else 0), a


class TestSchemeCommand:
    def test_scheme_body(self):
        status, text = run_cli("scheme", "--total", "7")
        assert status == 0
        parsed = CountTable.parse_delimited(text, "\t", name="scheme")
        assert parsed.col_sums == (1, 3, 4, 3, 2, 1, 1)

    def test_inverse_rows(self):
        status, text = run_cli("scheme", "--total", "7", "--inverse")
        assert status == 0
        parsed = CountTable.parse_delimited(text, "\t", name="scheme-inverse", has_sums=False)
        assert parsed.rows == (7, 6, 5, 4, 3, 2, 1)
        assert parsed.row(3) == (0, 2, -1, -1, 1, 0, 0)
        assert parsed.row(2) == (0, -2, 2, 0, -1, 1, 0)


class TestLatticeCommand:
    def test_hypercube_edges(self):
        status, text = run_cli("lattice", "--variant", "hypercube", "--dim", "3")
        assert status == 0
        assert len(text.strip().split("\n")) == 12

    def test_dot_format(self):
        status, text = run_cli("lattice", "--variant", "subset-double-swap",
                               "--bits", "5", "--ones", "2", "--format", "dot")
        assert status == 0
        assert text.count(" -- ") == 15

    def test_json_format(self):
        status, text = run_cli("lattice", "--variant", "unit-exchange",
                               "--total", "7", "--format", "json")
        assert status == 0
        data = json.loads(text)
        assert len(data["nodes"]) == 15

    @pytest.mark.parametrize("fmt", ("edges", "dot", "json"))
    def test_written_in_chunks_as_the_whole_export(self, monkeypatch, fmt):
        lat = cli.lattices.build_split_merge(12, 12)
        whole = {"edges": lat.to_edge_list(), "dot": lat.to_dot(),
                 "json": json.dumps(lat.to_json_dict(), indent=2) + "\n"}[fmt]
        sizes = []

        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        monkeypatch.setattr(tables, "_CHUNK", 16)
        out = Recorder()
        status = cli.run(["lattice", "--variant", "split-merge", "--total", "12",
                          "--format", fmt], out=out)
        assert status == 0 and out.getvalue() == whole
        assert len(sizes) > 10 and max(sizes) < len(whole) / 4

    def test_missing_parameters(self):
        status, _ = run_cli("lattice", "--variant", "hypercube")
        assert status == 2

    def test_zero_slots_refused(self, capsys):
        status, text = run_cli("lattice", "--variant", "unit-exchange",
                               "--total", "5", "--slots", "0")
        assert status == 2 and text == ""
        assert "slots must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ("unit-exchange", "split-merge"))
    def test_zero_total_defaults_to_one_slot(self, capsys, variant):
        # --slots defaulted to the total, so this exited 2 on "slots must be >= 1".
        for fmt in ("edges", "dot", "json"):
            status, text = run_cli("lattice", "--variant", variant, "--total", "0",
                                   "--format", fmt)
            assert status == 0 and capsys.readouterr().err == ""
            assert (status, text) == run_cli("lattice", "--variant", variant, "--total", "0",
                                             "--slots", "1", "--format", fmt)
        _, dot = run_cli("lattice", "--variant", variant, "--total", "0", "--format", "dot")
        assert dot == f'graph "{variant}" {{\n  "0";\n}}\n'

    def test_negative_total_refused(self, capsys):
        status, text = run_cli("lattice", "--variant", "unit-exchange", "--total", "-1")
        assert status == 2 and text == ""
        assert "total must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("variant,total,message", (
        ("unit-exchange", "45", "edge count exceeds the cap 1000000: 1166600 edges"),
        ("split-merge", "60", "edge count exceeds the cap 1000000"),
        ("unit-exchange", "1000000000", "exceeds the enumeration cap 80"),
    ))
    def test_over_cap_partition_lattice_draws_nothing(self, monkeypatch, capsys,
                                                      variant, total, message):
        real = cli.lattices.oracle.iter_parts

        def iter_parts(record):
            stream = real(record)  # the call refuses a total past the enumeration cap
            return (pytest.fail("a partition was drawn") for _ in stream)

        monkeypatch.setattr(cli.lattices.oracle, "iter_parts", iter_parts)
        status, text = run_cli("lattice", "--variant", variant, "--total", total)
        assert status == 2 and text == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,size", (
        (("hypercube", "--dim", "20"), "2^20"),
        (("hypercube", "--dim", "20000"), "2^20000"),
        (("hypercube", "--dim", "100000000"), "2^100000000"),
        (("subset-swap", "--bits", "20000", "--ones", "10000"), "C(20000, 10000)"),
        (("subset-double-swap", "--bits", "2000000", "--ones", "1000000"),
         "C(2000000, 1000000)"),
        (("subset-swap", "--bits", "100000000", "--ones", "99999999"),
         "C(100000000, 99999999)"),
    ))
    def test_over_cap_bit_lattice_refused_from_parameters(self, capsys, argv, size):
        variant, *params = argv
        start = time.perf_counter()
        status, text = run_cli("lattice", "--variant", variant, *params)
        assert time.perf_counter() - start < 1
        assert status == 2 and text == ""
        assert f"node count exceeds the cap 1000000: {size} nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (
        ("split-merge", "--total", "8", "--slots"),
        ("unit-exchange", "--total", "3", "--slots"),
        ("subset-double-swap", "--ones", "1", "--bits"),
        ("subset-swap", "--ones", "0", "--bits"),
    ))
    def test_label_width_cap(self, monkeypatch, capsys, argv):
        variant, *params = argv
        cap = cli.lattices.WIDTH_CAP
        status, text = run_cli("lattice", "--variant", variant, *params, str(cap))
        assert status == 0 and text.count("\n") == text.count(" -- ")
        monkeypatch.setattr(cli.lattices, "label_of", fail)
        monkeypatch.setattr(cli.lattices, "_collect", fail)
        for huge in (cap + 1, 10 ** 5):
            start = time.perf_counter()
            status, text = run_cli("lattice", "--variant", variant, *params, str(huge))
            assert time.perf_counter() - start < 0.3
            assert status == 2 and text == ""
            assert f"label width {huge} exceeds the cap {cap}" in capsys.readouterr().err


class TestSeriesCommand:
    def test_partition_series(self):
        status, text = run_cli("series", "--kind", "partition", "--order", "6")
        assert status == 0 and text == "1 1 2 3 5 7 11\n"

    def test_euler_series(self):
        status, text = run_cli("series", "--kind", "euler", "--order", "7")
        assert status == 0 and text == "1 -1 -1 0 0 1 0 1\n"

    def test_capped(self):
        status, text = run_cli("series", "--kind", "capped", "--order", "9",
                               "--caps", "1:4,2:1,3:1")
        assert status == 0
        assert text == "1 1 2 3 3 3 3 2 1 1\n"

    def test_capped_requires_caps(self, capsys):
        for caps in ((), ("--caps", "")):
            status, text = run_cli("series", "--kind", "capped", *caps)
            assert status == 2 and text == ""
            assert capsys.readouterr().err == "error: series --kind capped requires --caps\n"

    @pytest.mark.parametrize("caps, entry", (
        (",", "''"), ("1:x", "'1:x'"), ("1:2:3", "'1:2:3'"), ("1:2,,3", "''"), ("x", "'x'"),
    ))
    def test_capped_names_a_malformed_entry(self, capsys, caps, entry):
        status, text = run_cli("series", "--kind", "capped", "--caps", caps)
        assert status == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: --caps entry {entry} is not part:cap, part:* or part\n")

    @pytest.mark.parametrize("kind", ("euler", "partition", "distinct", "distinct-signed"))
    def test_negative_order_refused(self, kind, capsys):
        status, text = run_cli("series", "--kind", kind, "--order", "-5")
        assert status == 2 and text == ""
        assert f"error: --order must be in 0..{cli.MAX_SERIES_ORDER}" in capsys.readouterr().err

    def test_order_cap(self, capsys):
        status, text = run_cli("series", "--kind", "euler", "--order", str(cli.MAX_SERIES_ORDER + 1))
        assert status == 2 and text == ""
        assert f"--order must be in 0..{cli.MAX_SERIES_ORDER}" in capsys.readouterr().err


def registry_ranges():
    """(argv that selects the entry, range) for every range of the registry."""
    for name, entry in cli.TABLES.items():
        for r in entry.ranges:
            yield pytest.param(("table", name), r, id=f"table-{name}{r.flag}")
    for kind, entry in cli.SERIES_KINDS.items():
        caps = ("--caps", "1:2,3:*") if kind == "capped" else ()
        for r in entry.ranges:
            yield pytest.param(("series", "--kind", kind, *caps), r, id=f"series-{kind}{r.flag}")
    for command, ranges in cli.COMMAND_RANGES.items():
        for r in ranges:
            yield pytest.param((command,), r, id=f"{command}{r.flag}".replace(" ", "-"))


def with_value(r, value):
    """Arguments that give range ``r`` the value ``value``.  Of the derived
    ranges, the --list width is the --max-parts a listing pads to, and the
    --list match bound is p(total) for an unrestricted listing, so its
    values are partition numbers."""
    if r.value is None:
        return (r.flag, str(value))
    if r.flag == "--list width":
        return ("--total", "3", "--max-parts", str(value), "--list")
    assert r.flag == "--list matches"
    return ("--total", str(next(t for t in range(100) if p(t) >= value)), "--list")


def just_outside(r, cap):
    """The value of the smallest call past ``cap``: cap + 1, or for the list
    match bound the next partition number."""
    if r.flag != "--list matches":
        return cap + 1
    return next(p(t) for t in range(100) if p(t) > cap)


def fail(*_):
    raise AssertionError("the builder ran")


def patch_registry(monkeypatch, argv, r, small, builder=None):
    """Swap range ``r`` for ``small`` in the entry ``argv`` selects and,
    when ``builder`` is given, that entry's builder for it."""
    def swap(ranges):
        return tuple(small if x == r else x for x in ranges)

    if argv[0] in ("table", "series"):
        registry = cli.TABLES if argv[0] == "table" else cli.SERIES_KINDS
        key = argv[1] if argv[0] == "table" else argv[2]
        entry = registry[key]
        monkeypatch.setitem(registry, key, entry._replace(ranges=swap(entry.ranges),
                                                           build=builder or entry.build))
        return
    monkeypatch.setitem(cli.COMMAND_RANGES, argv[0], swap(cli.COMMAND_RANGES[argv[0]]))
    if builder is not None:
        if argv[0] == "scheme":
            monkeypatch.setattr(cli.schemes, "build_scheme", builder)
        else:
            monkeypatch.setattr(cli.oracle, "iter_parts", builder)


class TestCostRegistry:
    @pytest.mark.parametrize("argv,r", registry_ranges())
    def test_small_cap_admits_the_cap_and_refuses_past_it(self, monkeypatch, capsys, argv, r):
        cap = r.low + 3 if r.value is None else p(5)
        small = r._replace(cap=cap)
        patch_registry(monkeypatch, argv, r, small)
        status, text = run_cli(*argv, *with_value(r, cap))
        assert status == 0 and text
        patch_registry(monkeypatch, argv, small, small, builder=fail)
        outside = [just_outside(r, cap)] + ([r.low - 1] if r.value is None else [])
        for value in outside:
            status, text = run_cli(*argv, *with_value(r, value))
            assert status == 2 and text == ""
            assert f"error: {r.flag} must be in {r.low}..{cap}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("argv,r", registry_ranges())
    def test_just_past_the_real_cap_refused_fast(self, monkeypatch, capsys, argv, r):
        patch_registry(monkeypatch, argv, r, r, builder=fail)
        start = time.perf_counter()
        status, text = run_cli(*argv, *with_value(r, just_outside(r, r.cap)))
        assert time.perf_counter() - start < 0.3
        assert status == 2 and text == ""
        assert f"{r.flag} must be in {r.low}..{r.cap}" in capsys.readouterr().err

    def test_flags_a_table_does_not_read_are_not_capped(self):
        assert run_cli("table", "exact", "--max", "3", "--size", "501")[0] == 0
        assert run_cli("table", "euler", "--size", "3", "--max", "201")[0] == 0

    def test_list_bound_reads_the_part_bounds(self, monkeypatch, capsys):
        # p(80) is far past the cap; its partitions into at most 3 parts are not.
        status, text = run_cli("count", "--total", "80", "--max-parts", "3", "--list")
        assert status == 0 and int(text.split()[-1]) == p_box(80, 3, 80)
        # Past the oracle's cap the bound is not computed; the oracle refuses.
        status, _ = run_cli("count", "--total", "1000000000", "--list")
        assert status == 2 and "enumeration cap" in capsys.readouterr().err
        monkeypatch.setattr(cli.oracle, "iter_parts", fail)
        status, _ = run_cli("count", "--total", "80", "--exact-max-part", "60", "--list")
        assert status == 2 and "--list matches must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ("--max-parts", "--exact-parts"))
    def test_list_width_refused_before_any_partition(self, monkeypatch, capsys, bound):
        monkeypatch.setattr(cli.oracle, "iter_parts", fail)
        for width in (cli.lattices.WIDTH_CAP + 1, 10 ** 7):
            start = time.perf_counter()
            status, text = run_cli("count", "--total", "2", bound, str(width), "--list")
            assert time.perf_counter() - start < 0.3
            assert status == 2 and text == ""
            assert capsys.readouterr().err == (
                f"error: --list width must be in 0..{cli.lattices.WIDTH_CAP}\n")
        monkeypatch.undo()
        # The width is read only with --list, and a listing at the cap runs.
        assert run_cli("count", "--total", "2", bound, "10000000")[0] == 0
        status, text = run_cli("count", "--total", "2", "--max-parts", str(cli.lattices.WIDTH_CAP),
                               "--list")
        assert status == 0 and len(text.splitlines()[0]) == cli.lattices.WIDTH_CAP

    @pytest.mark.parametrize("error", (MemoryError, RecursionError))
    def test_crash_exits_2_with_one_line(self, monkeypatch, capsys, error):
        def crash(_):
            raise error()

        entry = cli.TABLES["exact"]
        monkeypatch.setitem(cli.TABLES, "exact", entry._replace(build=crash))
        status, text = run_cli("table", "exact")
        err = capsys.readouterr().err
        assert status == 2 and text == ""
        assert err.startswith("error: ") and error.__name__ in err and err.count("\n") == 1


class TestVerifyCommand:
    def test_passes_at_default_depth(self):
        status, text = run_cli("verify", "--max", "8")
        assert status == 0
        assert "FAIL" not in text
        assert "erratum-confirmed" in text
        assert "pentagonal-vs-rowsum" in text

    def test_pinned_report_bytes(self):
        # sha256 of `verify --max 14` stdout: every check's name, order and
        # pass line, and every erratum line.
        status, text = run_cli("verify", "--max", "14")
        assert status == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "381353fa200b8cd176f40c61134829f31bda0771258079df3b905e6aba2755d9")

    def test_max_out_of_range(self):
        status, _ = run_cli("verify", "--max", "40")
        assert status == 2


class TestErrataCommand:
    def test_text_output(self):
        status, text = run_cli("errata")
        assert status == 0
        assert "box-recurrence" in text

    def test_json_output(self):
        status, text = run_cli("errata", "--format", "json")
        assert status == 0
        assert len(json.loads(text)) >= 4


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "exact", "--max", "6"),
            ("table", "layers", "--max", "12", "--format", "json"),
            ("scheme", "--total", "13"),
            ("lattice", "--variant", "unit-exchange", "--total", "7", "--format", "dot"),
            ("series", "--kind", "distinct", "--order", "12"),
            ("errata",),
        ],
    )
    def test_identical_bytes_across_runs(self, argv):
        assert run_cli(*argv) == run_cli(*argv)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "partlat.cli", "count", "--total", "6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "11\n"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "partlat.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [("table", "exact", "--max", "200"),
                                  ("count", "--total", "36", "--list")])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    """``partlat ... | head -1``: the reader closes the pipe after one line."""
    proc = subprocess.Popen([sys.executable, "-m", "partlat.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first and stderr == b""
