"""Labeled exact-integer tables and their text/JSON forms.

Row and column keys are usually ints (totals, part counts) but may be
strings for composite tables that carry their own sum columns.  Rendered
output is deterministic so it can be diffed and parsed back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

Key = int | str


@dataclass(frozen=True)
class CountTable:
    name: str
    row_label: str
    col_label: str
    rows: tuple[Key, ...]
    cols: tuple[Key, ...]
    cells: tuple[tuple[int, ...], ...]
    # Whether renderers append the derived sum column / sum row.
    show_sums: bool = field(default=True, compare=False)

    def __post_init__(self):
        if len(self.cells) != len(self.rows):
            raise ValueError("cell grid height != number of rows")
        for row in self.cells:
            if len(row) != len(self.cols):
                raise ValueError("cell grid width != number of columns")

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.cells) for j in range(len(self.cols)))

    @property
    def total(self) -> int:
        return sum(self.row_sums)

    def cell(self, row: Key, col: Key) -> int:
        return self.cells[self.rows.index(row)][self.cols.index(col)]

    def row(self, row: Key) -> tuple[int, ...]:
        return self.cells[self.rows.index(row)]

    def column(self, col: Key) -> tuple[int, ...]:
        j = self.cols.index(col)
        return tuple(r[j] for r in self.cells)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "row_label": self.row_label,
            "col_label": self.col_label,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "cells": [list(r) for r in self.cells],
            "row_sums": list(self.row_sums),
            "col_sums": list(self.col_sums),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CountTable":
        d = json.loads(text)
        table = cls(
            name=d["name"],
            row_label=d["row_label"],
            col_label=d["col_label"],
            rows=tuple(d["rows"]),
            cols=tuple(d["cols"]),
            cells=tuple(tuple(r) for r in d["cells"]),
        )
        if list(table.row_sums) != d["row_sums"] or list(table.col_sums) != d["col_sums"]:
            raise ValueError("stored sums disagree with cells")
        return table

    def _grid(self) -> list[list[str]]:
        head = [f"{self.row_label}\\{self.col_label}"] + [str(c) for c in self.cols]
        body = [[str(r)] + [str(v) for v in row] for r, row in zip(self.rows, self.cells)]
        if self.show_sums:
            head.append("sum")
            for line, s in zip(body, self.row_sums):
                line.append(str(s))
            body.append(["sum"] + [str(v) for v in self.col_sums] + [str(self.total)])
        return [head] + body

    def to_delimited(self, sep: str) -> str:
        return "".join(sep.join(line) + "\n" for line in self._grid())

    def to_tsv(self) -> str:
        return self.to_delimited("\t")

    def to_csv(self) -> str:
        return self.to_delimited(",")

    def to_markdown(self) -> str:
        grid = self._grid()
        out = ["| " + " | ".join(grid[0]) + " |"]
        out.append("|" + "|".join(" --- " for _ in grid[0]) + "|")
        for line in grid[1:]:
            out.append("| " + " | ".join(line) + " |")
        return "\n".join(out) + "\n"

    @classmethod
    def parse_delimited(cls, text: str, sep: str, name: str = "",
                        has_sums: bool = True) -> "CountTable":
        """Inverse of :meth:`to_delimited`; validates the sum column/row."""
        lines = [ln.split(sep) for ln in text.splitlines() if ln]
        head, body = lines[0], lines[1:]
        row_label, col_label = head[0].split("\\", 1)
        cols = [_key(c) for c in (head[1:-1] if has_sums else head[1:])]
        if has_sums:
            body, sum_row = body[:-1], body[-1]
        rows = [_key(line[0]) for line in body]
        cells = tuple(
            tuple(int(v) for v in (line[1:-1] if has_sums else line[1:])) for line in body
        )
        table = cls(name, row_label, col_label, tuple(rows), tuple(cols), cells,
                    show_sums=has_sums)
        if has_sums:
            claimed = [int(line[-1]) for line in body]
            if claimed != list(table.row_sums):
                raise ValueError("sum column disagrees with cells")
            if sum_row != ["sum", *map(str, table.col_sums), str(table.total)]:
                raise ValueError("sum row disagrees with cells")
        return table


def _key(text: str) -> Key:
    try:
        return int(text)
    except ValueError:
        return text


# Table format -> the CountTable method that renders it.
FORMATS = {"tsv": "to_tsv", "csv": "to_csv", "json": "to_json", "md": "to_markdown"}


def render(table: CountTable, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    return getattr(table, FORMATS[fmt])()


def grid_table(name: str, row_label: str, col_label: str,
               rows: Sequence[Key], cols: Sequence[Key],
               cell, show_sums: bool = True) -> CountTable:
    """Build a table by evaluating ``cell(row, col)`` over the axes."""
    cells = tuple(tuple(cell(r, c) for c in cols) for r in rows)
    return CountTable(name, row_label, col_label, tuple(rows), tuple(cols), cells,
                      show_sums=show_sums)
