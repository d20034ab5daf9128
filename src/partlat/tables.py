"""Labeled exact-integer tables and their text/JSON forms.

Row and column keys are usually ints (totals, part counts) but may be
strings for composite tables that carry their own sum columns.  Output is
deterministic so it can be diffed and parsed back; the parsers refuse text
that is not such a table with ``ValueError``.  :func:`column_table`
lays a table out from whole columns, as the counting kernel yields them.

:meth:`CountTable.export` streams each format in chunks of about ``_CHUNK``
cells (json: encoder pieces), so a large table is never held as one string,
however wide; the json text is ``json.dumps(table.to_json_dict(), indent=2)``
and a newline.
Lattice exports cut their node and edge chunks with the same ``_slices``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

from .partitions import require_ints

Key = int | str

# Rows, nodes, edges or JSON pieces per chunk of a streamed export.
_CHUNK = 4096
FORMATS = ("tsv", "csv", "json", "md")
# Text format -> (line start, separator, line end).
_LINES = {"tsv": ("", "\t", "\n"), "csv": ("", ",", "\n"), "md": ("| ", " | ", " |\n")}
# The keys of a table's JSON object, in the order the json export writes them.
_JSON_KEYS = ("name", "row_label", "col_label", "rows", "cols", "cells", "row_sums", "col_sums")


@dataclass(frozen=True)
class CountTable:
    name: str
    row_label: str
    col_label: str
    rows: tuple[Key, ...]
    cols: tuple[Key, ...]
    cells: tuple[tuple[int, ...], ...]
    # Whether the text formats append the derived sum column / sum row.
    show_sums: bool = field(default=True, compare=False)

    def __post_init__(self):
        if len(self.cells) != len(self.rows):
            raise ValueError("cell grid height != number of rows")
        if any(len(row) != len(self.cols) for row in self.cells):
            raise ValueError("cell grid width != number of columns")

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.cells))) if self.cells else (0,) * len(self.cols)

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
        return {"name": self.name, "row_label": self.row_label, "col_label": self.col_label,
                "rows": list(self.rows), "cols": list(self.cols),
                "cells": list(map(list, self.cells)),
                "row_sums": list(self.row_sums), "col_sums": list(self.col_sums)}

    def export(self, fmt: str) -> Iterator[str]:
        """The ``tsv``, ``csv``, ``json`` or ``md`` text in chunks."""
        if fmt == "json":
            pieces = json.JSONEncoder(indent=2).iterencode(self.to_json_dict())
            for first in pieces:
                yield first + "".join(islice(pieces, _CHUNK - 1))
            yield "\n"
            return
        if fmt not in _LINES:
            raise ValueError(f"unknown table format {fmt!r}")
        start, sep, end = _LINES[fmt]
        sums = self.show_sums
        head = (f"{self.row_label}\\{self.col_label}", *self.cols) + (("sum",) if sums else ())
        yield start + sep.join(map(str, head)) + end
        if fmt == "md":
            yield "|" + " --- |" * len(head) + "\n"
        # About ``_CHUNK`` cells per chunk, however wide the table.
        size = max(1, _CHUNK // len(head))
        for keys, rows in zip(_slices(self.rows, size), _slices(self.cells, size)):
            yield "".join([start + sep.join(map(str, (key, *row, sum(row)) if sums else (key, *row)))
                           + end for key, row in zip(keys, rows)])
        if sums:
            col_sums = self.col_sums
            yield start + sep.join(map(str, ("sum", *col_sums, sum(col_sums)))) + end

    @classmethod
    def from_json(cls, text: str) -> "CountTable":
        """Inverse of the json export; validates the stored sums.  Text that
        is not such an object raises ``ValueError``."""
        d = json.loads(text)
        if not isinstance(d, dict) or not d.keys() >= set(_JSON_KEYS):
            raise ValueError(f"table JSON must be an object with keys {', '.join(_JSON_KEYS)}")
        try:
            table = cls(d["name"], d["row_label"], d["col_label"], tuple(d["rows"]),
                        tuple(d["cols"]), tuple(map(tuple, d["cells"])))
        except TypeError as exc:
            raise ValueError(f"malformed table JSON: {exc}") from None
        require_ints("each cell", *chain.from_iterable(table.cells))
        if list(table.row_sums) != d["row_sums"] or list(table.col_sums) != d["col_sums"]:
            raise ValueError("stored sums disagree with cells")
        return table

    @classmethod
    def parse_delimited(cls, text: str, sep: str, name: str = "",
                        has_sums: bool = True) -> "CountTable":
        """Inverse of the tsv and csv exports (``sep`` is the separator);
        validates the sum column/row."""
        lines = [ln.split(sep) for ln in text.splitlines() if ln]
        if not lines:
            raise ValueError("no header line")
        end = -1 if has_sums else None  # the sum column and the sum row
        head, body = lines[0], lines[1:end]
        row_label, col_label = head[0].split("\\", 1)
        table = cls(name, row_label, col_label, tuple(_key(line[0]) for line in body),
                    tuple(map(_key, head[1:end])),
                    tuple(tuple(map(int, line[1:end])) for line in body), show_sums=has_sums)
        if has_sums:
            if [int(line[-1]) for line in body] != list(table.row_sums):
                raise ValueError("sum column disagrees with cells")
            if lines[-1] != ["sum", *map(str, table.col_sums), str(table.total)]:
                raise ValueError("sum row disagrees with cells")
        return table


def _key(text: str) -> Key:
    try:
        return int(text)
    except ValueError:
        return text


def _slices(items: Sequence, size: int | None = None) -> Iterator[Sequence]:
    """``items`` in slices of ``size`` (default ``_CHUNK``) items."""
    size = size or _CHUNK
    return (items[start:start + size] for start in range(0, len(items), size))


def column_table(name: str, row_label: str, col_label: str,
                 rows: Sequence[Key], cols: Sequence[Key],
                 columns: Iterable[Iterable[int]], show_sums: bool = True) -> CountTable:
    """Build a table from one column of cells per ``cols`` entry (zeros
    where ``columns`` runs out), each padded with zeros or cut to the rows."""
    height = len(rows)
    padded = [tuple(islice(chain(column, repeat(0)), height))
              for _, column in zip(cols, chain(columns, repeat(())))]
    cells = tuple(zip(*padded)) if padded else ((),) * height
    return CountTable(name, row_label, col_label, tuple(rows), tuple(cols), cells,
                      show_sums=show_sums)
