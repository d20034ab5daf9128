"""Span tracing of partlat's layers, from outside the package.

The traced run installs a timing wrapper on every public function and public
method of each partlat module (operator methods included), on every
reference to them held in any partlat namespace and on each erratum's
``confirm`` check, then restores the originals.  A wrapper opens a span only
when the innermost open span belongs to another layer, so recursive
``@cache`` calls and calls inside one module pass straight through; a call
back into a layer from a layer it called (counting -> tables -> counting)
opens a new span, so self times stay with the layer doing the work.

Spans live in flat arrays (name id, start, end, parent index, op id) and are
written out once, at the end of the run.  A layer's self time is the sum over
its spans of duration minus the time covered by direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "tables", "counting", "series", "intmatrix", "schemes",
          "oracle", "partitions", "lattices", "verify", "errata")

# Operator methods are part of the public surface even though they start
# with an underscore (``s * t``, ``a @ b``).
OPERATORS = ("__mul__", "__matmul__", "__add__", "__sub__")

LATTICE_QUERIES = ("distance", "neighbors", "degree")
LATTICE_EXPORTS = ("to_edge_list", "to_dot", "to_json_dict")
TABLE_RENDERERS = ("render", "to_tsv", "to_csv", "to_json", "to_markdown",
                   "to_delimited", "to_json_dict")

# Counters merged by maximum instead of by sum.
MAX_COUNTERS = ("counting.cache_entries", "series.cache_entries")

IMPORT_SPAN = "cli.import"


def _cells(result) -> int:
    rows, cols = getattr(result, "rows", None), getattr(result, "cols", None)
    if isinstance(rows, int) and isinstance(cols, int):
        return rows * cols
    if isinstance(rows, tuple) and isinstance(cols, tuple):
        return len(rows) * len(cols)
    return 0


def _result_counter(layer: str, attr: str):
    """What to count from a layer's result at the outermost call."""
    if layer == "series":
        def count(c, r):
            coeffs = getattr(r, "coefficients", None)
            if coeffs is not None:
                c["series.coeffs_out"] += len(coeffs)
        return count
    if layer in ("intmatrix", "schemes"):
        def count(c, r):
            c[f"{layer}.cells"] += _cells(r)
        return count
    if layer == "oracle":
        def count(c, r):
            if isinstance(r, list):
                c["oracle.partitions"] += len(r)
            elif isinstance(r, dict):
                c["oracle.partitions"] += sum(v for v in r.values() if isinstance(v, int))
            elif isinstance(r, int) and not isinstance(r, bool):
                c["oracle.partitions"] += r
        return count
    if layer == "lattices" and attr in LATTICE_EXPORTS:
        def count(c, r):
            c["lattices.export_bytes"] += len(r) if isinstance(r, str) else len(json.dumps(r))
        return count
    if layer == "lattices" and attr not in LATTICE_QUERIES:
        def count(c, r):
            if hasattr(r, "node_count") and hasattr(r, "edge_count"):
                c["lattices.nodes"] += r.node_count
                c["lattices.edges"] += r.edge_count
        return count
    if layer == "tables" and attr in TABLE_RENDERERS:
        def count(c, r):
            if isinstance(r, str):
                c["tables.render_bytes"] += len(r)
        return count
    if layer == "verify":
        def count(c, r):
            c["verify.checks"] += len(getattr(r, "results", ()))
        return count
    return None


def time_metric(name: str) -> str | None:
    """The per-layer time metric a span's self time adds to, besides
    ``<layer>.self_s``."""
    layer, _, attr = name.partition(".")
    attr = attr.rpartition(".")[2]
    if layer == "lattices":
        if attr in LATTICE_QUERIES:
            return "lattices.query_s"
        if attr in LATTICE_EXPORTS:
            return "lattices.export_s"
        return "lattices.build_s"
    if layer == "tables" and attr in TABLE_RENDERERS:
        return "tables.render_s"
    return None


def cache_stats(package: str = "partlat") -> dict[str, int]:
    """Hits, misses and entries of every cache with a public ``cache_info``
    in each layer, summed per layer."""
    out: Counter = Counter()
    for layer in LAYERS:
        mod = sys.modules.get(f"{package}.{layer}")
        if mod is None:
            continue
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if not callable(info) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            ci = info()
            out[f"{layer}.cache_hits"] += getattr(ci, "hits", 0) or 0
            out[f"{layer}.cache_misses"] += getattr(ci, "misses", 0) or 0
            out[f"{layer}.cache_entries"] += getattr(ci, "currsize", 0) or 0
    return dict(out)


def clear_caches(package: str = "partlat") -> None:
    """Empty every partlat cache through its public ``cache_clear``."""
    for layer in LAYERS:
        mod = sys.modules.get(f"{package}.{layer}")
        if mod is None:
            continue
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and getattr(obj, "__module__", None) == mod.__name__:
                clear()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[tuple[str, int]] = []
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed outside any wrapper."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.op.append(self.current_op)

    def _wrap(self, layer: str, name: str, fn, count):
        nid = self.name_id(name)
        stack = self._stack
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        counters = self.counters
        clock = perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append((layer, idx))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if isinstance(exc, RecursionError) and all(l != layer for l, _ in stack):
                    counters[f"{layer}.recursion_errors"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if count is not None:
                count(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing and restoring wrappers --------------------------------

    def install(self, package: str = "partlat") -> None:
        """Wrap the public callables of every layer; undo with restore()."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{attr}", obj,
                                                         _result_counter(layer, attr)))
        self._wrap_errata(package)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, obj, entry[1])

    def _set(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            count = _result_counter(layer, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, name, raw.__func__, count))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, name, raw, count)
            else:
                continue
            self._set(cls, attr, raw, wrapped)

    def _wrap_errata(self, package: str) -> None:
        # Each erratum's confirm() is its public witness check.
        errata = importlib.import_module(f"{package}.errata")
        for entry in getattr(errata, "ERRATA", ()):
            confirm = getattr(entry, "confirm", None)
            if not callable(confirm):
                continue
            wrapped = self._wrap("errata", f"errata.confirm.{entry.ident}", confirm, None)
            object.__setattr__(entry, "confirm", wrapped)
            self._undo.append((entry, "confirm", confirm))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, (type, type(sys))):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)
        self._stack.clear()

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "Tracer", op: int) -> None:
        """Append another tracer's spans (from a child process) under op id
        ``op``, and fold in its counters."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in other.names]
        self.name.extend(array("l", (remap[i] for i in other.name)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(array("l", (p + offset if p >= 0 else -1 for p in other.parent)))
        self.op.extend(array("l", [op] * len(other.start)))
        self.add_counters(other.counters)

    def add_counters(self, counters) -> None:
        for key, value in counters.items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names[i] for i in self.name)

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the five arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "counters": dict(self.counters),
                  "columns": ["name:l", "start:d", "end:d", "parent:l", "op:l"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.op):
                column.tofile(fh)

    @classmethod
    def load(cls, path) -> "Tracer":
        t = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            t.names = header["names"]
            t._ids = {name: i for i, name in enumerate(t.names)}
            for column in (t.name, t.start, t.end, t.parent, t.op):
                column.fromfile(fh, n)
        t.counters = Counter(header["counters"])
        return t
