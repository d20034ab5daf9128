"""Orbit lattices: graphs on canonical partitions or bit strings.

Variants
--------
unit-exchange       partitions of M in at most n slots; an edge moves one
                    unit between two positions and re-sorts.
split-merge         same nodes; an edge merges two nonzero parts (or,
                    read backwards, splits a part in two).
subset-swap         fixed-weight bit strings, edges at Hamming distance 2.
subset-double-swap  fixed-weight bit strings, edges at Hamming distance 4
                    (for 5 bits and weight 2 or 3 this is the Petersen
                    graph).
hypercube           all d-bit strings, edges at Hamming distance 1.

Builders generate each edge once, from one end, working on nonzero-part
strings or bit masks, so a build costs time proportional to its edges;
the collector visits the nodes last to first.  The nodes are integers:
node i is the i-th canonical text label in lexicographic order, so exports
are byte-stable.  The edges are two ``array('I')`` columns of sorted node
pairs i < j, and the queries run on a compressed adjacency (offsets and
targets arrays) built on first use.  Each node is labelled once, and
labels serve only lookup and export: ``OrbitLattice.edges`` pairs them on
demand, and :meth:`OrbitLattice.export` streams each text format in
chunks of nodes and edges cut by :mod:`partlat.tables`' ``_slices``, the
chunking the table exports use.

``NODE_CAP`` and ``EDGE_CAP`` refuse graphs too large to materialize, every
variant by its closed-form node and edge counts before any work: binomial
coefficients for the bit variants, box-kernel counts for the partition
variants.  A bit variant whose node count passes the cap is refused from
its parameters (2^dim, C(bits, ones)) without computing that count.
``WIDTH_CAP`` then refuses labels of more slots or bits; a hypercube within
the node cap is far narrower.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cached_property
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import eq, lt
from typing import Iterator, NoReturn

from . import counting, oracle
from .partitions import label_of, require_ints
from .tables import _slices

# Refuse to materialize graphs whose node set, edge set or labels are
# unreasonable; a label has a character or more per slot or bit.
NODE_CAP = 10 ** 6
EDGE_CAP = 10 ** 6
WIDTH_CAP = 100

# One-byte strings, by value: a partition node holds one nonzero part per byte.
_BYTES = [bytes((v,)) for v in range(256)]


class OrbitLattice:
    """A graph on the labels ``nodes``; node i is ``nodes[i]``.

    ``low`` and ``high`` are ``array('I')`` columns of node pairs i < j in
    strictly increasing order, which the constructor checks (see
    :func:`_check_columns`), and it refuses repeated labels.  ``edges`` is
    a read-only sequence of the label pairs (``nodes[i]``, ``nodes[j]``),
    in the same order.
    """

    def __init__(self, variant: str, nodes: Sequence[str], low: array, high: array):
        _check_columns(len(nodes), low, high)
        if len(set(nodes)) != len(nodes):
            raise ValueError("node labels are not distinct")
        self.variant = variant
        self.nodes = tuple(nodes)
        # A list's __getitem__ maps indices to labels faster than a tuple's.
        self._labels = list(nodes)
        self._low, self._high = low, high
        self.edges = _Edges(self)

    def __repr__(self) -> str:
        return f"OrbitLattice({self.variant!r}, {self.node_count} nodes, {self.edge_count} edges)"

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._low)

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.nodes, range(len(self.nodes))))

    def _node(self, label: str) -> int:
        i = self._index.get(label)
        if i is None:
            raise KeyError(f"unknown node {label!r}")
        return i

    @cached_property
    def _adjacency(self) -> tuple[array, array]:
        """Offsets and targets: the neighbours of node i are
        ``targets[offsets[i]:offsets[i + 1]]``, in increasing order, its
        lower neighbours first.  The pairs come sorted, so the lower
        neighbours of each node are met in order and its higher ones are
        one slice of ``high``."""
        low, high = self._low, self._high
        lower = [[] for _ in self.nodes]
        for i, j in zip(low, high):
            lower[j].append(i)
        offsets, targets = array("I", [0]), array("I")
        start = 0
        for i, below in enumerate(lower):
            end = bisect_right(low, i, start)
            targets.extend(below)
            targets.extend(high[start:end])
            offsets.append(len(targets))
            start = end
        return offsets, targets

    def neighbors(self, node: str) -> tuple[str, ...]:
        offsets, targets = self._adjacency
        i = self._node(node)
        return tuple(map(self._labels.__getitem__, targets[offsets[i]:offsets[i + 1]]))

    def degree(self, node: str) -> int:
        offsets = self._adjacency[0]
        i = self._node(node)
        return offsets[i + 1] - offsets[i]

    def export(self, fmt: str) -> Iterator[str]:
        """The ``edges``, ``dot`` or ``json`` text in chunks, so a large
        graph is never held as one string.  The json text is
        ``json.dumps(self.to_json_dict(), indent=2)`` and a newline."""
        labels = self._labels
        if fmt == "edges":
            yield from self._edge_text([f"{a} -- " for a in labels], [f"{b}\n" for b in labels])
        elif fmt == "dot":
            yield f'graph "{self.variant}" {{\n'
            for chunk in _slices(labels):
                yield "".join([f'  "{n}";\n' for n in chunk])
            yield from self._edge_text([f'  "{a}" -- ' for a in labels],
                                       [f'"{b}";\n' for b in labels])
            yield "}\n"
        elif fmt == "json":
            quoted = list(map(_json_string, labels))
            yield f'{{\n  "variant": {_json_string(self.variant)},\n  "nodes": '
            yield from _json_array("".join([",\n    " + q for q in chunk])
                                   for chunk in _slices(quoted))
            yield ',\n  "edges": '
            yield from _json_array(self._edge_text([f"\n    [\n      {a}," for a in quoted],
                                                   [f"\n      {b}\n    ]" for b in quoted],
                                                   sep=","))
            yield "\n}\n"
        else:
            raise ValueError(f"unknown export format {fmt!r}")

    def _edge_text(self, heads: list[str], tails: list[str], sep: str = "") -> Iterator[str]:
        """``sep + heads[i] + tails[j]`` for each edge (i, j), in chunks,
        joined from the per-node strings without a string per edge."""
        for low, high in zip(_slices(self._low), _slices(self._high)):
            pieces = [sep] * (3 * len(low))
            pieces[1::3] = map(heads.__getitem__, low)
            pieces[2::3] = map(tails.__getitem__, high)
            yield "".join(pieces)

    def to_edge_list(self) -> str:
        return "".join(self.export("edges"))

    def to_dot(self) -> str:
        return "".join(self.export("dot"))

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "nodes": list(self.nodes),
            "edges": [[a, b] for a, b in self.edges],
        }


def _json_array(chunks) -> Iterator[str]:
    """A JSON array, two levels deep at indent 2, from chunks of its items
    each led by a comma."""
    empty = True
    for chunk in chunks:
        yield "[" + chunk[1:] if empty else chunk
        empty = False
    yield "[]" if empty else "\n  ]"


class _Edges(Sequence):
    """Read-only view of a lattice's edges as label pairs, made on demand
    from the index columns; it holds no pair."""

    __slots__ = ("_lattice",)

    def __init__(self, lattice: OrbitLattice):
        self._lattice = lattice

    def __len__(self) -> int:
        return len(self._lattice._low)

    def __getitem__(self, k):
        lat = self._lattice
        labels = lat._labels
        if isinstance(k, slice):
            return tuple(zip(map(labels.__getitem__, lat._low[k]),
                             map(labels.__getitem__, lat._high[k])))
        return labels[lat._low[k]], labels[lat._high[k]]

    def __iter__(self):
        lat = self._lattice
        get = lat._labels.__getitem__
        return zip(map(get, lat._low), map(get, lat._high))

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        lat = self._lattice
        i, j = (lat._index.get(x) for x in pair)
        if i is None or j is None or i >= j:
            return False
        low, high = lat._low, lat._high
        start = bisect_left(low, i)
        end = bisect_right(low, i, start)
        k = bisect_left(high, j, start, end)
        return k < end and high[k] == j

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Edges)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{len(self)} edges of {self._lattice!r}>"


def _check_columns(nodes: int, low: array, high: array) -> None:
    """Refuse edge columns unless every pair is i < j < ``nodes`` and the
    pairs strictly increase: no self-loop, no endpoint outside the nodes
    and no duplicate edge.  Linear, in C-level passes."""
    if not (all(map(lt, low, high)) and max(high, default=-1) < nodes
            and all(map(lt, zip(low, high), zip(low[1:], high[1:])))):
        raise ValueError(f"edge columns are not increasing pairs i < j < {nodes}")


def _collect(variant: str, nodes: dict, moves) -> OrbitLattice:
    """The lattice on ``nodes`` ({node: label}) whose edges join each node
    to the nodes ``moves(node)`` yields, each edge from one of its ends.
    Nodes are numbered in label order and visited last to first; a move to
    an earlier node waits in ``behind`` until its turn, so only edges met
    at their higher end are held.  The constructor's column check refuses
    a self-move or an edge yielded from both ends, as a repeated pair."""
    order = sorted(nodes, key=nodes.__getitem__)
    index = dict(zip(order, range(len(order)))).__getitem__
    behind = {}
    low, high = array("I"), array("I")
    for i in range(len(order) - 1, -1, -1):
        row = behind.pop(i, [])
        for j in map(index, moves(order[i])):
            if j >= i:
                row.append(j)
            else:
                behind.setdefault(j, []).append(i)
        row.sort(reverse=True)
        low.extend(repeat(i, len(row)))
        high.extend(row)
    low.reverse()
    high.reverse()
    return OrbitLattice(variant, tuple(map(nodes.__getitem__, order)), low, high)


def _partition_nodes(total: int, slots: int) -> dict[bytes, str]:
    """Partitions of ``total`` in at most ``slots`` parts: their nonzero
    parts as strings (a byte a part, at most ``oracle.TOTAL_CAP``) mapped
    to labels padded to ``slots``, checked against the caps first.

    Both partition variants have the same edge count.  An edge changes two
    slots holding x and y, x + y = k (y = 0 for a zero slot), and keeps a
    partition of total - k in the other slots - 2.  For each k and each
    such rest there are floor(k/2) edges: unit moves join the pairs
    (k, 0), (k-1, 1), ... in a path, and merges join each pair with y > 0
    to (k, 0).  One kernel sweep gives every count: columns[n][j] is
    p_atmost(j, n)."""
    require_ints("total", total, low=0)
    require_ints("slots", slots, low=1)
    stream = oracle.iter_parts(oracle.ConstraintRecord(total=total, max_parts=slots))
    columns = list(counting._box_columns(total, min(slots, total), total))
    rest = columns[min(slots - 2, total)] if slots > 1 else [0] * (total + 1)
    _check_size(columns[-1][total], sum(k // 2 * rest[total - k] for k in range(2, total + 1)))
    _check_width(slots)
    return {bytes(parts): label_of(parts, slots) for parts in stream}


def _unit_moves(parts: bytes, slots: int) -> list[bytes]:
    """Level two parts: move one unit from the last slot holding x to the
    first slot holding y, for each pair of values y < x - 1; parts stay
    sorted.  From its other end the move is onto a part at least as large.
    y may be 0: one empty slot, while ``slots`` has room, dropped unfilled."""
    if len(parts) < slots:
        parts += b"\0"
    values = list(dict.fromkeys(parts))  # decreasing; the last has no y
    starts = [parts.index(v) for v in values]
    out = []
    for k, x in enumerate(values[:-1]):
        moved = bytearray(parts)
        moved[starts[k + 1] - 1] = x - 1
        for y, j in zip(values[k + 1:], starts[k + 1:]):
            if y < x - 1:
                moved[j] = y + 1
                out.append(bytes(moved).rstrip(b"\0"))
                moved[j] = y
    return out


def _merges(parts: bytes) -> list[bytes]:
    """Merge two parts, once per pair of values: drop the last copy of each
    (the last two of a repeated value) and put their sum in its sorted
    place."""
    values = list(dict.fromkeys(parts))
    starts = [parts.index(v) for v in values]
    ends = starts[1:] + [len(parts)]  # one past each run
    out = []
    for k, x in enumerate(values):
        at = 0  # where the sum goes: before the first value at most it
        for m in range(k, len(values)):
            i, j = ends[k] - 1, ends[m] - 1
            if m == k:
                if j == starts[k]:
                    continue
                i -= 1
            merged = x + values[m]
            while values[at] > merged:
                at += 1
            place = starts[at]
            out.append(b"".join((parts[:place], _BYTES[merged], parts[place:i],
                                 parts[i + 1:j], parts[j + 1:])))
    return out


def build_unit_exchange(total: int, slots: int) -> OrbitLattice:
    """Orbits of ``total`` in ``slots`` positions; neighbors differ by moving
    exactly one unit from one position to another (Euclidean step sqrt(2))."""
    return _collect("unit-exchange", _partition_nodes(total, slots),
                    lambda parts: _unit_moves(parts, slots))


def build_split_merge(total: int, slots: int) -> OrbitLattice:
    """Same nodes as unit-exchange; an edge joins two nonzero parts into one
    (equivalently splits one part into two).  Every edge changes the number
    of nonzero parts by exactly one."""
    return _collect("split-merge", _partition_nodes(total, slots), _merges)


def _bit_lattice(variant: str, bits: int, masks, swaps: int) -> OrbitLattice:
    """Graph on ``bits``-bit masks whose edges swap ``swaps`` ones with as
    many zeros, or flip a single bit when ``swaps`` is 0: each edge from its
    smaller mask, whose label sorts first."""
    flips = [1 << i for i in range(bits)]

    def moves(mask: int):
        if not swaps:
            return (mask | f for f in flips if not mask & f)
        set_bits = [f for f in flips if mask & f]
        clear_bits = [f for f in flips if not mask & f]
        if min(len(set_bits), len(clear_bits)) < swaps:
            return ()
        ones = [sum(c) for c in combinations(set_bits, swaps)]
        zeros = [sum(c) for c in combinations(clear_bits, swaps)]
        return (mask ^ a ^ b for a in ones for b in zeros if b > a)

    return _collect(variant, {m: format(m, f"0{bits}b") for m in masks}, moves)


def _refuse(what: str, cap: int, size) -> NoReturn:
    raise ValueError(f"{what} count exceeds the cap {cap}: {size} {what}s")


def _check_size(nodes: int, edges: int) -> None:
    """Refuse a graph by its node and edge counts before building it."""
    for what, size, cap in (("node", nodes, NODE_CAP), ("edge", edges, EDGE_CAP)):
        if size > cap:
            _refuse(what, cap, size)


def _check_width(width: int) -> None:
    """Refuse labels of more than ``WIDTH_CAP`` slots or bits, which cost
    time and memory on every node and edge however few there are."""
    if width > WIDTH_CAP:
        raise ValueError(f"label width {width} exceeds the cap {WIDTH_CAP}")


def _comb_exceeds(n: int, k: int, cap: int) -> bool:
    """Whether C(n, k) > cap, without computing a C(n, k) past the cap: the
    running product C(n-k+1, 1), C(n-k+2, 2), ... grows at each step (at
    least doubling), so it stops once it passes the cap."""
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > cap:
            return True
    return False


def _weight_masks(bits: int, ones: int, swaps: int):
    """The ``bits``-bit masks with ``ones`` ones, checked against the caps
    for edges that swap ``swaps`` ones with as many zeros.  The node count
    is refused from the parameters, so a huge one is never computed."""
    require_ints("bits", bits, low=1)
    require_ints("ones", ones, low=0, high=bits)
    if _comb_exceeds(bits, ones, NODE_CAP):
        _refuse("node", NODE_CAP, f"C({bits}, {ones})")
    nodes = math.comb(bits, ones)
    _check_size(nodes, nodes * math.comb(ones, swaps) * math.comb(bits - ones, swaps) // 2)
    _check_width(bits)
    return (sum(1 << i for i in c) for c in combinations(range(bits), ones))


def build_subset_swap(bits: int, ones: int) -> OrbitLattice:
    return _bit_lattice("subset-swap", bits, _weight_masks(bits, ones, 1), 1)


def build_subset_double_swap(bits: int, ones: int) -> OrbitLattice:
    return _bit_lattice("subset-double-swap", bits, _weight_masks(bits, ones, 2), 2)


def build_hypercube(dim: int) -> OrbitLattice:
    require_ints("dim", dim, low=1)
    if dim >= NODE_CAP.bit_length():  # exactly when 2^dim > NODE_CAP
        _refuse("node", NODE_CAP, f"2^{dim}")
    _check_size(2 ** dim, dim * 2 ** (dim - 1))
    return _bit_lattice("hypercube", dim, range(2 ** dim), 0)


# Variant name -> (builder, its parameters in order).
VARIANTS = {
    "unit-exchange": (build_unit_exchange, ("total", "slots")),
    "split-merge": (build_split_merge, ("total", "slots")),
    "subset-swap": (build_subset_swap, ("bits", "ones")),
    "subset-double-swap": (build_subset_double_swap, ("bits", "ones")),
    "hypercube": (build_hypercube, ("dim",)),
}


def build_lattice(variant: str, **params) -> OrbitLattice:
    """Dispatch by variant name; see the module docstring for parameters.
    ``slots`` is optional and defaults to ``total``, or 1 when the total is 0."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown lattice variant {variant!r}; choose one of {tuple(VARIANTS)}")
    builder, names = VARIANTS[variant]
    missing = [name for name in names if name != "slots" and params.get(name) is None]
    if missing:
        raise ValueError(f"lattice variant {variant} requires {', '.join(missing)}")
    if params.get("slots") is None:
        params["slots"] = params.get("total") or 1
    return builder(*(params[name] for name in names))


def distance(lattice: OrbitLattice, a: str, b: str) -> int | float:
    """Unweighted shortest-path length; math.inf when disconnected.

    On unit-exchange it is |l - u|_1 / 2 over the padded part vectors (the
    paper's vector view).  An edge changes two slots by one each, so no path
    is shorter.  Take l_i > u_i, l_j < u_j, i' the last slot holding l_i, j'
    the first holding l_j: u decreases weakly, so l_i' > u_i', l_j' < u_j',
    and a unit moved from i' to j' keeps l sorted and lowers |l - u|_1 by 2.
    It is an edge (:func:`_unit_moves`, from either end) unless l_j' =
    l_i' - 1; then u_j' >= l_i' > u_i' puts j' before i', l_j' < l_i' after."""
    start, goal = lattice._node(a), lattice._node(b)
    if start == goal:
        return 0
    offsets, targets = lattice._adjacency
    seen = bytearray(lattice.node_count)
    seen[start] = 1
    frontier = [start]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for node in frontier:
            for other in targets[offsets[node]:offsets[node + 1]]:
                if not seen[other]:
                    if other == goal:
                        return steps
                    seen[other] = 1
                    nxt.append(other)
        frontier = nxt
    return math.inf


def column_edge_counts(total: int) -> tuple[int, ...]:
    """Unit-exchange edges of the full lattice of ``total`` that join an
    orbit with n nonzero parts to one with n + 1, for n = 1..total-1."""
    require_ints("total", total, low=2)
    counts = [0] * (total - 1)
    for parts in _partition_nodes(total, total):
        # Each such edge is one levelling move into an empty slot.
        n = len(parts)
        if n < total:
            counts[n - 1] += sum(1 for q in _unit_moves(parts, total) if len(q) > n)
    return tuple(counts)

