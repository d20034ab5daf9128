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

Builders work on padded part tuples or bit masks and generate each node's
neighbours from it directly, so a build costs time proportional to its
edges.  Each node is labelled once; nodes are canonical text labels sorted
lexicographically, so exports are byte-stable.  ``NODE_CAP`` and
``EDGE_CAP`` refuse graphs too large to materialize, every variant by its
closed-form node and edge counts before any work: binomial coefficients
for the bit variants, box-kernel counts for the partition variants.  A bit
variant whose node count passes the cap is refused from its parameters
(2^dim, C(bits, ones)) without computing that count.  ``WIDTH_CAP`` then
refuses labels of more slots or bits; a hypercube within the node cap is
far narrower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NoReturn

from . import counting, oracle
from .partitions import label_of

# Refuse to materialize graphs whose node set, edge set or labels are
# unreasonable; a label has a character or more per slot or bit.
NODE_CAP = 10 ** 6
EDGE_CAP = 10 ** 6
WIDTH_CAP = 100


@dataclass(frozen=True)
class OrbitLattice:
    variant: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        node_set = set(self.nodes)
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) leaves the node set")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return {n: tuple(sorted(out)) for n, out in adjacency.items()}

    def neighbors(self, node: str) -> tuple[str, ...]:
        if node not in self._adjacency:
            raise KeyError(f"unknown node {node!r}")
        return self._adjacency[node]

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    def to_edge_list(self) -> str:
        return "".join(f"{a} -- {b}\n" for a, b in self.edges)

    def to_dot(self) -> str:
        lines = [f'graph "{self.variant}" {{']
        lines += [f'  "{n}";' for n in self.nodes]
        lines += [f'  "{a}" -- "{b}";' for a, b in self.edges]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
        }


def _collect(variant: str, labels: dict, moves) -> OrbitLattice:
    """The lattice on ``labels`` ({node: label}) whose edges join each node
    to the nodes ``moves(node)`` yields."""
    edges: set[tuple[str, str]] = set()
    for node, label in labels.items():
        for other in moves(node):
            other = labels[other]
            edges.add((label, other) if label < other else (other, label))
    return OrbitLattice(variant, tuple(sorted(labels.values())), tuple(sorted(edges)))


def _partition_nodes(total: int, slots: int) -> dict[tuple[int, ...], str]:
    """Partitions of ``total`` in at most ``slots`` parts, as padded part
    tuples mapped to their labels, checked against the caps first.

    Both partition variants have the same edge count.  An edge changes two
    slots holding x and y, x + y = k (y = 0 for a zero slot), and keeps a
    partition of total - k in the other slots - 2.  For each k and each
    such rest there are floor(k/2) edges: unit moves join the pairs
    (k, 0), (k-1, 1), ... in a path, and merges join each pair with y > 0
    to (k, 0).  One kernel sweep gives every count: columns[n][j] is
    p_atmost(j, n)."""
    if total < 0:
        raise ValueError("total must be >= 0")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if total > oracle.TOTAL_CAP:
        raise ValueError(f"total {total} exceeds the enumeration cap {oracle.TOTAL_CAP}")
    columns = list(counting._box_columns(total, min(slots, total), total))
    rest = columns[min(slots - 2, total)] if slots > 1 else [0] * (total + 1)
    _check_size(columns[-1][total], sum(k // 2 * rest[total - k] for k in range(2, total + 1)))
    _check_width(slots)
    nodes = {}
    for parts in oracle.iter_parts(oracle.ConstraintRecord(total=total, max_parts=slots)):
        padded = parts + (0,) * (slots - len(parts))
        nodes[padded] = label_of(padded)
    return nodes


def _unit_moves(parts: tuple[int, ...]):
    """Move one unit from the last slot holding x > 0 to the first slot
    holding y, for each pair of values with y != x - 1; parts stay sorted."""
    first, last = {}, {}
    for i, v in enumerate(parts):
        first.setdefault(v, i)
        last[v] = i
    for x, i in last.items():
        for y, j in first.items():
            if x > 0 and y != x - 1 and i != j:
                moved = list(parts)
                moved[i] -= 1
                moved[j] += 1
                yield tuple(moved)


def _merges(parts: tuple[int, ...]):
    """Merge two nonzero parts, once per pair of values."""
    values = [v for v in dict.fromkeys(parts) if v]
    for k, x in enumerate(values):
        for y in values[k:]:
            if y != x or parts.count(x) > 1:
                rest = list(parts)
                rest.remove(x)
                rest.remove(y)
                yield tuple(sorted(rest + [x + y], reverse=True)) + (0,)


def build_unit_exchange(total: int, slots: int) -> OrbitLattice:
    """Orbits of ``total`` in ``slots`` positions; neighbors differ by moving
    exactly one unit from one position to another (Euclidean step sqrt(2))."""
    return _collect("unit-exchange", _partition_nodes(total, slots), _unit_moves)


def build_split_merge(total: int, slots: int) -> OrbitLattice:
    """Same nodes as unit-exchange; an edge joins two nonzero parts into one
    (equivalently splits one part into two).  Every edge changes the number
    of nonzero parts by exactly one."""
    return _collect("split-merge", _partition_nodes(total, slots), _merges)


def _bit_lattice(variant: str, bits: int, masks, swaps: int) -> OrbitLattice:
    """Graph on ``bits``-bit masks whose edges swap ``swaps`` ones with as
    many zeros, or flip a single bit when ``swaps`` is 0."""
    flips = [1 << i for i in range(bits)]

    def moves(mask: int):
        if not swaps:
            return (mask ^ f for f in flips)
        set_bits = [f for f in flips if mask & f]
        clear_bits = [f for f in flips if not mask & f]
        if min(len(set_bits), len(clear_bits)) < swaps:
            return ()
        ones = [sum(c) for c in combinations(set_bits, swaps)]
        zeros = [sum(c) for c in combinations(clear_bits, swaps)]
        return (mask ^ a ^ b for a in ones for b in zeros)

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
    if bits < 1 or not 0 <= ones <= bits:
        raise ValueError("need bits >= 1 and 0 <= ones <= bits")
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
    if dim < 1:
        raise ValueError("dim must be >= 1")
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
    ``slots`` is optional and defaults to ``total``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown lattice variant {variant!r}; choose one of {tuple(VARIANTS)}")
    builder, names = VARIANTS[variant]
    missing = [name for name in names if name != "slots" and params.get(name) is None]
    if missing:
        raise ValueError(f"lattice variant {variant} requires {', '.join(missing)}")
    if params.get("slots") is None:
        params["slots"] = params.get("total")
    return builder(*(params[name] for name in names))


def distance(lattice: OrbitLattice, a: str, b: str) -> int | float:
    """Unweighted shortest-path length; math.inf when disconnected."""
    adjacency = lattice._adjacency
    for x in (a, b):
        if x not in adjacency:
            raise KeyError(f"unknown node {x!r}")
    if a == b:
        return 0
    seen = {a}
    frontier = [a]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for node in frontier:
            for other in adjacency[node]:
                if other == b:
                    return steps
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return math.inf


def column_edge_counts(total: int) -> tuple[int, ...]:
    """Unit-exchange edges of the full lattice of ``total`` that join an
    orbit with n nonzero parts to one with n + 1, for n = 1..total-1."""
    if total < 2:
        raise ValueError("total must be >= 2")
    counts = [0] * (total - 1)
    for parts in _partition_nodes(total, total):
        # A move changes the nonzero count by at most one, and each edge
        # is met once from its side with fewer nonzero parts.
        zeros = parts.count(0)
        if zeros:
            counts[total - zeros - 1] += sum(1 for q in _unit_moves(parts) if q.count(0) < zeros)
    return tuple(counts)


def _label_parts(label: str) -> tuple[int, ...]:
    if "," in label:
        return tuple(int(x) for x in label.split(","))
    return tuple(int(ch) for ch in label)
