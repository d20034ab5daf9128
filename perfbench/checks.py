"""Output checks shared by the workloads.

Each check returns None when the output is right and a short message
otherwise.  They read results through partlat's public attributes only
(``cells``, ``coefficients``, ``entries``, ``nodes``, ``edges``) and compare
them with :mod:`reference`, never with partlat itself, except where noted.
"""

from __future__ import annotations

import math
import random
from collections import deque

import reference as ref


def first_mismatch(got, want, what: str) -> str | None:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return f"{what}: {len(got)} entries, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{what}[{i}] = {g}, expected {w}"
    return None


# -- counting tables ------------------------------------------------------

def _axis(table, rows, cols) -> str | None:
    if tuple(table.rows) != tuple(rows) or tuple(table.cols) != tuple(cols):
        return f"{table.name or 'table'} axes {table.rows[:3]}.. x {table.cols[:3]}.. unexpected"
    return None


def exact_table(R, table, top: int) -> str | None:
    grid = ref.exact_grid(top)
    err = _axis(table, range(top + 1), range(top + 1))
    err = err or first_mismatch((c for row in table.cells for c in row),
                                (c for row in grid for c in row), "exact cells")
    return err or first_mismatch((sum(r) for r in table.cells),
                                 (R.p(m) for m in range(top + 1)), "exact row sums")


def atmost_table(R, table, top: int) -> str | None:
    grid = ref.exact_grid(top)
    want = [[sum(grid[m][: n + 1]) for n in range(top + 1)] for m in range(top + 1)]
    err = _axis(table, range(top + 1), range(top + 1))
    err = err or first_mismatch((c for row in table.cells for c in row),
                                (c for row in want for c in row), "atmost cells")
    return err or first_mismatch((row[-1] for row in table.cells),
                                 (R.p(m) for m in range(top + 1)), "atmost last column")


def distinct_table(R, table, top: int) -> str | None:
    kmax = 0
    while (kmax + 1) * (kmax + 2) // 2 <= top:
        kmax += 1
    err = _axis(table, range(1, top + 1), list(range(1, kmax + 1)) + ["total", "difference"])
    if err:
        return err
    odd = ref.odd_part_series(top)
    for m, row in zip(range(1, top + 1), table.cells):
        want = [ref.distinct(m, k) for k in range(1, kmax + 1)]
        want += [odd[m], -ref.pentagonal_sign(m)]
        err = first_mismatch(row, want, f"distinct row {m}")
        if err:
            return err
    return None


def unit_diff_table(R, table, top: int) -> str | None:
    err = _axis(table, range(top + 1), range(top + 1))
    return err or first_mismatch(
        (c for row in table.cells for c in row),
        (R.unit_diff(m, n) for m in range(top + 1) for n in range(top + 1)), "unit-diff cells")


def odd_even_mixed_table(R, table, top: int) -> str | None:
    err = _axis(table, range(1, top + 1), list(range(1, top + 1)) + ["odd", "even", "mixed", "p"])
    if err:
        return err
    grid = ref.exact_grid(top)
    odd = ref.odd_part_series(top)
    for m, row in zip(range(1, top + 1), table.cells):
        by_parts = [grid[(m + j) // 2][j] if (m + j) % 2 == 0 else 0 for j in range(1, top + 1)]
        even = R.p(m // 2) if m % 2 == 0 else 0
        want = by_parts + [odd[m], even, R.p(m) - odd[m] - even, R.p(m)]
        err = first_mismatch(row, want, f"odd-even-mixed row {m}")
        if err:
            return err
    return None


def layer_table(R, table, top: int, rng: random.Random) -> str | None:
    if tuple(table.rows) != tuple(range(1, top + 1)):
        return "layers rows unexpected"
    err = first_mismatch((sum(r) for r in table.cells),
                         (R.p(n) for n in range(1, top + 1)), "layers row sums")
    err = err or first_mismatch((r[0] for r in table.cells), range(1, top + 1), "layer-1 column")
    if err:
        return err
    for _ in range(4):
        n = rng.randint(1, top)
        k = rng.randint(1, len(table.cols))
        got = table.cells[n - 1][k - 1]
        if got != ref.layer_count(n, table.cols[k - 1]):
            return f"layers cell ({n},{k}) = {got}"
    return None


def binomial_table(R, table, top: int) -> str | None:
    err = _axis(table, range(1, top + 1), range(1, top + 1))
    return err or first_mismatch(
        (c for row in table.cells for c in row),
        (math.comb(r - 1, k - 1) if k <= r else 0
         for r in range(1, top + 1) for k in range(1, top + 1)), "binomial cells")


def box_table(R, table, edge: int, dim: int) -> str | None:
    err = _axis(table, range(edge * dim + 1), range(edge + 1))
    if err:
        return err
    for e in range(edge + 1):
        want = ref.box_coefficients(e, dim, edge * dim)
        err = first_mismatch((row[e] for row in table.cells), want, f"box column {e}")
        if err:
            return err
    return None


def scheme_table(R, table, total: int, rng: random.Random) -> str | None:
    """Row m1 counts partitions with largest part m1 by part count n; by
    conjugation the row and column sums are exact-parts counts."""
    err = _axis(table, range(total, 0, -1), range(1, total + 1))
    if err:
        return err
    grid = ref.exact_grid(total)
    err = first_mismatch((sum(r) for r in table.cells),
                         (grid[total][m1] for m1 in range(total, 0, -1)), "scheme row sums")
    err = err or first_mismatch((sum(r[j] for r in table.cells) for j in range(total)),
                                (grid[total][n] for n in range(1, total + 1)), "scheme column sums")
    if err:
        return err
    for _ in range(4):
        m1, n = rng.randint(1, total), rng.randint(1, total)
        got = table.cells[total - m1][n - 1]
        if got != ref.exact_frame(m1, n, total) or got != table.cells[total - n][m1 - 1]:
            return f"scheme cell ({m1},{n}) = {got}"
    return None


def neighbor_table(R, table, top: int) -> str | None:
    """Row m sums to p(0) + ... + p(m - 2)."""
    err = _axis(table, range(2, top + 1), range(1, top))
    return err or first_mismatch((sum(r) for r in table.cells),
                                 (sum(R.p(k) for k in range(m - 1)) for m in range(2, top + 1)),
                                 "neighbors row sums")


# -- series -----------------------------------------------------------------

def euler_coefficients(coeffs, order: int) -> str | None:
    return first_mismatch(coeffs, (ref.pentagonal_sign(n) for n in range(order + 1)), "euler")


def partition_coefficients(R, coeffs, order: int) -> str | None:
    return first_mismatch(coeffs, (R.p(n) for n in range(order + 1)), "partition series")


def distinct_coefficients(coeffs, order: int) -> str | None:
    return first_mismatch(coeffs, ref.odd_part_series(order), "distinct series")


def capped_coefficients(coeffs, caps, order: int) -> str | None:
    """result * prod (1 - t^k) must equal prod over capped parts of
    (1 - t^(k (c + 1)))."""
    c = list(coeffs)
    if len(c) != order + 1:
        return f"capped product has {len(c)} coefficients"
    want = [1] + [0] * order
    for k, cap in caps:
        for i in range(order, k - 1, -1):
            c[i] -= c[i - k]
        if cap is not None:
            d = k * (cap + 1)
            for i in range(order, d - 1, -1):
                want[i] -= want[i - d]
    return first_mismatch(c, want, "capped product times prod(1 - t^k)")


def series_product(a, b, got, rng: random.Random) -> str | None:
    order = min(len(a), len(b)) - 1
    if len(got) != order + 1:
        return f"product has {len(got)} coefficients, expected {order + 1}"
    for n in {0, order, *(rng.randint(0, order) for _ in range(16))}:
        want = ref.convolve_at(a, b, n)
        if got[n] != want:
            return f"product coefficient {n} = {got[n]}, expected {want}"
    return None


def series_inverse(s, inv) -> str | None:
    if len(inv) != len(s) or not ref.is_identity_product(s, inv):
        return "s * s.invert() != 1"
    return None


# -- matrices -----------------------------------------------------------------

def matrix_cells(entries, n: int, cell, what: str) -> str | None:
    if len(entries) != n or any(len(r) != n for r in entries):
        return f"{what} is not {n}x{n}"
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v != cell(i, j):
                return f"{what}[{i}][{j}] = {v}, expected {cell(i, j)}"
    return None


def partition_matrix(R, entries, n: int) -> str | None:
    return matrix_cells(entries, n, lambda i, j: R.p(i - j) if i >= j else 0, "partition matrix")


def euler_matrix(entries, n: int) -> str | None:
    return matrix_cells(entries, n, lambda i, j: ref.pentagonal_sign(i - j) if i >= j else 0,
                        "euler matrix")


def identity(entries, n: int) -> str | None:
    return matrix_cells(entries, n, lambda i, j: 1 if i == j else 0, "product")


def exact_parts_reference(n: int) -> list[list[int]]:
    grid = ref.exact_grid(n)
    return [[grid[i + 1][j + 1] for j in range(n)] for i in range(n)]


def unit_diff_reference(R, n: int) -> list[list[int]]:
    return [[R.unit_diff(i, j) for j in range(n)] for i in range(n)]


def inverse_of(matrix, inverse, n: int, rng: random.Random, what: str) -> str | None:
    if len(inverse) != n or any(len(r) != n for r in inverse):
        return f"{what} is not {n}x{n}"
    if not ref.freivalds_inverse(matrix, inverse, rng):
        return f"M @ {what} != I"
    return None


# -- lattices -------------------------------------------------------------------

def node_vector(node) -> tuple[int, ...]:
    """Parts or bits of a lattice node, whether it is a text label, a tuple
    or a bit mask."""
    if isinstance(node, tuple):
        return node
    if isinstance(node, str):
        if "," in node:
            return tuple(int(x) for x in node.split(","))
        return tuple(int(ch) for ch in node)
    raise TypeError(f"unsupported node {node!r}")


def hamming(a, b) -> int:
    if isinstance(a, int) and isinstance(b, int):
        return bin(a ^ b).count("1")
    return sum(x != y for x, y in zip(node_vector(a), node_vector(b)))


def unit_exchange_edges(total: int, slots: int) -> int:
    nodes = partitions_in(total, slots)
    edges = set()
    for v in nodes:
        for i in range(slots):
            if v[i] == 0:
                continue
            for j in range(slots):
                if i != j:
                    w = list(v)
                    w[i] -= 1
                    w[j] += 1
                    w = tuple(sorted(w, reverse=True))
                    if w != v:
                        edges.add((min(v, w), max(v, w)))
    return len(edges)


def split_merge_edges(total: int, slots: int) -> int:
    edges = set()
    for v in partitions_in(total, slots):
        ps = [x for x in v if x]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                rest = ps[:i] + ps[i + 1:j] + ps[j + 1:] + [ps[i] + ps[j]]
                w = tuple(sorted(rest, reverse=True)) + (0,) * (slots - len(rest))
                edges.add((min(v, w), max(v, w)))
    return len(edges)


def partitions_in(total: int, slots: int) -> list[tuple[int, ...]]:
    out = []

    def go(rest, bound, prefix):
        if rest == 0:
            out.append(tuple(prefix) + (0,) * (slots - len(prefix)))
            return
        if len(prefix) == slots:
            return
        for v in range(min(rest, bound), 0, -1):
            go(rest - v, v, prefix + [v])

    go(total, total, [])
    return out


def lattice_shape(variant: str, params: dict) -> tuple[int, int]:
    """Closed-form (or independently enumerated) node and edge counts."""
    if variant == "hypercube":
        d = params["dim"]
        return 2 ** d, d * 2 ** (d - 1)
    if variant in ("subset-swap", "subset-double-swap"):
        n, k = params["bits"], params["ones"]
        nodes = math.comb(n, k)
        if variant == "subset-swap":
            return nodes, nodes * k * (n - k) // 2
        return nodes, nodes * math.comb(k, 2) * math.comb(n - k, 2) // 2
    total = params["total"]
    slots = params.get("slots") or total
    nodes = ref.atmost_coefficients(slots, total)[total]
    if variant == "unit-exchange":
        return nodes, unit_exchange_edges(total, slots)
    return nodes, split_merge_edges(total, slots)


def lattice_edge_law(variant: str, a, b) -> bool:
    if variant == "hypercube":
        return hamming(a, b) == 1
    if variant == "subset-swap":
        return hamming(a, b) == 2
    if variant == "subset-double-swap":
        return hamming(a, b) == 4
    va, vb = node_vector(a), node_vector(b)
    if sum(va) != sum(vb):
        return False
    if variant == "unit-exchange":
        return sum(abs(x - y) for x, y in zip(va, vb)) == 2
    return abs(sum(1 for x in va if x) - sum(1 for x in vb if x)) == 1


EDGE_SAMPLE = 3000


def lattice(variant: str, params: dict, lat, rng: random.Random) -> str | None:
    """Node and edge counts in full; the move law on a sample of edges."""
    nodes, edges = lattice_shape(variant, params)
    if (len(lat.nodes), len(lat.edges)) != (nodes, edges):
        return f"{variant} {params}: {len(lat.nodes)} nodes / {len(lat.edges)} edges, expected {nodes} / {edges}"
    sample = lat.edges if edges <= EDGE_SAMPLE else rng.sample(lat.edges, EDGE_SAMPLE)
    for a, b in sample:
        if not lattice_edge_law(variant, a, b):
            return f"{variant} edge {a} -- {b} breaks the move law"
    return None


def adjacency(lat) -> dict:
    adj = {n: [] for n in lat.nodes}
    for a, b in lat.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def farthest(adj, a):
    """The node a breadth-first search from a reaches last."""
    seen, frontier, last = {a}, deque([a]), a
    while frontier:
        last = frontier.popleft()
        for y in adj[last]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return last


def bfs_distance(adj, a, b) -> int | float:
    if a == b:
        return 0
    seen, frontier = {a: 0}, deque([a])
    while frontier:
        x = frontier.popleft()
        for y in adj[x]:
            if y not in seen:
                seen[y] = seen[x] + 1
                if y == b:
                    return seen[y]
                frontier.append(y)
    return math.inf


def lattice_distance(variant: str, adj, a, b, got) -> str | None:
    if variant == "hypercube":
        want = hamming(a, b)
    elif variant == "subset-swap":
        want = hamming(a, b) // 2
    else:
        want = bfs_distance(adj, a, b)
    return None if got == want else f"distance({a}, {b}) = {got}, expected {want}"


def edge_list_text(text: str, edges: int) -> str | None:
    lines = text.splitlines()
    if len(lines) != edges or any(" -- " not in ln for ln in lines):
        return f"edge list has {len(lines)} lines, expected {edges} edges"
    return None


def dot_text(text: str, nodes: int, edges: int) -> str | None:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("graph ") or lines[-1] != "}":
        return "dot output is not a graph block"
    e = sum(1 for ln in lines[1:-1] if " -- " in ln)
    v = len(lines) - 2 - e
    if (v, e) != (nodes, edges):
        return f"dot has {v} nodes / {e} edges, expected {nodes} / {edges}"
    return None


def json_graph(d: dict, nodes: int, edges: int) -> str | None:
    if (len(d.get("nodes", ())), len(d.get("edges", ()))) != (nodes, edges):
        return f"json graph has {len(d.get('nodes', ()))} nodes, expected {nodes}"
    return None


# -- partitions -------------------------------------------------------------------

def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    largest = parts[0] if parts else 0
    return tuple(sum(1 for p in parts if p > j) for j in range(largest))


def box_complement(parts: tuple[int, ...], rows: int, cols: int) -> tuple[int, ...]:
    padded = parts + (0,) * (rows - len(parts))
    return tuple(v for v in (cols - x for x in reversed(padded)) if v)


def layer(parts: tuple[int, ...]) -> int:
    return 1 + sum(max(p - 1, 0) for p in parts[1:]) if parts else 0
