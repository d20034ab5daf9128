import hashlib
import json
import math
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import combinations

import pytest

from partlat import lattices, tables
from partlat.lattices import (
    build_hypercube,
    build_lattice,
    build_split_merge,
    build_subset_double_swap,
    build_subset_swap,
    build_unit_exchange,
    column_edge_counts,
    distance,
)


def node_parts(total, slots=None):
    """{label: padded part tuple} for the partition lattices of ``total`` in
    ``slots`` slots (default ``total``)."""
    slots = total if slots is None else slots
    nodes = lattices._partition_nodes(total, slots)
    return {label: tuple(parts) + (0,) * (slots - len(parts)) for parts, label in nodes.items()}


class TestUnitExchange:
    def test_full_lattice_of_seven(self):
        lat = build_unit_exchange(7, 7)
        assert lat.node_count == 15
        assert "3310000" in lat.nodes and "3220000" in lat.nodes
        assert ("3220000", "3310000") in lat.edges

    def test_drawn_edges_present(self):
        edges = set(build_unit_exchange(7, 7).edges)
        assert ("6100000", "7000000") in edges
        assert ("3310000", "4300000") in edges
        assert ("2211100", "2221000") in edges

    def test_no_edge_between_equal_radius_non_neighbors(self):
        lat = build_unit_exchange(6, 3)
        assert ("330", "411") not in lat.edges and ("411", "330") not in lat.edges

    def test_every_edge_moves_one_unit(self):
        lat = build_unit_exchange(8, 8)
        parts = node_parts(8)
        for a, b in lat.edges:
            pa = parts[a]
            pb = parts[b]
            moved = False
            for i in range(len(pa)):
                if pa[i] < 1:
                    continue
                for j in range(len(pa)):
                    if i == j:
                        continue
                    v = list(pa)
                    v[i] -= 1
                    v[j] += 1
                    if tuple(sorted(v, reverse=True)) == pb:
                        moved = True
            assert moved, (a, b)

    def test_nodes_are_sorted_labels(self):
        lat = build_unit_exchange(5, 5)
        assert list(lat.nodes) == sorted(lat.nodes)


class TestSplitMerge:
    def test_nodes_match_unit_exchange(self):
        assert build_split_merge(7, 7).nodes == build_unit_exchange(7, 7).nodes

    def test_edges_are_merges(self):
        lat = build_split_merge(6, 3)
        assert ("330", "600") in lat.edges
        assert ("321", "510") in lat.edges

    @pytest.mark.parametrize("total", range(13))
    def test_edges_are_every_merge_of_two_slots(self, total):
        """The edges are the pairs (v, w) where w merges two nonzero slots of
        the padded vector v into one and re-sorts, at every zero-slot
        boundary."""
        for slots in sorted({1, 2, 3, total, total + 2} - {0}):
            labels = {vector: label for label, vector in node_parts(total, slots).items()}
            merges = set()
            for v, label in labels.items():
                for i, j in combinations(range(slots), 2):
                    if v[i] and v[j]:
                        rest = [x for k, x in enumerate(v) if k not in (i, j)]
                        w = tuple(sorted(rest + [v[i] + v[j], 0], reverse=True))
                        merges.add(tuple(sorted((label, labels[w]))))
            assert set(build_split_merge(total, slots).edges) == merges, slots

    def test_grading_by_nonzero_parts(self):
        lat = build_split_merge(7, 7)
        parts = node_parts(7)
        for a, b in lat.edges:
            na = sum(1 for v in parts[a] if v)
            nb = sum(1 for v in parts[b] if v)
            assert abs(na - nb) == 1


class TestDistances:
    def test_two_step_exchange(self):
        lat = build_unit_exchange(6, 3)
        assert distance(lat, "330", "411") == 2

    def test_three_step_file_path(self):
        lat = build_split_merge(6, 3)
        assert distance(lat, "330", "411") == 3

    def test_self_distance(self):
        lat = build_unit_exchange(6, 3)
        assert distance(lat, "222", "222") == 0

    def test_unknown_node(self):
        lat = build_unit_exchange(6, 3)
        with pytest.raises(KeyError):
            distance(lat, "999", "330")

    def test_disconnected_is_infinite(self):
        hyper = build_hypercube(2)
        pruned = lattices.OrbitLattice("hypercube", hyper.nodes, array("I", [0]), array("I", [1]))
        assert pruned.edges == (("00", "01"),)
        assert distance(pruned, "10", "01") == math.inf


class TestBitVariants:
    def test_subset_swap_shape(self):
        lat = build_subset_swap(5, 3)
        assert lat.node_count == 10
        assert lat.edge_count == 30
        assert all(lat.degree(n) == 6 for n in lat.nodes)

    @pytest.mark.parametrize("ones", (2, 3))
    def test_petersen(self, ones):
        lat = build_subset_double_swap(5, ones)
        assert lat.node_count == 10
        assert lat.edge_count == 15
        assert all(lat.degree(n) == 3 for n in lat.nodes)
        # Adjacent words differ in four positions.
        for a, b in lat.edges:
            assert sum(x != y for x, y in zip(a, b)) == 4

    def test_hypercube_three(self):
        lat = build_hypercube(3)
        assert lat.node_count == 8
        assert lat.edge_count == 12
        assert all(lat.degree(n) == 3 for n in lat.nodes)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_subset_swap(4, 9)
        with pytest.raises(ValueError):
            build_hypercube(0)

    def test_node_cap(self):
        with pytest.raises(ValueError):
            build_hypercube(25)

    def test_edge_cap(self, monkeypatch):
        monkeypatch.setattr(lattices, "EDGE_CAP", 100)
        assert build_hypercube(5).edge_count == 80
        with pytest.raises(ValueError, match="edge count exceeds the cap 100"):
            build_hypercube(8)

    @pytest.mark.parametrize("build", (
        lambda: build_hypercube(8),
        lambda: build_subset_swap(8, 4),
        lambda: build_subset_double_swap(8, 4),
        lambda: build_unit_exchange(12, 12),
        lambda: build_split_merge(12, 12),
    ))
    def test_edge_cap_refuses_before_building(self, monkeypatch, build):
        def collect(*_):
            raise AssertionError("edges collected past the cap")

        monkeypatch.setattr(lattices, "EDGE_CAP", 100)
        monkeypatch.setattr(lattices, "_collect", collect)
        with pytest.raises(ValueError, match="edge count exceeds the cap 100"):
            build()

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_closed_form_edge_counts(self, bits):
        assert build_hypercube(bits).edge_count == bits * 2 ** (bits - 1)
        for ones in range(bits + 1):
            nodes, zeros = math.comb(bits, ones), bits - ones
            assert build_subset_swap(bits, ones).edge_count == nodes * ones * zeros // 2
            assert (build_subset_double_swap(bits, ones).edge_count
                    == nodes * math.comb(ones, 2) * math.comb(zeros, 2) // 2)

    @pytest.mark.parametrize("ones", (1, lattices.WIDTH_CAP - 1))
    def test_short_side_forms_no_swap_pairs(self, monkeypatch, ones):
        """Fewer ones or zeros than swaps: no edges, found without forming
        the pairs of the other side."""
        sizes = []
        real = lattices.combinations
        monkeypatch.setattr(lattices, "combinations",
                            lambda pool, k: sizes.append(k) or real(pool, k))
        lat = build_subset_double_swap(lattices.WIDTH_CAP, ones)
        assert (lat.node_count, lat.edge_count) == (lattices.WIDTH_CAP, 0)
        assert sizes == [ones]  # the node masks only

    def test_width_cap(self, monkeypatch):
        monkeypatch.setattr(lattices, "WIDTH_CAP", 6)
        assert build_subset_swap(6, 1).node_count == 6
        assert build_split_merge(4, 6).node_count == 5
        for build in (lambda: build_subset_swap(7, 1), lambda: build_split_merge(4, 7)):
            with pytest.raises(ValueError, match="label width 7 exceeds the cap 6"):
                build()

    @pytest.mark.parametrize("cap", (1, 2, 3, 7, 8, 9, 20, 35, 36, 10 ** 6))
    def test_parameter_refusal_is_the_count_refusal(self, cap):
        """Refused from the parameters exactly when the count passes the cap."""
        for n in range(1, 40):
            for k in range(n + 1):
                assert lattices._comb_exceeds(n, k, cap) == (math.comb(n, k) > cap)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_hypercube_node_cap_boundary(self, monkeypatch, dim):
        monkeypatch.setattr(lattices, "NODE_CAP", 2 ** dim)
        assert build_hypercube(dim).node_count == 2 ** dim
        with pytest.raises(ValueError, match=rf"cap {2 ** dim}: 2\^{dim + 1} nodes"):
            build_hypercube(dim + 1)
        monkeypatch.setattr(lattices, "NODE_CAP", 2 ** dim - 1)
        with pytest.raises(ValueError, match=rf"cap {2 ** dim - 1}: 2\^{dim} nodes"):
            build_hypercube(dim)


class TestDispatch:
    def test_variants(self):
        assert build_lattice("hypercube", dim=3).node_count == 8
        assert build_lattice("unit-exchange", total=5).node_count == 7
        assert build_lattice("subset-swap", bits=5, ones=2).node_count == 10

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_lattice("diagonal")

    def test_zero_slots_refused(self):
        with pytest.raises(ValueError, match="slots must be >= 1"):
            build_lattice("unit-exchange", total=5, slots=0)

    def test_negative_total_refused(self):
        with pytest.raises(ValueError, match="total must be >= 0"):
            build_lattice("split-merge", total=-1)

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="requires bits, ones"):
            build_lattice("subset-swap")


class TestColumnEdgeCounts:
    @pytest.mark.parametrize(
        "total,expected",
        [(2, (1,)), (4, (1, 2, 1)), (7, (1, 5, 6, 4, 2, 1))],
    )
    def test_printed_rows(self, total, expected):
        assert column_edge_counts(total) == expected

    @pytest.mark.parametrize("total", range(2, 13))
    def test_row_sum_law(self, total):
        from partlat.counting import neighbor_total

        assert sum(column_edge_counts(total)) == neighbor_total(total)


class TestExports:
    def test_edge_list_lines(self):
        text = build_hypercube(3).to_edge_list()
        lines = text.strip().split("\n")
        assert len(lines) == 12
        assert lines[0] == "000 -- 001"

    def test_dot_output(self):
        dot = build_hypercube(2).to_dot()
        assert dot.startswith('graph "hypercube" {')
        assert '  "00" -- "01";' in dot
        assert dot.endswith("}\n")

    def test_byte_stability(self):
        one = build_unit_exchange(7, 7).to_edge_list()
        two = build_unit_exchange(7, 7).to_edge_list()
        assert one == two

    def test_json_dict(self):
        d = build_hypercube(2).to_json_dict()
        assert d["variant"] == "hypercube"
        assert len(d["nodes"]) == 4 and len(d["edges"]) == 4


class TestEdgeView:
    """``edges`` reads as a tuple of label pairs but holds none."""

    @pytest.fixture
    def lat(self):
        return build_unit_exchange(7, 7)

    def test_sequence_semantics(self, lat):
        pairs = tuple((lat.nodes[i], lat.nodes[j]) for i, j in zip(lat._low, lat._high))
        edges = lat.edges
        assert isinstance(edges, Sequence) and len(edges) == len(pairs) == 28
        assert tuple(edges) == pairs and list(edges) == list(pairs)
        assert edges == pairs and pairs == edges and edges == build_unit_exchange(7, 7).edges
        assert edges != pairs[:-1] and edges != list(pairs) and edges != pairs[::-1]
        assert [edges[k] for k in range(-len(pairs), len(pairs))] == list(pairs) * 2
        assert edges[3:9] == pairs[3:9] and edges[::-5] == pairs[::-5]
        with pytest.raises(IndexError):
            edges[len(pairs)]
        assert edges.index(pairs[11]) == 11 and edges.count(pairs[11]) == 1
        assert list(reversed(edges)) == list(reversed(pairs))
        with pytest.raises(TypeError):
            hash(edges)

    def test_membership(self, lat):
        edges = lat.edges
        for a, b in edges:
            assert (a, b) in edges and (b, a) not in edges
        present = set(edges)
        for a in lat.nodes:
            for b in lat.nodes:
                assert ((a, b) in edges) == ((a, b) in present)
        for other in (("3220000", "nope"), ("3220000",), ["3220000", "3310000"], "x", None):
            assert other not in edges

    def test_sample_draws_like_a_tuple(self):
        import random

        edges = build_subset_double_swap(9, 4).edges
        assert random.Random(5).sample(edges, 50) == random.Random(5).sample(tuple(edges), 50)

    def test_read_only(self, lat):
        with pytest.raises(TypeError):
            lat.edges[0] = ("a", "b")


class TestPublicConstructor:
    NODES = ("a", "b", "c", "d")

    def test_normalizes_orientation_and_order(self):
        moves = {"d": ("b",), "b": ("a",), "c": ("a",)}
        lat = lattices._collect("g", {n: n for n in self.NODES}, lambda n: moves.get(n, ()))
        assert lat.edges == (("a", "b"), ("a", "c"), ("b", "d"))
        assert lat.neighbors("a") == ("b", "c") and lat.degree("d") == 1
        assert distance(lat, "c", "d") == 3

    @pytest.mark.parametrize("low,high", [
        ((0, 1), (1, 1)),  # a self-loop
        ((0, 1), (1, 4)),  # an endpoint past the nodes
        ((0, 0), (2, 2)),  # a duplicate
        ((0, 0), (2, 1)),  # out of order
        ((1,), (0,)),  # i > j
        ((0, 0), (1,)),  # a low end without its high end
        ((0,), (1, 2)),  # a high end without its low end
    ])
    def test_builder_columns_checked(self, low, high):
        with pytest.raises(ValueError, match="not increasing pairs"):
            lattices._check_columns(4, array("I", low), array("I", high))
        with pytest.raises(ValueError, match="not increasing pairs"):
            lattices.OrbitLattice("g", self.NODES, array("I", low), array("I", high))

    def test_builder_columns_pass(self):
        lattices._check_columns(4, array("I", (0, 0, 1, 2)), array("I", (1, 3, 2, 3)))
        lattices._check_columns(0, array("I"), array("I"))
        lat = lattices.OrbitLattice("g", self.NODES, array("I", (0, 0, 1, 2)),
                                    array("I", (1, 3, 2, 3)))
        assert lat.edges == (("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"))

    def test_repeated_labels_refused(self):
        # Accepted before, this answered neighbors('a') == () although edge a-b exists.
        with pytest.raises(ValueError, match="^node labels are not distinct$"):
            lattices.OrbitLattice("g", ("a", "b", "a"), array("I", [0]), array("I", [1]))


@pytest.mark.parametrize("build", (
    lambda: build_unit_exchange(9, 5), lambda: build_split_merge(11, 11),
    lambda: build_subset_swap(7, 3), lambda: build_subset_double_swap(8, 3),
    lambda: build_hypercube(6),
))
def test_adjacency_and_queries_match_the_edges(build):
    lat = build()
    adjacency = {n: set() for n in lat.nodes}
    for a, b in lat.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    for n in lat.nodes:
        assert lat.neighbors(n) == tuple(sorted(adjacency[n]))
        assert lat.degree(n) == len(adjacency[n])
    with pytest.raises(KeyError):
        lat.neighbors("nope")


class TestEdgeContract:
    """A move function yields each edge from exactly one of its ends."""

    @staticmethod
    def collect(moves):
        return lattices._collect("g", {n: n for n in "abcd"}, lambda n: moves.get(n, ()))

    @pytest.mark.parametrize("moves", (
        {"a": ["b"], "b": ["a"]},
        {"b": ["c"], "d": ["c"], "c": ["d"]},
        {"b": ["b"]},
        {"c": ["a"], "a": ["c"]},
        {"d": ["a", "a"]},
    ), ids=("both-ends", "both-ends-higher-first", "self-move", "lower-and-higher", "twice"))
    def test_repeated_pair_refused(self, moves):
        with pytest.raises(ValueError, match="not increasing pairs"):
            self.collect(moves)

    def test_edges_kept_from_either_end(self):
        lat = self.collect({"d": ["b", "a"], "c": ["a"], "a": ["b"]})
        assert lat.edges == (("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"))
        assert self.collect({"b": ["a"]}).edges == (("a", "b"),)

    @pytest.mark.parametrize("total", range(13))
    def test_unit_moves_level_two_parts(self, total):
        """Each move takes a unit from a part x to a part y < x - 1."""
        for slots in sorted({1, 2, 3, total, total + 3} - {0}):
            nodes = lattices._partition_nodes(total, slots)
            for parts in nodes:
                for moved in lattices._unit_moves(parts, slots):
                    assert moved in nodes
                    before = Counter(parts) + Counter({0: slots - len(parts)})
                    after = Counter(moved) + Counter({0: slots - len(moved)})
                    removed = sorted((before - after).elements())
                    added = sorted((after - before).elements())
                    assert len(removed) == 2
                    y, x = removed
                    assert y < x - 1 and added == sorted((y + 1, x - 1))


class TestStreamedExport:
    CASES = (
        lambda: build_unit_exchange(7, 7), lambda: build_split_merge(12, 4),
        lambda: build_hypercube(4), lambda: build_subset_double_swap(5, 1),
        lambda: build_unit_exchange(0, 1),
        lambda: lattices.OrbitLattice('we"ird\u00e9', ("b", "a"), array("I", [0]), array("I", [1])),
        lambda: lattices.OrbitLattice("empty", (), array("I"), array("I")),
    )

    @staticmethod
    def reference(lat):
        lines = ([f'graph "{lat.variant}" {{'] + [f'  "{n}";' for n in lat.nodes]
                 + [f'  "{a}" -- "{b}";' for a, b in lat.edges] + ["}"])
        return {"edges": "".join(f"{a} -- {b}\n" for a, b in lat.edges),
                "dot": "\n".join(lines) + "\n",
                "json": json.dumps(lat.to_json_dict(), indent=2) + "\n"}

    @pytest.mark.parametrize("chunk", (1, 2, 3, 4096))
    @pytest.mark.parametrize("build", CASES)
    def test_chunks_join_to_the_whole_text(self, monkeypatch, build, chunk):
        monkeypatch.setattr(tables, "_CHUNK", chunk)
        lat = build()
        for fmt, text in self.reference(lat).items():
            chunks = list(lat.export(fmt))
            assert "".join(chunks) == text
            assert len(chunks) <= 3 + 2 * (lat.node_count + lat.edge_count) // chunk + 4
        assert lat.to_edge_list() == self.reference(lat)["edges"]
        assert lat.to_dot() == self.reference(lat)["dot"]

    def test_json_dict_values(self):
        lat = build_hypercube(2)
        assert lat.to_json_dict() == {
            "variant": "hypercube", "nodes": ["00", "01", "10", "11"],
            "edges": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]]}

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown export format"):
            list(build_hypercube(2).export("xml"))


# sha256 of to_edge_list() + to_dot(), recorded from the all-pairs builders
# these replaced.  (11, 3) and (12, 4) have comma labels such as "10,1,0",
# which sort before "443" as text but after it as part tuples.
PINNED_EXPORTS = [
    (build_unit_exchange, (7, 7), "49d22af2b07881a40f19476305ecc499cb3e9cf514321218ae8404a15716afd6"),
    (build_unit_exchange, (11, 3), "a9e4732640b86dff49433c30868513c8b4b1af1b110e2e71a1c8ca3a6869f3ba"),
    (build_split_merge, (8, 4), "bf98336d10b3690e7be5e5bd370c41d254e7ee298b1867a8b967965a1a1bc337"),
    (build_split_merge, (12, 4), "98039a064608ff2603b6973d0511e6de7c886dea5252e5b1db32540984553713"),
    (build_subset_swap, (6, 3), "70a923f85e14bb1c2ab448a438ab1a9c028a121a6c79b78691034b60433a5cee"),
    (build_subset_double_swap, (7, 3), "bda60bf6c9f7bf8062072c09790a8ff0c1de3d9a8bf5e80b50f677339ce81c14"),
    (build_hypercube, (5,), "c1dbe6b530347bbbe62347b0c5a13b7f359fb561389b0857ff73612d3d38dd22"),
]


@pytest.mark.parametrize("builder,args,digest", PINNED_EXPORTS)
def test_pinned_export_bytes(builder, args, digest):
    lat = builder(*args)
    text = lat.to_edge_list() + lat.to_dot()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestNetworkxCrossChecks:
    """Independent checks against networkx (a test-only dependency)."""

    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def graph(nx, lat):
        g = nx.Graph()
        g.add_nodes_from(lat.nodes)
        g.add_edges_from(lat.edges)
        return g

    @pytest.mark.parametrize("ones", (2, 3))
    def test_petersen_isomorphism(self, nx, ones):
        lat = build_subset_double_swap(5, ones)
        assert nx.is_isomorphic(self.graph(nx, lat), nx.petersen_graph())

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_hypercube_isomorphism(self, nx, dim):
        lat = build_hypercube(dim)
        assert nx.is_isomorphic(self.graph(nx, lat), nx.hypercube_graph(dim))

    @pytest.mark.parametrize("builder", (build_unit_exchange, build_split_merge))
    def test_all_pairs_distances(self, nx, builder):
        lat = builder(8, 8)
        want = dict(nx.shortest_path_length(self.graph(nx, lat)))
        for a in lat.nodes:
            for b in lat.nodes:
                assert distance(lat, a, b) == want[a][b], (a, b)


def half_l1(lat):
    """(a, b) -> |a - b|_1 / 2 for labels of ``lat``, over the padded part
    vectors they spell."""
    vectors = {label: tuple(map(int, label.split(",") if "," in label else label))
               for label in lat.nodes}
    return lambda a, b: sum(map(abs, map(int.__sub__, vectors[a], vectors[b]))) // 2


@pytest.fixture(scope="module")
def unit_exchange_44():
    """unit-exchange(44, 44), built once for the module: 75175 nodes."""
    return build_unit_exchange(44, 44)


class TestDistanceLaw:
    """Unit-exchange distance is half the L1 distance of the padded part
    vectors (proved in ``distance``'s docstring); the bit variants have
    Hamming closed forms.  The BFS is checked against each."""

    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @pytest.mark.parametrize("total", range(17))
    def test_every_pair_through_networkx(self, nx, total):
        for slots in sorted({1, 2, 3, total, total + 2} - {0}):
            lat = build_unit_exchange(total, slots)
            law = half_l1(lat)
            rows = dict(nx.shortest_path_length(TestNetworkxCrossChecks.graph(nx, lat)))
            assert len(rows) == lat.node_count
            for a, row in rows.items():
                assert row == {b: law(a, b) for b in lat.nodes}, (slots, a)

    def test_seeded_pairs_at_forty_four(self, unit_exchange_44):
        lat = unit_exchange_44
        law = half_l1(lat)
        rng = random.Random(44)
        for _ in range(10):
            a, b = rng.sample(lat.nodes, 2)
            assert distance(lat, a, b) == law(a, b), (a, b)

    @pytest.mark.parametrize("lat,steps", ((build_hypercube(8), 1), (build_subset_swap(8, 4), 2)),
                             ids=("hypercube-8", "subset-swap-8-4"))
    def test_bit_variants_by_hamming_distance(self, nx, lat, steps):
        rows = dict(nx.shortest_path_length(TestNetworkxCrossChecks.graph(nx, lat)))
        for a in lat.nodes:
            assert rows[a] == {b: sum(map(str.__ne__, a, b)) // steps for b in lat.nodes}, a


def degree_law(vector):
    """Unit-exchange degree from the distinct values V of a padded vector:
    the pairs (x, y) in V x V with x >= 1 and y != x - 1 (a unit moves from
    the last x to the first y), where x = y needs x in two slots."""
    counts = Counter(vector)
    return sum(x >= 1 and y != x - 1 and (x != y or counts[x] >= 2)
               for x in counts for y in counts)


class TestAtTheCap:
    """Each node's degree and each edge's grading, read off the part
    vectors, at total 44 and on every small lattice."""

    @pytest.mark.parametrize("total", range(15))
    def test_degree_law_on_small_lattices(self, total):
        for slots in sorted({1, 2, 3, total, total + 2} - {0}):
            lat = build_unit_exchange(total, slots)
            for label, vector in node_parts(total, slots).items():
                assert lat.degree(label) == degree_law(vector), (slots, label)

    def test_degree_law_at_forty_four(self, unit_exchange_44):
        lat = unit_exchange_44
        wrong = [label for label, vector in node_parts(44, 44).items()
                 if lat.degree(label) != degree_law(vector)]
        assert wrong == []

    @pytest.mark.parametrize("total,slots", ((8, 8), (12, 3), (44, 100)))
    def test_split_merge_is_graded(self, total, slots):
        """Every edge changes the number of nonzero parts by one."""
        lat = build_split_merge(total, slots)
        nonzero = {label: len(vector) - vector.count(0)
                   for label, vector in node_parts(total, slots).items()}
        ungraded = [(a, b) for a, b in lat.edges if abs(nonzero[a] - nonzero[b]) != 1]
        assert ungraded == []


class TestPartitionNodeCap:
    """The partition variants are refused by their closed-form node count
    before the oracle yields a single partition."""

    def _drawn(self, monkeypatch):
        drawn = []
        iter_parts = lattices.oracle.iter_parts

        def counted(record):
            for parts in iter_parts(record):
                drawn.append(parts)
                yield parts

        monkeypatch.setattr(lattices.oracle, "iter_parts", counted)
        return drawn

    def test_refused_at_cap_plus_one(self, monkeypatch):
        drawn = self._drawn(monkeypatch)
        monkeypatch.setattr(lattices, "NODE_CAP", 21)  # p(8) = 22 nodes
        with pytest.raises(ValueError, match="node count exceeds the cap 21"):
            build_unit_exchange(8, 8)
        assert len(drawn) == 0

    def test_built_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(lattices, "NODE_CAP", 22)
        assert build_split_merge(8, 8).node_count == 22

    def test_stops_streaming_early(self, monkeypatch):
        drawn = self._drawn(monkeypatch)
        monkeypatch.setattr(lattices, "NODE_CAP", 100)
        with pytest.raises(ValueError, match="node count exceeds the cap 100"):
            build_unit_exchange(80, 80)
        assert len(drawn) == 0

    def test_total_cap_still_applies(self, monkeypatch):
        swept = []
        monkeypatch.setattr(lattices.counting, "_box_columns", lambda *a: swept.append(a))
        with pytest.raises(ValueError, match="^total 81 exceeds the enumeration cap 80$"):
            build_unit_exchange(81, 3)
        assert swept == []


@pytest.mark.parametrize("total", range(19))
def test_partition_closed_forms_match_builds(monkeypatch, total):
    """The node and edge counts checked against the caps are the built
    ones, and both partition variants share the edge count."""
    sizes = []
    check = lattices._check_size
    monkeypatch.setattr(lattices, "_check_size", lambda n, e: sizes.append((n, e)) or check(n, e))
    for slots in range(1, total + 3):
        for builder in (build_unit_exchange, build_split_merge):
            lat = builder(total, slots)
            assert sizes.pop() == (lat.node_count, lat.edge_count), (builder.__name__, slots)
