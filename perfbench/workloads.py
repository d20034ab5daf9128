"""The benchmark's four workloads.

A workload is one cycle of ops generated from the seed.  The worker runs the
cycle again and again, whole, so every run applies the same mix.  Each op is
a JSON list ``[kind, *args]``; a workload prepares its inputs (untimed), runs
it (timed) and checks its output (untimed).

Sizes are drawn by stratified sampling: a parameter used k times in a cycle
gets one value near the middle of each of k equal slices of its range, so two
seeds differ in values, order and random inputs but ask for nearly the same
amount of work.  Runs on shared virtual machines already vary by several
per cent; the load itself should not add to that.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
from pathlib import Path

import checks
import reference as ref
from partlat import (counting, intmatrix, lattices, oracle, partitions, schemes,
                     series, tables, verify)

HERE = Path(__file__).resolve().parent


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k ascending integers in [lo, hi], one near the middle of each of k
    equal slices."""
    width = (hi - lo + 1) / k
    return [min(hi, lo + int(width * (i + 0.5 + rng.uniform(-0.03, 0.03)))) for i in range(k)]


def op_rng(op) -> random.Random:
    """A generator fixed by the op itself, for check vectors and inputs."""
    return random.Random(json.dumps(op))


class Workload:
    name = ""
    # Exception types that are documented defects: the op counts as failed
    # but the run stays correct.
    expected_errors: tuple[type, ...] = ()
    in_process = True

    def __init__(self, R: ref.Reference):
        self.R = R

    def prepare(self, op):
        return None

    def run(self, op, inputs):
        raise NotImplementedError

    def check(self, op, inputs, result) -> str | None:
        raise NotImplementedError

    def finish(self):
        """(op key, error) for each check deferred past the timed loop."""
        return ()


# -- counting-cold ------------------------------------------------------------

TABLE_SIZES = {
    "exact_table": (180, 200), "atmost_table": (180, 200), "distinct_table": (180, 200),
    "unit_diff_table": (180, 200), "odd_even_mixed_table": (180, 200),
    "layer_table": (60, 70), "binomial_table": (29, 31),
}

# Point queries sized below the cold-cache recursion limit...
QUERY_SIZES = {
    "p": (60, 470), "p_exact": (60, 470), "p_atmost": (40, 230), "p_box": (20, 150),
    "exact_frame": (8, 60), "layer_count": (20, 80), "unit_diff_cell": (60, 470),
    "distinct_exact": (60, 470), "binomial_row": (10, 32),
}
# ...and past it: on a cold cache each of these raises RecursionError today.
DEEP_SIZES = {
    "p": (520, 700), "p_exact": (520, 700), "p_atmost": (265, 320), "p_box": (265, 320),
    "unit_diff_cell": (520, 700),
}
BATCHES, DEEP_BATCHES = 28, 3
# p_box(60, 60, t) at t near 1450 holds about 1.7M cache entries.
LARGE_BOX = (60, 1400, 1500)


def _query(rng: random.Random, fn: str, n: int) -> list:
    # Second arguments are fixed shares of the size plus a small jitter, so a
    # batch costs about the same for every seed.
    def share(x: int, den: int) -> int:
        return max(1, x // den + rng.randint(0, max(1, x // 20)))

    if fn in ("p", "binomial_row"):
        return [fn, n]
    if fn == "p_exact":
        return [fn, n, share(n, 3)]
    if fn == "p_atmost":
        return [fn, n, share(n, 2)]
    if fn == "p_box":
        return [fn, n - share(n, 10), n - share(n, 10), n]
    if fn == "exact_frame":
        # Keep the free interior small: a 60 x 60 frame with a large
        # interior is the large-box op below, not a point query.
        k = share(n, 2) + 1
        return [fn, n, k, n + k - 1 + min((n - 1) * (k - 1), 150) // 2]
    if fn == "layer_count":
        return [fn, n, share(n, 3)]
    if fn == "unit_diff_cell":
        return [fn, n, share(n, 8)]
    if fn == "distinct_exact":
        return [fn, n, share((math.isqrt(8 * n + 1) - 1) // 2, 2)]
    raise ValueError(fn)


def _deep_query(rng: random.Random, fn: str, n: int) -> list:
    if fn == "p_atmost":
        return [fn, n, n]
    if fn == "p_box":
        return [fn, n, n, n]
    if fn == "p_exact":
        return [fn, n, rng.randint(1, n // 2)]
    if fn == "unit_diff_cell":
        return [fn, n, 0]
    return [fn, n]


class CountingCold(Workload):
    name = "counting-cold"
    expected_errors = (RecursionError,)

    @staticmethod
    def generate(rng: random.Random) -> list:
        # One table of each kind, near the middle of its range: a table's
        # cost grows fast with its size, so every seed asks for the same.
        ops = [[name, strata(rng, lo, hi, 1)[0]] for name, (lo, hi) in TABLE_SIZES.items()]
        ops.append(["box_table", 20, 20])
        # Batch b asks every function at its b-th size: batch costs form the
        # same ramp for every seed, and the seed shuffles the order.
        sizes = {fn: strata(rng, lo, hi, BATCHES) for fn, (lo, hi) in QUERY_SIZES.items()}
        for b in range(BATCHES):
            batch = [_query(rng, fn, sizes[fn][b]) for fn in QUERY_SIZES]
            rng.shuffle(batch)
            ops.append(["batch", batch])
        for _ in range(DEEP_BATCHES):
            batch = [_deep_query(rng, fn, rng.randint(lo, hi)) for fn, (lo, hi) in DEEP_SIZES.items()]
            rng.shuffle(batch)
            ops.append(["batch", batch])
        edge, lo, hi = LARGE_BOX
        ops.append(["batch", [["p_box", edge, edge, rng.randint(lo, hi)]]])
        rng.shuffle(ops)
        return ops

    def run(self, op, inputs):
        if op[0] == "batch":
            return [getattr(counting, q[0])(*q[1:]) for q in op[1]]
        return getattr(counting, op[0])(*op[1:])

    def check(self, op, inputs, result) -> str | None:
        kind, R = op[0], self.R
        if kind == "batch":
            for q, got in zip(op[1], result):
                want = self.query_value(q)
                if got != want:
                    return f"{q[0]}{tuple(q[1:])} = {got}, expected {want}"
            return None
        if kind == "box_table":
            return checks.box_table(R, result, op[1], op[2])
        if kind == "layer_table":
            return checks.layer_table(R, result, op[1], op_rng(op))
        return getattr(checks, kind)(R, result, op[1])

    def query_value(self, q):
        fn, args = q[0], q[1:]
        if fn == "p":
            return self.R.p(args[0])
        if fn == "p_exact":
            return ref.exact(*args)
        if fn == "p_atmost":
            n, k = args
            return ref.atmost_coefficients(k, n)[n]
        if fn == "p_box":
            return ref.box(*args)
        if fn == "exact_frame":
            return ref.exact_frame(*args)
        if fn == "layer_count":
            return ref.layer_count(*args)
        if fn == "unit_diff_cell":
            return self.R.unit_diff(*args)
        if fn == "distinct_exact":
            return ref.distinct(*args)
        if fn == "binomial_row":
            return tuple(math.comb(args[0] - 1, k - 1) for k in range(1, args[0] + 1))
        raise ValueError(fn)


# -- series-matrix --------------------------------------------------------------

SERIES_SIZES = {
    "euler_product": (100, 500), "partition_series": (100, 500), "distinct_series": (100, 400),
    "capped_product": (100, 600), "series_mul": (100, 600), "series_invert": (100, 600),
}
MATRIX_SIZES = {
    "partition_matrix": (50, 300), "euler_matrix": (50, 300),
    "inverse_exact_parts_matrix": (50, 300), "inverse_unit_diff_matrix": (50, 300),
    "multiply": (50, 150),
    "scheme_matrix": (40, 110), "scheme_inverse": (40, 110), "build_scheme": (40, 110),
}
# The scheme ops fill p_box caches that grow with the cube of the total,
# so the largest of them sets the run's peak memory: it is the same size for
# every seed.
SCHEMES = ("scheme_matrix", "scheme_inverse", "build_scheme")
PER_KIND, SERIES_PER_KIND = 4, 6


def _random_series(rng: random.Random, order: int, unit: bool):
    c = [rng.randint(-5, 5) for _ in range(order + 1)]
    if unit:
        c[0] = rng.choice((1, -1))
    return series.TruncatedSeries(tuple(c))


class SeriesMatrix(Workload):
    name = "series-matrix"

    @staticmethod
    def generate(rng: random.Random) -> list:
        ops = []
        for kind, (lo, hi) in {**SERIES_SIZES, **MATRIX_SIZES}.items():
            k = SERIES_PER_KIND if kind in SERIES_SIZES else PER_KIND
            sizes = strata(rng, lo, hi, k - 1) + [hi] if kind in SCHEMES else strata(rng, lo, hi, k)
            for n in sizes:
                if kind == "capped_product":
                    # The same number of factors and the same caps for every
                    # seed, on seeded part values.
                    bounds = [None] * 4 + [1, 2, 3, 4] * 4
                    rng.shuffle(bounds)
                    parts = rng.sample(range(1, 41), len(bounds))
                    ops.append([kind, n, [list(c) for c in zip(parts, bounds)]])
                else:
                    ops.append([kind, n])
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        kind, n = op[0], op[1]
        if kind == "series_mul":
            rng = op_rng(op)
            return _random_series(rng, n, False), _random_series(rng, n, False)
        if kind == "series_invert":
            return _random_series(op_rng(op), n, True)
        if kind == "multiply":
            return intmatrix.partition_matrix(n), intmatrix.euler_matrix(n)
        return None

    def run(self, op, inputs):
        kind, n = op[0], op[1]
        if kind == "series_mul":
            return inputs[0] * inputs[1]
        if kind == "series_invert":
            return inputs.invert()
        if kind == "multiply":
            return intmatrix.multiply(*inputs)
        if kind == "capped_product":
            return series.capped_product([tuple(c) for c in op[2]], n)
        if kind == "build_scheme":
            return schemes.build_scheme(n)
        if kind in SERIES_SIZES:
            return getattr(series, kind)(n)
        return getattr(intmatrix, kind)(n)

    def check(self, op, inputs, result) -> str | None:
        kind, n, R = op[0], op[1], self.R
        if kind == "build_scheme":
            return checks.scheme_table(R, result, n, op_rng(op))
        if kind in SERIES_SIZES:
            c = result.coefficients
            if kind == "euler_product":
                return checks.euler_coefficients(c, n)
            if kind == "partition_series":
                return checks.partition_coefficients(R, c, n)
            if kind == "distinct_series":
                return checks.distinct_coefficients(c, n)
            if kind == "capped_product":
                return checks.capped_coefficients(c, op[2], n)
            if kind == "series_mul":
                return checks.series_product(inputs[0].coefficients, inputs[1].coefficients,
                                             c, op_rng(op))
            return checks.series_inverse(inputs.coefficients, c)
        e = result.entries
        if kind == "partition_matrix":
            return checks.partition_matrix(R, e, n)
        if kind == "euler_matrix":
            return checks.euler_matrix(e, n)
        if kind == "multiply":
            return checks.identity(e, n)
        if kind == "inverse_exact_parts_matrix":
            return checks.inverse_of(checks.exact_parts_reference(n), e, n, op_rng(op),
                                     "inverse exact-parts matrix")
        if kind == "inverse_unit_diff_matrix":
            return checks.inverse_of(checks.unit_diff_reference(R, n), e, n, op_rng(op),
                                     "inverse unit-diff matrix")
        if kind == "scheme_matrix":
            rows = tuple(range(n, 0, -1))
            table = tables.CountTable("scheme", "m1", "n", rows, tuple(range(1, n + 1)), e)
            return checks.scheme_table(R, table, n, op_rng(op))
        # scheme_inverse: against the scheme matrix, itself checked above.
        return checks.inverse_of(intmatrix.scheme_matrix(n).entries, e, n, op_rng(op),
                                 "scheme inverse")


# -- oracle-lattice ---------------------------------------------------------------

def _record(rng: random.Random, family: str, total: int) -> dict:
    # Bounds near a quarter of the total: they prune the enumeration by a
    # similar share for every seed.
    quarter = total // 4 + rng.randint(-1, 1)
    kw = {"total": total}
    if family == "max_parts":
        kw["max_parts"] = quarter
    elif family == "exact_parts":
        kw["exact_parts"] = quarter
    elif family == "max_part":
        kw["max_part"] = quarter
    elif family == "exact_max_part":
        kw["exact_max_part"] = quarter
    elif family == "box":
        kw["max_part"], kw["max_parts"] = rng.randint(8, 10), rng.randint(8, 10)
    elif family == "min_part":
        kw["min_part"] = rng.randint(2, 3)
    elif family == "unit_count":
        kw["unit_count"] = total // 6 + rng.randint(-1, 1)
    elif family == "layer":
        kw["layer"] = quarter
    elif family != "plain":
        kw["parity"] = family
    return kw


FAMILIES = ("plain", "max_parts", "exact_parts", "max_part", "exact_max_part", "box",
            "min_part", "unit_count", "layer", "all-odd", "all-even", "mixed", "distinct")
CLASSIFIERS = ("exact_parts", "largest_part", "unit_count", "layer", "hook_frame", "parity_class")
PARTITION_OPS = ("conjugate", "ferrers_transpose", "ferrers_complement", "box_complement",
                 "layer", "multiplicity_round_trip")
# Each lattice variant is built twice per cycle, at a small and at the top
# size, the same for every seed; the seed picks the nodes that are read.  A
# read op asks for the distance from each of READS seeded nodes to a node
# farthest from it (so the search covers the whole component, whatever the
# node), and for its neighbours and degree; an export op writes all three
# formats.  Single reads of the small lattices take tens of microseconds:
# bundled, each op is large enough to time.
READS = 4
LATTICES = (
    ("unit-exchange", "total", (10, 16)), ("split-merge", "total", (10, 16)),
    ("subset-swap", "bits", (8, 12)), ("subset-double-swap", "bits", (8, 12)),
    ("hypercube", "dim", (7, 10)),
)


def record_count(R, kw: dict) -> int:
    """Reference count for a generated constraint record."""
    n = kw["total"]
    if "max_part" in kw and "max_parts" in kw:
        return ref.box(kw["max_part"], kw["max_parts"], n)
    if "max_parts" in kw:
        return ref.atmost_coefficients(kw["max_parts"], n)[n]
    if "max_part" in kw:  # conjugation swaps part size and part count
        return ref.atmost_coefficients(kw["max_part"], n)[n]
    if "exact_parts" in kw:
        return ref.exact(n, kw["exact_parts"])
    if "exact_max_part" in kw:
        return ref.exact(n, kw["exact_max_part"])
    if "min_part" in kw:
        return ref.parts_from_coefficients(range(kw["min_part"], n + 1), n)[n]
    if "unit_count" in kw:
        return R.unit_diff(n, kw["unit_count"])
    if "layer" in kw:
        return ref.layer_count(n, kw["layer"])
    parity = kw.get("parity", "none")
    odd = ref.odd_part_series(n)[n]
    even = R.p(n // 2) if n % 2 == 0 else 0
    return {"none": R.p(n), "all-odd": odd, "distinct": odd, "all-even": even,
            "mixed": R.p(n) - odd - even}[parity]


def classify_reference(R, n: int, key: str) -> dict | None:
    if key == "exact_parts" or key == "largest_part":
        return {k: ref.exact(n, k) for k in range(1, n + 1)}
    if key == "unit_count":
        return {u: R.unit_diff(n, u) for u in range(0, n + 1)}
    if key == "layer":
        return {k: ref.layer_count(n, k) for k in range(1, n + 1)
                if any(ref.layer_count(n, j) for j in range(k, n + 1))}
    return None


class OracleLattice(Workload):
    name = "oracle-lattice"

    def __init__(self, R):
        super().__init__(R)
        self.lattices: dict[int, object] = {}
        self.adjacency: dict[int, dict] = {}

    @staticmethod
    def generate(rng: random.Random) -> list:
        # The counts form the cycle's tail: totals in a narrow band keep them
        # a dense group, so the 90th percentile falls inside it.
        counts = [["count", _record(rng, f, t)]
                  for f, t in zip(FAMILIES, strata(rng, 36, 42, len(FAMILIES)))]
        classify = [["classify", t, key]
                    for key, t in zip(CLASSIFIERS, strata(rng, 20, 32, len(CLASSIFIERS)))]
        enum = [["enumerate", _record(rng, f, t)]
                for f, t in zip(("max_parts", "distinct", "plain"), strata(rng, 20, 40, 3))]
        parts = [["partitions", name, t]
                 for name, t in zip(PARTITION_OPS, strata(rng, 20, 28, len(PARTITION_OPS)))]
        streams = [[op] for op in counts + classify + enum + parts]
        streams.append([["verify", 5]])
        lid = 0
        for variant, key, sizes in LATTICES:
            for size in sizes:
                params = {key: size}
                if key == "bits":
                    params["ones"] = size // 2
                after = [["reads", lid, [rng.randrange(1 << 30) for _ in range(READS)]]
                         for _ in range(2)] + [["export", lid]]
                rng.shuffle(after)
                streams.append([["build", lid, variant, params]] + after)
                lid += 1
        # Interleave the streams at random, keeping each lattice's build
        # ahead of its reads and exports.
        ops = []
        while streams:
            weights = [len(s) for s in streams]
            s = rng.choices(range(len(streams)), weights)[0]
            ops.append(streams[s].pop(0))
            if not streams[s]:
                streams.pop(s)
        return ops

    def prepare(self, op):
        kind = op[0]
        if kind == "partitions":
            return oracle.enumerate_partitions(oracle.ConstraintRecord(total=op[2]))
        if kind == "export":
            return self.lattices[op[1]]
        if kind == "reads":
            lat, adj = self.lattices[op[1]], self.adjacency[op[1]]
            starts = [lat.nodes[i % len(lat.nodes)] for i in op[2]]
            return lat, [(a, checks.farthest(adj, a)) for a in starts]
        return None

    def run(self, op, inputs):
        kind = op[0]
        if kind == "count":
            return oracle.count(oracle.ConstraintRecord(**op[1]))
        if kind == "enumerate":
            return oracle.enumerate_partitions(oracle.ConstraintRecord(**op[1]))
        if kind == "classify":
            return oracle.classify(oracle.ConstraintRecord(total=op[1]), op[2])
        if kind == "partitions":
            return [PARTITION_RUNS[op[1]](q) for q in inputs]
        if kind == "verify":
            return verify.verify_suite(op[1])
        if kind == "build":
            return lattices.build_lattice(op[2], **op[3])
        if kind == "reads":
            lat, pairs = inputs
            return [(lattices.distance(lat, a, b), lat.neighbors(a), lat.degree(a))
                    for a, b in pairs]
        return inputs.to_edge_list(), inputs.to_dot(), inputs.to_json_dict()

    def check(self, op, inputs, result) -> str | None:
        kind, R = op[0], self.R
        if kind == "count":
            want = record_count(R, op[1])
            return None if result == want else f"count {op[1]} = {result}, expected {want}"
        if kind == "enumerate":
            want = record_count(R, op[1])
            seen = [q.nonzero_parts for q in result]
            if len(seen) != want or len(set(seen)) != want:
                return f"enumerate {op[1]}: {len(seen)} partitions, expected {want} distinct"
            if any(sum(s) != op[1]["total"] for s in seen) or seen != sorted(seen, reverse=True):
                return f"enumerate {op[1]}: wrong totals or order"
            return None
        if kind == "classify":
            return self.check_classify(op[1], op[2], result)
        if kind == "partitions":
            return check_partition_op(op[1], inputs, result)
        if kind == "verify":
            bad = [r.name for r in result.results if not r.ok]
            if bad or not result.results:
                return f"verify_suite({op[1]}) failed: {bad[:3]}"
            return None
        if kind == "build":
            err = checks.lattice(op[2], op[3], result, op_rng(op))
            if err is None:
                self.lattices[op[1]] = result
                self.adjacency[op[1]] = checks.adjacency(result)
            return err
        if kind == "reads":
            lat, pairs = inputs
            adj = self.adjacency[op[1]]
            if len(result) != len(pairs):
                return f"reads: {len(result)} results for {len(pairs)} nodes"
            for (a, b), (dist, nbrs, deg) in zip(pairs, result):
                error = checks.lattice_distance(lat.variant, adj, a, b, dist)
                if error is not None:
                    return error
                if tuple(nbrs) != tuple(sorted(adj[a])) or deg != len(adj[a]):
                    return f"neighbors({a}) = {nbrs}, degree {deg}"
            return None
        lat, (edges, dot, graph) = inputs, result
        return (checks.edge_list_text(edges, len(lat.edges))
                or checks.dot_text(dot, len(lat.nodes), len(lat.edges))
                or checks.json_graph(json.loads(json.dumps(graph)), len(lat.nodes), len(lat.edges)))

    def check_classify(self, n: int, key: str, result: dict) -> str | None:
        if sum(result.values()) != self.R.p(n):
            return f"classify({n}, {key}) buckets sum to {sum(result.values())}"
        want = classify_reference(self.R, n, key)
        if key == "parity_class":
            odd = ref.odd_part_series(n)[n]
            even = self.R.p(n // 2) if n % 2 == 0 else 0
            want = {k: v for k, v in (("even", even), ("mixed", self.R.p(n) - odd - even),
                                      ("odd", odd)) if v}
        if want is None:
            return None
        want = {k: v for k, v in want.items() if v or min(result) <= k <= max(result)}
        return None if result == want else f"classify({n}, {key}) = {result}"


def _ferrers_transpose(q):
    return q.to_ferrers(q.nonzero_count, q.largest).transpose().to_partition()


def _ferrers_complement(q):
    f = q.to_ferrers(q.nonzero_count + 1, q.largest + 1)
    return f.complement().transverse().to_partition()


PARTITION_RUNS = {
    "conjugate": lambda q: q.conjugate(),
    "ferrers_transpose": _ferrers_transpose,
    "ferrers_complement": _ferrers_complement,
    "box_complement": lambda q: q.box_complement(q.nonzero_count + 1, q.largest + 1),
    "layer": lambda q: q.layer(),
    "multiplicity_round_trip": lambda q: partitions.from_multiplicity(q.to_multiplicity()),
}


def check_partition_op(name: str, qs, results) -> str | None:
    for q, r in zip(qs, results):
        parts = q.nonzero_parts
        if name in ("conjugate", "ferrers_transpose"):
            ok = r.nonzero_parts == checks.conjugate(parts)
        elif name in ("ferrers_complement", "box_complement"):
            ok = r.nonzero_parts == checks.box_complement(parts, len(parts) + 1, parts[0] + 1)
        elif name == "layer":
            ok = r == checks.layer(parts)
        else:
            ok = r == q.parts
        if not ok:
            return f"{name}({parts}) = {r}"
    return None if len(results) == len(qs) else f"{name}: {len(results)} results"


# -- cli-tables ------------------------------------------------------------------

TABLE_FORMATS = ("tsv", "csv", "json", "md")
GRAPH_FORMATS = ("edges", "dot", "json")
# Every table name, with its mid-size argument (flag, low, high).
TABLE_MID = {
    "exact": ("--max", 20, 120), "atmost": ("--max", 20, 120),
    "odd-even-mixed": ("--max", 20, 120), "distinct": ("--max", 20, 120),
    "unit-diff": ("--max", 20, 120), "euler": ("--size", 20, 150),
    "euler-inverse": ("--size", 20, 150), "inverse-exact": ("--size", 20, 150),
    "inverse-unit-diff": ("--size", 20, 150), "scheme": ("--total", 10, 60),
    "neighbors": ("--max", 6, 12), "layers": ("--max", 10, 60),
    "binomial": ("--max", 8, 25), "box": None,
}
# Table calls at the caps the CLI enforces (all finish today), and the
# largest scheme and lattices of the workload.
LARGE_CALLS = (
    ("table", "exact", "--max", "200", "--format", "md"),
    ("table", "euler", "--size", "500", "--format", "json"),
    ("table", "euler-inverse", "--size", "500", "--format", "csv"),
    ("scheme", "--total", "100", "--inverse", "--format", "tsv"),
    ("lattice", "--variant", "unit-exchange", "--total", "16", "--format", "dot"),
    ("lattice", "--variant", "hypercube", "--dim", "10", "--format", "json"),
)
SERIES_KINDS = ("euler", "partition", "distinct", "distinct-signed", "capped")
LATTICE_VARIANTS = ("unit-exchange", "split-merge", "subset-swap", "subset-double-swap",
                    "hypercube")
COUNT_FLAGS = ("--max-part", "--max-parts", "--exact-parts", "--exact-max-part", "--min-part",
               "--unit-count", "--layer")
CLI_TIMEOUT_S = 120


def _lattice_args(rng: random.Random, variant: str) -> list[str]:
    if variant in ("unit-exchange", "split-merge"):
        return ["--total", str(rng.randint(9, 11))]
    if variant == "hypercube":
        return ["--dim", str(rng.randint(6, 7))]
    bits = rng.randint(7, 8)
    return ["--bits", str(bits), "--ones", str(bits // 2 + rng.randint(-1, 0))]


def _caps_arg(rng: random.Random) -> str:
    parts = sorted(rng.sample(range(1, 16), rng.randint(3, 8)))
    return ",".join(f"{k}:{'*' if rng.random() < 0.25 else rng.randint(1, 5)}" for k in parts)


class CliTables(Workload):
    """Each op is a fresh CLI process.

    Outputs are checked after the timed loop.  A process started from the
    worker inherits the worker's peak memory as its own starting peak, so
    the worker must not grow by parsing outputs while children still run.
    Every cycle repeats the same commands: outputs of later cycles are only
    compared with the first.
    """

    name = "cli-tables"
    in_process = False

    def __init__(self, R, env: dict, python: str):
        super().__init__(R)
        self.env = env
        self.python = python
        digests = HERE / "cli_digests.json"
        self.digests = json.loads(digests.read_text()) if digests.exists() else {}
        self.outputs: dict[str, bytes] = {}

    @staticmethod
    def generate(rng: random.Random) -> list:
        ops = []
        for name in TABLE_MID:
            for fmt in rng.sample(TABLE_FORMATS, 3):
                ops.append(["table", name, "--format", fmt])
            fmt = rng.choice(TABLE_FORMATS)
            mid = TABLE_MID.get(name)
            if mid is None:
                ops.append(["table", name, "--edge", str(rng.randint(3, 10)),
                            "--dim", str(rng.randint(3, 10)), "--format", fmt])
            else:
                flag, lo, hi = mid
                ops.append(["table", name, flag, str(strata(rng, lo, hi, 1)[0]), "--format", fmt])
        # The large calls are the same for every seed: they set the tail and
        # the largest child's memory.
        ops += [list(argv) for argv in LARGE_CALLS]
        for fmt, total in zip(rng.sample(TABLE_FORMATS, 2), strata(rng, 5, 40, 2)):
            ops.append(["scheme", "--total", str(total), "--format", fmt])
        ops.append(["scheme", "--total", str(rng.randint(5, 20)), "--inverse",
                    "--format", rng.choice(TABLE_FORMATS)])
        # Every series kind at its default order and at two large ones: the
        # large series are a dense group of similar cost below the large
        # calls, so the 90th percentile falls inside it.
        for kind in SERIES_KINDS:
            for order in (None, rng.randint(245, 255), rng.randint(295, 305)):
                argv = ["series", "--kind", kind]
                if order is not None:
                    argv += ["--order", str(order)]
                if kind == "capped":
                    argv += ["--caps", _caps_arg(rng)]
                ops.append(argv)
        for variant in LATTICE_VARIANTS:
            for fmt in GRAPH_FORMATS:
                ops.append(["lattice", "--variant", variant, *_lattice_args(rng, variant),
                            "--format", fmt])
        for total, flag in zip(strata(rng, 10, 40, 6), rng.sample(COUNT_FLAGS[1:], 5) + ["--max-part"]):
            argv = ["count", "--total", str(total)]
            argv += [flag, str(total // 4 + rng.randint(0, 1))]
            if total <= 20:
                argv.append("--list")
            ops.append(argv)
        for m in (rng.randint(3, 4), rng.randint(5, 6)):
            ops.append(["verify", "--max", str(m)])
        ops += [["errata"], ["errata", "--format", "json"]]
        rng.shuffle(ops)
        return [["cli", *argv] for argv in ops]

    def command(self, argv: list[str], spans: str | None = None) -> list[str]:
        if spans is None:
            return [self.python, "-m", "partlat.cli", *argv]
        return [self.python, str(HERE / "cli_child.py"), spans, *argv]

    def run(self, op, inputs, spans: str | None = None):
        proc = subprocess.run(self.command(op[1:], spans), env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    def check(self, op, inputs, result: bytes) -> str | None:
        first = self.outputs.setdefault(json.dumps(op), result)
        return None if first == result else "stdout differs from the first cycle's"

    def finish(self):
        while self.outputs:
            key, out = self.outputs.popitem()
            error = self.check_output(json.loads(key), out)
            if error is not None:
                yield key, error

    def check_output(self, op, result: bytes) -> str | None:
        argv = op[1:]
        key = " ".join(argv)
        want = self.digests.get(key)
        if want is not None and want != sha256(result):
            return f"stdout of `{key}` differs from the recorded digest"
        try:
            return check_cli_output(self.R, argv, result.decode())
        except (ValueError, KeyError, IndexError) as exc:
            return f"`{key}` output does not parse: {exc}"


def sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def parse_table(text: str, fmt: str):
    if fmt == "json":
        return tables.CountTable.from_json(text)
    if fmt == "md":
        lines = [ln[2:-2].split(" | ") for ln in text.splitlines()]
        text = "".join("\t".join(ln) + "\n" for i, ln in enumerate(lines) if i != 1)
        fmt = "tsv"
    sep = "\t" if fmt == "tsv" else ","
    head = text.split("\n", 1)[0].split(sep)
    return tables.CountTable.parse_delimited(text, sep, has_sums=head[-1] == "sum")


def check_cli_output(R, argv: list[str], text: str) -> str | None:
    cmd = argv[0]
    rng = random.Random(" ".join(argv))
    if cmd == "table":
        return check_cli_table(R, argv, parse_table(text, _opt(argv, "--format", "tsv")), rng)
    if cmd == "scheme":
        total = int(_opt(argv, "--total"))
        table = parse_table(text, _opt(argv, "--format", "tsv"))
        if "--inverse" in argv:
            return checks.inverse_of(intmatrix.scheme_matrix(total).entries, table.cells, total,
                                     rng, "scheme --inverse")
        return checks.scheme_table(R, table, total, rng)
    if cmd == "series":
        kind, order = _opt(argv, "--kind"), int(_opt(argv, "--order", "12"))
        c = [int(x) for x in text.split()]
        if kind in ("euler", "distinct-signed"):
            return checks.euler_coefficients(c, order)
        if kind == "partition":
            return checks.partition_coefficients(R, c, order)
        if kind == "distinct":
            return checks.distinct_coefficients(c, order)
        caps = [(int(k), None if b == "*" else int(b))
                for k, b in (chunk.split(":") for chunk in _opt(argv, "--caps").split(","))]
        return checks.capped_coefficients(c, caps, order)
    if cmd == "lattice":
        variant = _opt(argv, "--variant")
        params = {k: int(_opt(argv, f"--{k}")) for k in ("total", "bits", "ones", "dim")
                  if f"--{k}" in argv}
        nodes, edges = checks.lattice_shape(variant, params)
        fmt = _opt(argv, "--format", "edges")
        if fmt == "edges":
            return checks.edge_list_text(text, edges)
        if fmt == "dot":
            return checks.dot_text(text, nodes, edges)
        return checks.json_graph(json.loads(text), nodes, edges)
    if cmd == "count":
        lines = text.splitlines()
        kw = {"total": int(_opt(argv, "--total"))}
        for flag in COUNT_FLAGS:
            if flag in argv:
                kw[flag[2:].replace("-", "_")] = int(_opt(argv, flag))
        want = record_count(R, kw)
        if int(lines[-1]) != want:
            return f"count printed {lines[-1]}, expected {want}"
        if "--list" in argv and (len(lines) - 1 != want or len(set(lines[:-1])) != want):
            return f"count --list printed {len(lines) - 1} partitions"
        return None
    if cmd == "verify":
        last = text.splitlines()[-1]
        passed, _, rest = last.partition(" invariants pass, ")
        done, _, total = passed.partition("/")
        if done != total or rest != "0 unconfirmed errata":
            return f"verify reported: {last}"
        return None
    if cmd == "errata":
        if _opt(argv, "--format") == "json":
            entries = json.loads(text)
            if not entries or any("ident" not in e for e in entries):
                return "errata json has no entries"
        elif "corrected:" not in text:
            return "errata text has no entries"
        return None
    return f"no check for {cmd}"


def check_cli_table(R, argv, table, rng) -> str | None:
    name = argv[1]
    top = int(_opt(argv, "--max", "6"))
    size = int(_opt(argv, "--size", "6"))
    if name == "exact":
        return checks.exact_table(R, table, top)
    if name == "atmost":
        return checks.atmost_table(R, table, top)
    if name == "odd-even-mixed":
        return checks.odd_even_mixed_table(R, table, top)
    if name == "distinct":
        return checks.distinct_table(R, table, top)
    if name == "unit-diff":
        return checks.unit_diff_table(R, table, top)
    if name == "layers":
        return checks.layer_table(R, table, top, rng)
    if name == "binomial":
        return checks.binomial_table(R, table, top)
    if name == "neighbors":
        return checks.neighbor_table(R, table, top)
    if name == "box":
        return checks.box_table(R, table, int(_opt(argv, "--edge", "3")), int(_opt(argv, "--dim", "3")))
    if name == "scheme":
        return checks.scheme_table(R, table, int(_opt(argv, "--total", "7")), rng)
    if name == "euler":
        return checks.partition_matrix(R, table.cells, size)
    if name == "euler-inverse":
        return checks.euler_matrix(table.cells, size)
    if name == "inverse-exact":
        return checks.inverse_of(checks.exact_parts_reference(size), table.cells, size, rng,
                                 "inverse-exact")
    if name == "inverse-unit-diff":
        return checks.inverse_of(checks.unit_diff_reference(R, size), table.cells, size, rng,
                                 "inverse-unit-diff")
    return f"no check for table {name}"


WORKLOADS = {w.name: w for w in (CliTables, CountingCold, SeriesMatrix, OracleLattice)}
