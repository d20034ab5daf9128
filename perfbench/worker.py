"""One benchmark run of one workload, in a fresh process.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Set-up (interpreter start, ``import partlat.cli``, op-list generation) ends
when the worker prints ``READY``; run.py times set-up from spawn to that
line.  The worker then reads the reference partition numbers from stdin,
runs whole cycles of the op list, one op at a time, stopping at the cycle
boundary nearest to ``--seconds``, and prints one JSON line of results.

With ``--trace 1`` every op runs twice, untraced and then traced, each on
cold caches: the untraced time gives the tracing overhead, the traced run
gives the per-layer metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()
import partlat.cli  # noqa: E402  (timed: part of set-up)

IMPORT_S = time.perf_counter() - T0

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 120
FAILURES_KEPT = 5
# The worker moves to the next allowed CPU every OPS_PER_CPU ops (its CLI
# children inherit the CPU).  On a shared virtual machine the CPUs run at
# different, drifting speeds; spreading every run over all of them keeps
# runs comparable, and blocks of ops keep migrations rare.
CPUS = sorted(os.sched_getaffinity(0))
OPS_PER_CPU = 8


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def op_list_digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops, separators=(",", ":")).encode()).hexdigest()


class Run:
    def __init__(self, workload, ops, seconds: float, trace: bool):
        self.w = workload
        self.ops = ops
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        # One [op key, seconds, status] per attempted op; status is "ok",
        # "expected" (a documented failure) or "problem".
        self.records: list[list] = []
        self.busy = 0.0
        self.trace_overhead = 0.0
        self.trace_disagreements = 0  # ops that failed in one of the two runs only
        self.problems: list[str] = []  # wrong outputs and unexpected failures
        self.cycles = 0
        self.spans_dir = ROOT / ".bench_build" / "perfbench"
        self.child_spans = self.spans_dir / "child.spans"

    def timed(self, op, inputs, traced: bool):
        """Run one op on cold caches: (result, seconds, exception or None)."""
        if self.w.in_process:
            tracing.clear_caches()
            # Every op starts from the same collector state, and a
            # collection inside it scans only what the op allocated, not
            # the lattices, references and records this process holds: its
            # time does not depend on the ops run before it.
            gc.collect()
            gc.freeze()
        kwargs = {}
        limit = sys.getrecursionlimit()
        if traced:
            if self.w.in_process:
                self.tracer.install()
                # Each recursive call now also passes through a wrapper
                # frame; scale the limit so the same queries overflow.
                sys.setrecursionlimit(limit * 3 // 2)
            else:
                kwargs["spans"] = str(self.child_spans)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            result, exc = self.w.run(op, inputs, **kwargs), None
        except Exception as e:
            result, exc = None, e
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.w.in_process:
                gc.unfreeze()
            if traced and self.w.in_process:
                self.tracer.restore()
                sys.setrecursionlimit(limit)
        return result, elapsed, exc

    def one(self, index: int, op) -> None:
        if index % OPS_PER_CPU == 0 and len(CPUS) > 1:
            os.sched_setaffinity(0, {CPUS[index // OPS_PER_CPU % len(CPUS)]})
        key = json.dumps(op)
        try:
            inputs = self.w.prepare(op)
        except Exception as exc:
            self.problem(key, f"preparing raised {exc!r}")
            self.records.append([key, 0.0, "problem"])
            return
        result, elapsed, exc = self.timed(op, inputs, traced=False)
        self.busy += elapsed
        if exc is None:
            error = self.w.check(op, inputs, result)
        elif isinstance(exc, self.w.expected_errors):
            error = None
        else:
            error = f"raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.problem(key, error)
        status = "problem" if error is not None else "ok" if exc is None else "expected"
        self.records.append([key, elapsed, status])
        if self.tracer is not None:
            self.trace(index, op, inputs, elapsed, exc is not None)

    def trace(self, index: int, op, inputs, untraced_s: float, failed: bool) -> None:
        self.tracer.current_op = index
        _, elapsed, exc = self.timed(op, inputs, traced=True)
        self.trace_overhead += elapsed - untraced_s
        if (exc is not None) != failed:
            self.trace_disagreements += 1
        if self.w.in_process:
            self.tracer.add_counters(tracing.cache_stats())
        elif self.child_spans.exists():
            self.tracer.merge(tracing.Tracer.load(self.child_spans), index)
            self.child_spans.unlink()

    def problem(self, key: str, error: str) -> None:
        text = f"{key[:120]}: {error}"
        if len(self.problems) < FAILURES_KEPT:
            print(text, file=sys.stderr)
            self.problems.append(text)
        else:
            self.problems.append("")

    def finish_checks(self) -> None:
        """Run checks the workload deferred past the timed loop."""
        for key, error in self.w.finish():
            self.problem(key, error)
            for rec in self.records:
                if rec[0] == key:
                    rec[2] = "problem"

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r[2] == status)

    def loop(self) -> float:
        if self.tracer is not None:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            if self.w.in_process:
                self.tracer.add_span(tracing.IMPORT_SPAN, T0, T0 + IMPORT_S)
        signal.signal(signal.SIGALRM, _alarm)
        start = time.perf_counter()
        index = 0
        while True:
            cycle_start = time.perf_counter()
            for op in self.ops:
                self.one(index, op)
                index += 1
            self.cycles += 1
            # Stop at the cycle boundary nearest to the requested length.
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= self.seconds:
                os.sched_setaffinity(0, CPUS)
                return now - start


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, with Beta(p(n+1), (1-p)(n+1)) weights.

    An op list mixes op kinds of very different cost, so its latencies come
    in clusters.  A single order statistic jumps from one cluster to the next
    as noise reorders the ops near it; this estimate moves smoothly.
    """
    # Imported here, after the timed loop: at the top they would add to
    # set-up time.
    import numpy as np
    from scipy.stats import beta

    n = len(values)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1)))
    return float(np.dot(weights, sorted(values)))


def latency_metrics(lat: list[float]) -> dict:
    if len(lat) < 2:
        return {}
    p90 = quantile(lat, 0.9)
    return {
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
    }


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics, per cycle of the op list."""
    t = run.tracer
    per = 1.0 / run.cycles
    selfs = t.self_times()
    spans = t.span_counts()
    out = {f"{layer}.self_s": 0.0 for layer in tracing.LAYERS}
    for key in ("tables.render_s", "lattices.build_s", "lattices.query_s", "lattices.export_s"):
        out[key] = 0.0
    imports = [t.end[i] - t.start[i] for i in range(len(t.start))
               if t.names[t.name[i]] == tracing.IMPORT_SPAN]
    for name, s in selfs.items():
        if name == tracing.IMPORT_SPAN:
            continue
        layer = name.partition(".")[0]
        out[f"{layer}.self_s"] += s * per
        metric = tracing.time_metric(name)
        if metric:
            out[metric] += s * per
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = sum(n for name, n in spans.items()
                                    if name.startswith(layer + ".") and name != tracing.IMPORT_SPAN) * per
    c = t.counters
    for key in ("counting.cache_misses", "counting.recursion_errors", "series.coeffs_out",
                "series.cache_misses", "intmatrix.cells", "schemes.cells", "oracle.partitions",
                "lattices.nodes", "lattices.edges", "lattices.export_bytes",
                "tables.render_bytes", "verify.checks"):
        out[key] = c.get(key, 0) * per
    lookups = c.get("counting.cache_hits", 0) + c.get("counting.cache_misses", 0)
    out["counting.cache_hit_ratio"] = c.get("counting.cache_hits", 0) / lookups if lookups else 0.0
    out["counting.cache_entries"] = c.get("counting.cache_entries", 0)
    out["cli.import_s"] = statistics.fmean(imports) if imports else 0.0
    out["trace.overhead_s"] = run.trace_overhead * per
    out["trace.overhead_ratio"] = run.trace_overhead / run.busy if run.busy else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(partlat.cli.__file__).resolve().parents:
        print(f"partlat was imported from {partlat.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    cls = workloads.WORKLOADS[args.workload]
    ops = cls.generate(random.Random(args.seed))
    print("READY", flush=True)
    if args.probe:
        return 0

    R = reference.Reference(json.loads(sys.stdin.readline()))
    w = cls(R) if cls.in_process else cls(R, dict(os.environ), sys.executable)
    run = Run(w, ops, args.seconds, bool(args.trace))
    wall = run.loop()
    # Read peak memory before the deferred checks can add to it.
    peak = peak_rss_mb(not cls.in_process)
    run.finish_checks()

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_list_digest": op_list_digest(ops), "ops_per_cycle": len(ops),
        "cycles": run.cycles, "wall_s": wall, "busy_s": run.busy,
        "attempted": len(run.records), "passed": run.count("ok"),
        "expected_failures": run.count("expected"), "problems": len(run.problems),
        "problem_samples": [p for p in run.problems if p],
        "import_s": IMPORT_S, "python": sys.version.split()[0], "peak_rss_mb": peak,
        **latency_metrics([r[1] for r in run.records if r[2] == "ok"]),
    }
    if run.tracer is not None:
        path = run.spans_dir / f"spans-{args.workload}-seed{args.seed}.bin"
        run.tracer.dump(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["layers"] = layer_metrics(run)
        result["trace_disagreements"] = run.trace_disagreements
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
