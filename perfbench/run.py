"""partlat benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-tables, counting-cold, series-matrix, oracle-lattice (see
workloads.py and BENCHMARK.json for what each one loads and why).

The load is a closed loop with one client: one worker process runs one op at
a time, and in cli-tables each op is one ``python -m partlat.cli`` child.
Every run gets a fresh worker, so cold caches and peak memory belong to that
run.  The worker imports partlat from this checkout's ``src`` and nothing
else; without it the benchmark exits 2 and prints no result.

Set-up is timed from spawning a worker to its READY line (interpreter start,
``import partlat.cli``, op-list generation).  Each run also spawns
2 x SETUP_PROBES workers that stop at READY, half before and half after the
measuring worker, each on the next CPU in turn, and reports the median over
all of them.  The measuring worker likewise moves between CPUs in blocks of
ops (see worker.py): on shared virtual machines CPU speeds differ and drift.

End-to-end metrics come from untraced runs (``--trace 0``):
  ops_per_s        ops that passed their check / time spent inside ops
  op_p50_ms        median latency of a passing op
  op_p90_ms        90th percentile latency of a passing op (both
                   percentiles are Harrell-Davis estimates; see worker.py)
  peak_rss_mb      peak RSS of the worker (cli-tables: of its largest child)
  setup_s          median set-up time
  completed_ratio  passed / attempted; 1 - completed_ratio is the failed
                   share (an op fails if it raises, exits non-zero, times out
                   or fails its check)
Output checks, cache clearing, garbage collection and input preparation run
outside the timed part of each op.

``--trace 1`` runs each op untraced and then traced, and reports per-layer
metrics per cycle of the op list (see tracing.py); spans are written to
``.bench_build/perfbench/``.

Not measured here, because each takes several seconds to minutes and would
swamp any repeated workload: euler_product(1500), ``lattice --variant
hypercube --dim 13``, binomial_table(60) and ``scheme --total 300``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes before and after the measuring worker, so that the median
# spans the run rather than one moment of it.
SETUP_PROBES = 6
# Partition numbers handed to the worker for the checks; the largest query
# past the recursion limit asks for p(700).
REFERENCE_LIMIT = 1000
RUN_TIMEOUT_S = 170
# The seed cli_digests.json was recorded for.
DEFAULT_SEED = 1


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def fingerprint(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "partlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed}


def worker_command(args, probe: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--probe"] if probe else cmd


def stop(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def spawn(args, env, probe: bool):
    """Start a worker and wait for READY: (process, set-up seconds)."""
    start = time.perf_counter()
    # A session of its own, so a timeout can stop the worker's CLI children too.
    proc = subprocess.Popen(worker_command(args, probe), cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError("worker exited during set-up")
    return proc, setup


def probe_setups(args, env) -> list[float]:
    """Set-up times of probe workers, each started on the next CPU in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    for i in range(SETUP_PROBES):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        try:
            proc, setup = spawn(args, env, probe=True)
        finally:
            os.sched_setaffinity(0, cpus)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            stop(proc)
            raise RuntimeError("a set-up probe did not exit")
        setups.append(setup)
    return setups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    src = ROOT / "src"
    if not (src / "partlat" / "__init__.py").is_file():
        return fail(f"no partlat sources under {src}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose one of {names}", 2)
    compileall.compile_dir(src, quiet=1)
    sys.path.insert(0, str(HERE))
    import reference

    try:
        pn = reference.sympy_partition_numbers(REFERENCE_LIMIT)
    except ImportError:
        return fail("sympy is needed for the reference partition numbers", 2)
    if importlib.util.find_spec("scipy") is None:
        return fail("scipy is needed for the percentile estimates", 2)

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    try:
        setups = probe_setups(args, env)
        proc, setup = spawn(args, env, probe=False)
        setups.append(setup)
        try:
            out, _ = proc.communicate(json.dumps(pn) + "\n",
                                      timeout=RUN_TIMEOUT_S - (time.perf_counter() - began))
        except subprocess.TimeoutExpired:
            stop(proc)
            return fail("worker ran past the time limit")
        setups += probe_setups(args, env)
    except RuntimeError as exc:
        return fail(str(exc))
    if proc.returncode != 0 or not out.strip():
        return fail(f"worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    print("fingerprint:", json.dumps({**fingerprint(args.seed), "python": res["python"]}))
    print(f"workload {args.workload}: {res['ops_per_cycle']} ops per cycle, op list sha256 "
          f"{res['op_list_digest']}, {res['cycles']} cycles, {res['attempted']} ops attempted "
          f"({res['expected_failures']} documented failures, {res['problems']} problems)")
    for sample in res["problem_samples"]:
        print("problem:", sample)

    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": res["layers"][m["name"]], "unit": m["unit"]}
        print(f"trace: spans in {res['spans_file']}; {res['trace_disagreements']} ops failed "
              "in only one of the traced and untraced runs")
    else:
        values = {
            "ops_per_s": res["passed"] / res["busy_s"] if res["busy_s"] else 0.0,
            "op_p50_ms": res.get("op_p50_ms", 0.0),
            "op_p90_ms": res.get("op_p90_ms", 0.0),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "completed_ratio": res["passed"] / res["attempted"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"latency samples: {res.get('samples', 0)} passing ops, "
              f"{res.get('beyond_p90', 0)} beyond p90; set-up samples: {len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["problems"] == 0, "attempted": res["attempted"],
                      "failed": res["attempted"] - res["passed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
