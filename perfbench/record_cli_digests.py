"""Record sha256 digests of the cli-tables op list's stdout.

Usage (from the root of a checkout): python3 perfbench/record_cli_digests.py

Runs every command of the cli-tables cycle for the default seed once and
writes perfbench/cli_digests.json, which the workload's output check then
compares stdout against.  Rerun only when a change is meant to alter CLI
output bytes.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    from run import DEFAULT_SEED

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    for op in workloads.CliTables.generate(random.Random(DEFAULT_SEED)):
        argv = op[1:]
        proc = subprocess.run([sys.executable, "-m", "partlat.cli", *argv], env=env,
                              capture_output=True, timeout=workloads.CLI_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"`{' '.join(argv)}` exited {proc.returncode}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = workloads.sha256(proc.stdout)
    out = HERE / "cli_digests.json"
    out.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
