"""Run one partlat CLI command through ``partlat.cli.run`` with span tracing.

Usage: python perfbench/cli_child.py SPANS_FILE ARG...

Behaves like ``python -m partlat.cli ARG...`` (same stdout, same exit
status) and writes this process's spans, counters and cache statistics to
SPANS_FILE.  The import of partlat.cli is recorded as a span of its own.
"""

import sys
import time

T0 = time.perf_counter()
import partlat.cli  # noqa: E402

T1 = time.perf_counter()

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.add_span(tracing.IMPORT_SPAN, T0, T1)
    tracer.install()
    # Wrapper frames deepen every recursion; keep the overflow point where
    # it is without tracing.
    sys.setrecursionlimit(sys.getrecursionlimit() * 3 // 2)
    try:
        return partlat.cli.run(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        tracer.add_counters(tracing.cache_stats())
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
