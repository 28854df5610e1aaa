"""Run one `wzs` CLI command from source, optionally traced.

Usage: python3 perfbench/cli_child.py [--trace-out FILE] <wzs arguments...>

Untraced, this is the `wzs` entry point.  With --trace-out the same tracing
wrappers as the benchmark's own process are installed first and the spans
are written to FILE as JSON when the command returns, with the clock reading
taken once wzs was imported (perf_counter is one monotonic clock for every
process on Linux, so the parent can subtract its spawn time).
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from wzs import cli

    if trace_out is None:
        return cli.main(argv)
    ready = perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "spans": tracer.finish()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
