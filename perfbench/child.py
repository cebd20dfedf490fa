"""One workload execution in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the CLI argument lists to run, whether to trace, and where
to write the record. The record holds CLOCK_MONOTONIC stamps (shared with
the parent process) for the end of ``import weakforce.cli`` and for the
first and last CLI call, the exit code of every call, the CPU time of the
calls, the process's peak resident memory and, when traced, the per-layer
trace summary. Nothing but the standard library is imported before
weakforce, so the import stamp measures what every CLI user pays.
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import weakforce.cli

    imported = _now()
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    rcs = []
    cpu0 = time.process_time()
    first = _now()
    for argv in spec["calls"]:
        rcs.append(weakforce.cli.main(argv))
    last = _now()
    record = {
        "imported": imported,
        "first": first,
        "last": last,
        "cpu_s": time.process_time() - cpu0,
        "rcs": rcs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
