"""One triwalk CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 child.py RECORD TRACE ARG...

First times a fixed pure-Python task (``speed_probe``) that measures how
fast the shared host runs this process right now. Then times
``import triwalk.cli`` (set-up) and ``triwalk.cli.main(ARG...)`` (argv to
written manifest), and writes a JSON record to RECORD: the exit code, the
three times, the peak resident set size, where triwalk was imported from
and, when TRACE is 1, the spans of every traced call.
"""

import json
import resource
import sys
import time


def speed_probe() -> float:
    """Seconds a fixed task of dict, tuple, str and float work takes.

    It runs before triwalk is imported, so the code under test cannot
    change it.
    """
    start = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[i] = (float(i), i * 0.5, str(i))
    total = 0.0
    for a, b, _ in table.values():
        total += a * b
    return time.perf_counter() - start


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    probe_s = speed_probe()
    start = time.perf_counter()
    import triwalk.cli

    setup_s = time.perf_counter() - start
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    code = triwalk.cli.main(argv)
    wall_s = time.perf_counter() - start
    sys.stdout.flush()
    record = {
        "code": code,
        "probe_s": probe_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": triwalk.cli.__file__,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
