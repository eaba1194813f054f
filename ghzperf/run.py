#!/usr/bin/env python3
"""Run one rydghz benchmark workload and print its metrics.

    python3 ghzperf/run.py --workload scan-n20 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
The work is fixed: ``--seconds`` sets how many whole rounds run (one
round per ROUND_SECONDS, at least one), never how long to keep going,
so every run with the same arguments does the same operations.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
from the first line of this script to the first timed operation,
``run_s``, the time of one round at a reference host speed (see
``hostclock.py`` and ``Workload.reference_round_s``), and ``peak_rss_mb``.  With ``--trace 1``
the calls into the package are wrapped (see tracing.py), the spans are
written to ``ghzperf/traces/`` and the metrics are the per-layer ones.
Each line of metrics is ``name: value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "traces")

# One round of every workload takes about this long on a 2-core x86 host.
ROUND_SECONDS = 10

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("search-n8", "scan-n20", "verify-n12")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads these when numpy loads, which happens below.
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    if not os.path.isfile(os.path.join(SRC, "rydghz", "__init__.py")):
        print(f"error: rydghz sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import hostclock
    import workloads
    from rydghz.errors import RydghzError

    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.workload])
    inputs = [workload.inputs(r) for r in range(rounds)]
    setup_s = time.perf_counter() - _START

    outputs = []
    workload.clock = hostclock.ReferenceClock()
    workload.clock.start()
    try:
        for r in range(rounds):
            try:
                outputs.append(workload.timed_round(inputs[r]))
            except RydghzError:
                outputs.append(None)
    finally:
        workload.clock.stop()
    run_s = workload.reference_round_s()
    round_walls = [sum(wall for wall, _ in r) for r in workload.stretches]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Taken before the checks, whose own calls are not part of the profile.
    if tracer is None:
        units = dict(END_TO_END)
        values = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    else:
        units = dict(tracing.PER_LAYER)
        values = tracing.per_layer_metrics(tracer, run_s)
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json"))

    failures = []
    for r, out in enumerate(outputs):
        if out is not None:
            failures.extend(f"round {r}: {msg}" for msg in workload.check(inputs[r], out))
    workload.close()

    attempted = rounds * workload.ops_per_round()
    failed = attempted - workload.succeeded
    for message in workload.errors:
        print(f"operation failed: {message}", file=sys.stderr)
    for message in failures:
        print(f"check failed: {message}")
    print("round wall times: " + " ".join(f"{w:.3f}" for w in round_walls) + " s")
    for name, value in values.items():
        print(f"{name}: {value} {units[name]}")
    print(f"attempted: {attempted}")
    print(f"failed: {failed}")
    print(f"correct: {str(not failures).lower()}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
