"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the layer probes with spans on, writes the spans as
JSONL under ``.perfbench_out/`` and prints the per-layer metrics.  The
last line of standard output is always the result object; everything
else (pinned versions, span file, tally) goes before it.  Exits
non-zero, printing no result, on any wrong answer or when the program
is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its servers and pool workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2

    from system import pin_environment

    pin_environment(ROOT)
    import workloads
    import traced

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run = workloads.Run(ROOT, workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps({"pinned": pinned(args)}), flush=True)
    units = metric_units(args.trace)
    try:
        if args.trace:
            values = traced.run_traced(run)
        else:
            values = workloads.run_untraced(run)
    except workloads.Mismatch as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 3
    finally:
        run.cleanup()
    print(
        json.dumps({"checked_answers": run.checked, "attempted": run.attempted}),
        flush=True,
    )
    result = {
        "correct": True,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def pinned(args) -> dict:
    """What was measured: backend, versions, cores, seed."""
    import platform

    import numpy
    import scipy
    from repro.query.backends import resolve_backend_name

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": resolve_backend_name(None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


if __name__ == "__main__":
    sys.exit(main())
