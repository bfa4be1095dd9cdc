"""Run one benchmark workload against the pathcentral sources of this checkout.

    python3 perfbench/run.py --workload hub-mix --seed 1 --seconds 55 --trace 0

Imports ``pathcentral`` from ``src/`` next to this directory and nowhere
else, generates the workload's inputs from ``--seed``, answers its queries
for about ``--seconds`` seconds, and checks every answer. Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, and prints the median query time of each measure
before the JSON line. ``--trace 1`` wraps the package's layers in timing
spans, writes the spans to ``.perfbench/spans-<workload>.npz`` and reports
the per-layer metrics instead; end-to-end numbers come from untraced runs
only. Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "batch_s": "s",
}


def _import_package():
    """Import ``pathcentral`` from this checkout's ``src``, or exit with code 2."""
    sys.path.insert(0, SRC)
    try:
        import pathcentral
    except ImportError as exc:
        print(f"perfbench: cannot import pathcentral from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    here = os.path.dirname(os.path.abspath(pathcentral.__file__))
    if os.path.commonpath([here, SRC]) != SRC:
        print(f"perfbench: pathcentral came from {here}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def end_to_end_metrics(out) -> dict[str, tuple[float, str]]:
    values = {
        "setup_s": statistics.median(out.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "batch_s": statistics.median(out.batches),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def query_medians(out) -> dict[str, tuple[float, int]]:
    """Median query time of each measure, with its sample count.

    Printed, not gated: on a small shared virtual machine they spread
    between runs by more than the largest bound a gated metric may have
    (see README.md, *Noise*).
    """
    return {f"query_s.{m}.p50": (statistics.median(times), len(times))
            for m, times in out.latencies.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans as tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    # The traced grid runs in this process, since spans recorded in pool
    # workers never reach it.
    extra = {"workers": 1 if trace else 2} if workload == "grid-exact" else {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir, tracer or contextlib.nullcontext():
        out = workloads.WORKLOADS[workload](seed, seconds, workdir, **extra)

    for problem in out.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    counts = {m: len(t) for m, t in out.latencies.items()}
    print(f"workload {workload} seed {seed} trace {int(trace)}: queries {counts}, "
          f"batches {len(out.batches)}, setup rounds {len(out.setup)}")
    print(f"attempted {out.attempted} failed {out.failed} "
          f"failed_frac {out.failed / max(1, out.attempted):.6g}")
    for name, value in sorted(out.notes.items()):
        print(f"{name} {value:.6g}")

    complete = all(out.latencies.values()) and out.batches and out.setup
    if tracer is not None:
        tracer.save(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
        metrics = tracing.summarize(tracer, out.latencies)
    elif complete:
        metrics = end_to_end_metrics(out)
    else:
        metrics = {}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if complete and tracer is None:
        for name, (value, count) in query_medians(out).items():
            print(f"{name} {value:.6g} s over {count} samples")
    return {
        "correct": bool(complete) and out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["hub-mix", "uniform-wide", "grid-exact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    _import_package()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
