"""Run every workload untraced and traced, and print all metrics with units.

    python3 perfbench/report.py --seed 1 --seconds 55

Each workload runs twice through ``run.py``, in its own process so that
peak memory stays per run: once untraced for the end-to-end metrics and
once traced for the per-layer ones. The tracing overhead per measure is the
traced median query time minus the untraced one, which ``run.py`` prints
before its JSON line. On ``grid-exact`` the two are not comparable, because
the traced grid runs with one worker and the untraced grid with two, so the
overhead is printed there for reference only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hub-mix", "uniform-wide", "grid-exact")
MEASURES = ("betweenness", "coverage", "kpath")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict[str, float]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    medians = {line.split()[0]: float(line.split()[1])
               for line in lines if line.startswith("query_s.")}
    return json.loads(lines[-1]), medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        plain, medians = _run(workload, args.seed, args.seconds, 0)
        traced, _ = _run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed})")
        for label, result in (("untraced", plain), ("traced", traced)):
            ok &= result["correct"]
            print(f"  {label}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
        for result in (plain, traced):
            for name, metric in result["metrics"].items():
                print(f"  {name:52s} {metric['value']:14.6g} {metric['unit']}")
        for name, value in medians.items():
            print(f"  {name:52s} {value:14.6g} s (untraced, not gated)")
        note = "  (workers differ; not comparable)" if workload == "grid-exact" else ""
        for m in MEASURES:
            base = medians[f"query_s.{m}.p50"]
            with_trace = traced["metrics"][f"trace.query_s.{m}.p50"]["value"]
            print(f"  tracing overhead {m:12s} {with_trace - base:+.6f} s "
                  f"({(with_trace - base) / base:+.1%}){note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
