"""Run alternating benchmark pairs of two commits and write a BENCH file.

    python3 tools/bench_pairs.py --parent 13b09cd --change HEAD --pairs 10 \
        --seconds 55 --first-seed 2201 --trace-seed 2241 --claim hub-mix:batch_s \
        --what "what the change does" --out BENCH_22.json

Each commit is unpacked with ``git archive`` into its own directory under
``--workdir`` (a temporary directory by default), and ``perfbench/run.py`` of
that copy is run one process at a time. For each workload of the change's
``BENCHMARK.json`` the pairs take consecutive seeds from ``--first-seed`` on,
one block of seeds per workload; the parent runs first at the first seed,
and the order alternates from pair to pair. With ``--trace-seed`` each side
also makes one traced run per workload at ``--seconds 0``.

The file holds what was measured, the command, both commits, the CPU count,
the seeds, the protocol, per-workload summaries of every end-to-end metric
(median and quartiles of each side, pairs the change won, the median change
and the parent's IQR, both as fractions of the parent's median), all runs,
the claim block when ``--claim`` names a workload and metric, and the
traced per-layer metrics of both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (checkout directory, workload, seed, seconds, trace) -> run.py's JSON line
Runner = Callable[[str, str, int, float, bool], dict]

COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0"


def resolve(rev: str) -> str:
    """The full hash of a commit of this repository."""
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def unpack(commit: str, into: str) -> str:
    """The committed files of ``commit``, unpacked into the new directory ``into``."""
    os.makedirs(into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def run_perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a checkout's ``perfbench/run.py``: its last output line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metric: str, better: str) -> dict:
    """Both sides' quartiles of one metric over paired runs, and the pairs won."""
    sides = {side: [r[metric] for r in runs if r["side"] == side] for side in ("parent", "change")}
    parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
    won = sum((c < p) if better == "lower" else (c > p)
              for p, c in zip(sides["parent"], sides["change"]))
    return {
        "parent": parent,
        "change": change,
        "change_lower_in_pairs" if better == "lower" else "change_higher_in_pairs": won,
        "pairs": len(sides["parent"]),
        "median_change_frac": change["median"] / parent["median"] - 1.0,
        "parent_iqr_frac": (parent["q3"] - parent["q1"]) / parent["median"],
    }


def claim_block(workload: str, metric: str, better: str, summary: dict) -> dict:
    parent, change = summary["parent"], summary["change"]
    won = "change_lower_in_pairs" if better == "lower" else "change_higher_in_pairs"
    return {
        "workload": workload,
        "metric": metric,
        "better": better,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "median_change_frac": summary["median_change_frac"],
        won: summary[won],
        "pairs": summary["pairs"],
        "median_difference": abs(parent["median"] - change["median"]),
        "parent_iqr": parent["q3"] - parent["q1"],
    }


def collect(
    runner: Runner,
    checkouts: dict[str, str],
    benchmark: dict,
    pairs: int,
    seconds: float,
    first_seed: int,
    trace_seed: int | None = None,
    claim: tuple[str, str] | None = None,
    log=lambda line: None,
) -> dict:
    """Run the pairs and the traced runs, and summarize them.

    ``checkouts`` maps "parent" and "change" to their directories and
    ``benchmark`` is the parsed ``BENCHMARK.json``. Returns every key of
    the BENCH file except what, the commits and the notes.
    """
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    names = [w["name"] for w in benchmark["workloads"]]
    seeds = {w: list(range(first_seed + i * pairs, first_seed + (i + 1) * pairs))
             for i, w in enumerate(names)}
    workloads = {}
    for workload in names:
        runs = []
        for i, seed in enumerate(seeds[workload]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = runner(checkouts[side], workload, seed, seconds, False)
                run = {"seed": seed, "side": side, "first": side == order[0],
                       "correct": out["correct"], "attempted": out["attempted"],
                       "failed": out["failed"]}
                run.update({m: out["metrics"][m]["value"] for m in metrics
                            if m in out["metrics"]})
                runs.append(run)
                log(f"{workload} {seed} {side}: " + " ".join(
                    f"{m}={run[m]:.4g}" for m in metrics if m in run))
        workloads[workload] = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "summary": {m: summarize(runs, m, better) for m, better in metrics.items()
                        if all(m in r for r in runs)},
            "runs": runs,
        }
    result = {
        "command": COMMAND.format(seconds=seconds),
        "host_cpu_count": os.cpu_count(),
        "seeds": seeds,
        "protocol": (f"one run at a time on git-archive copies of both commits; {pairs} pairs "
                     "per workload, one workload after the other; parent first at the first "
                     "seed of each workload, then alternating; quartiles by "
                     "statistics.quantiles (method=inclusive)"),
        "workloads": workloads,
    }
    if claim is not None:
        workload, metric = claim
        result["claim"] = claim_block(workload, metric, metrics[metric],
                                      workloads[workload]["summary"][metric])
    if trace_seed is not None:
        result["trace"] = []
        for workload in names:
            traced = {side: runner(checkouts[side], workload, trace_seed, 0, True)
                      for side in ("parent", "change")}
            layers = sorted(set(traced["parent"]["metrics"]) | set(traced["change"]["metrics"]))
            result["trace"].append({
                "workload": workload,
                "command": (f"python3 perfbench/run.py --workload {workload} "
                            f"--seed {trace_seed} --seconds 0 --trace 1"),
                "metrics": {name: {side: traced[side]["metrics"].get(name, {}).get("value")
                                   for side in ("parent", "change")} for name in layers},
                "parent_correct": traced["parent"]["correct"],
                "change_correct": traced["change"]["correct"],
                "same_metric_names": (set(traced["parent"]["metrics"])
                                      == set(traced["change"]["metrics"])),
            })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit measured as the parent")
    parser.add_argument("--change", required=True, help="commit measured as the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--note", action="append", default=[], help="a line for the notes")
    parser.add_argument("--workdir", help="where the checkouts go (default: a temporary one)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    claim = tuple(args.claim.split(":", 1)) if args.claim else None

    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        checkouts = {side: unpack(commit, os.path.join(workdir, side))
                     for side, commit in commits.items()}
        with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        result = collect(run_perfbench, checkouts, benchmark, args.pairs, args.seconds,
                         args.first_seed, args.trace_seed, claim,
                         log=lambda line: print(line, flush=True))
    bench = {"what": args.what, "command": result.pop("command"),
             "parent_commit": commits["parent"], "change_commit": commits["change"]}
    bench.update(result)
    bench["notes"] = args.note
    with open(args.out, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
