"""The benchmark's three workloads.

Every workload is a closed loop: one caller in this process issues one query
at a time and waits for its answer. ``grid-exact`` is the one exception; it
hands its grid to ``pathcentral.bench.run_benchmark``, which spreads the rows
over its own process pool.

A workload first writes its seeded inputs as edge-list files. It then answers
whole batches of queries while the next batch is expected to end no more than
half a batch after the run's seconds, and at least two batches or grid
calls. Parsing the inputs (the set-up the caller pays) is timed in rounds
spread over the run, so that the median round sees the same host as the
queries. After the timed loop ``hub-mix`` and ``uniform-wide`` rerun one query
per measure with the same seed to check determinism; ``grid-exact`` compares
every later grid call with its first. Functions of
``pathcentral`` are looked up on their module at call time, so a traced run
sees every call.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

import pathcentral.bench as bench
import pathcentral.betweenness as betweenness
import pathcentral.graph as graph
import pathcentral.kpath as kpath
from pathcentral.adaptive import EstimatorConfig
from pathcentral.kpath import KPathConfig

import checks
import inputs

__all__ = ["MEASURES", "WORKLOADS", "Outcome", "derive_seed"]

MEASURES = ("betweenness", "coverage", "kpath")

# Stream keys for derive_seed, so inputs, roots and estimator seeds never
# share a random stream.
_GRAPH, _ROOTS, _QUERY = 0, 1, 2

HUB_MIX = {
    "n": 20_000, "out_per_vertex": 3, "in_per_vertex": 3, "roots": 10,
    "tolerance": 0.02, "kpath_tolerance": 0.005, "k": 5, "failure_prob": 0.1,
    "load_every": 12,
}
UNIFORM_WIDE = {
    "n": 100_000, "m": 500_000, "roots": 60,
    "tolerance": 0.05, "kpath_tolerance": 0.05, "k": 5, "failure_prob": 0.1,
    "load_every": 30,
}
GRID_EXACT = {
    "hub_n": 1_500, "layers": 12, "width": 40, "layer_out": 2,
    "count": 3, "reps": 3, "tolerances": [0.05, 0.025], "failure_prob": 0.1, "k": 5,
    "loads_per_call": 3,
}


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, dtype=np.uint32)[0])


@dataclass
class Outcome:
    """What one workload run measured and how many of its operations failed."""

    setup: list[float] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=lambda: {m: [] for m in MEASURES})
    batches: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, float] = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def _guarded(out: Outcome, what: str, call):
    """Run ``call``; on an exception record a failed operation and return None."""
    try:
        return call()
    except Exception:
        out.record(what, [traceback.format_exc(limit=4)])
        return None


def _load(paths: list[str], out: Outcome) -> list:
    """Parse every file once; the round's time is one set-up sample."""
    began = time.perf_counter()
    graphs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            graphs.append(graph.load_edge_list(fh))
    out.setup.append(time.perf_counter() - began)
    return graphs


def _answer(measure: str, g, root: int, seed: int, spec: dict):
    if measure == "kpath":
        cfg = KPathConfig(k=spec["k"], tolerance=spec["kpath_tolerance"],
                          failure_prob=spec["failure_prob"], seed=seed)
        return kpath.estimate_kpath_centrality(g, root, cfg)
    cfg = EstimatorConfig(tolerance=spec["tolerance"], failure_prob=spec["failure_prob"], seed=seed)
    if measure == "betweenness":
        return betweenness.estimate_betweenness(g, root, cfg)
    return betweenness.estimate_coverage(g, root, cfg)


def _run_plan(g, plan: list[tuple[str, int]], batch: int, spec: dict, seed: int,
              seconds: float, out: Outcome, reload) -> None:
    """Answer whole batches of ``batch`` queries from ``plan`` while time remains.

    The first two batches always run. Another starts while it is expected
    to end no more than half a batch after ``seconds``, judged by the last
    batch's time, so every batch is complete. The plan repeats from its
    start when it runs out, and each query gets its own estimator seed. ``reload()``
    runs before every ``load_every``-th query, outside the query times.
    When one pass over the plan asks a root for both betweenness and
    coverage, the two answers are checked against each other.
    """
    firsts: dict[str, tuple[int, int, object]] = {}
    answers: dict[tuple[int, int], dict[str, object]] = {}
    pairs = order_misses = 0
    began = time.perf_counter()
    done = 0
    while len(out.batches) < 2 or time.perf_counter() - began + out.batches[-1] / 2 <= seconds:
        in_batch = 0.0
        for i in range(done, done + batch):
            if i and i % spec["load_every"] == 0:
                reload()
            cycle, position = divmod(i, len(plan))
            measure, root = plan[position]
            query_seed = derive_seed(seed, _QUERY, i)
            started = time.perf_counter()
            est = _guarded(out, f"{measure} root {g.label_of(root)}",
                           lambda: _answer(measure, g, root, query_seed, spec))
            last = time.perf_counter() - started
            in_batch += last
            if est is None:
                continue
            out.latencies[measure].append(last)
            problems = checks.check_estimate(est)
            seen = answers.setdefault((cycle, root), {})
            seen[measure] = est
            if measure != "kpath" and {"betweenness", "coverage"} <= seen.keys():
                pairs += 1
                order_misses += checks.order_excess(
                    seen["betweenness"], seen["coverage"], spec["tolerance"]) > 2.0
                problems += checks.check_order(seen["betweenness"], seen["coverage"],
                                               spec["tolerance"])
            out.record(f"{measure} root {g.label_of(root)}", problems)
            firsts.setdefault(measure, (root, query_seed, est))
        out.batches.append(in_batch)
        done += batch

    if pairs:
        out.record("betweenness against coverage", checks.check_misses(
            "roots with betweenness above coverage + 2λ", order_misses, pairs,
            2.0 * spec["failure_prob"]))
    for measure, (root, query_seed, est) in firsts.items():
        again = _guarded(out, f"{measure} rerun", lambda: _answer(measure, g, root, query_seed, spec))
        if again is not None:
            out.record(f"{measure} rerun root {g.label_of(root)}", checks.check_same(est, again))


def hub_mix(seed: int, seconds: float, workdir: str, spec: dict = HUB_MIX) -> Outcome:
    """Top-degree hubs of a preferential-attachment digraph, each asked all three measures."""
    out = Outcome()
    path = os.path.join(workdir, "hub-mix.txt")
    inputs.write_edge_list(path, inputs.hub_edges(
        spec["n"], spec["out_per_vertex"], spec["in_per_vertex"], derive_seed(seed, _GRAPH)))
    (g,) = _load([path], out)
    roots = sorted(g.vertices(), key=lambda v: (-(g.in_degree(v) + g.out_degree(v)), v))
    plan = [(m, r) for r in roots[:spec["roots"]] for m in MEASURES]
    _run_plan(g, plan, len(plan), spec, seed, seconds, out, lambda: _load([path], out))
    return out


def uniform_wide(seed: int, seconds: float, workdir: str, spec: dict = UNIFORM_WIDE) -> Outcome:
    """Random giant-component roots of a large uniform digraph, one query each."""
    out = Outcome()
    n = spec["n"]
    edges = inputs.uniform_edges(n, spec["m"], derive_seed(seed, _GRAPH))
    path = os.path.join(workdir, "uniform-wide.txt")
    inputs.write_edge_list(path, edges)
    adjacency = sparse.csr_matrix(
        (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, component = csgraph.connected_components(adjacency, connection="strong")
    giant = np.flatnonzero(component == np.bincount(component).argmax())
    # Ten batches' worth of distinct roots: a run that finishes its batch
    # early goes on with roots no earlier query has touched.
    picks = np.random.default_rng(derive_seed(seed, _ROOTS)).choice(
        giant, size=10 * spec["roots"], replace=False)
    del edges, adjacency, component, giant
    (g,) = _load([path], out)
    # Measures rotate over the roots, so each root is asked once.
    plan = [(MEASURES[i % len(MEASURES)], g.id_of(inputs.label(v)))
            for i, v in enumerate(picks.tolist())]
    _run_plan(g, plan, spec["roots"], spec, seed, seconds, out, lambda: _load([path], out))
    return out


def _row_key(row: dict) -> tuple:
    return row["dataset"], row["vertex"], row["method"], row["tolerance"], row["rep"]


def _check_first_grid(rows: list[dict], out: Outcome) -> None:
    """Check each row, then the share of rows off their exact value by more than λ."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        out.record("grid row " + "/".join(map(str, _row_key(row))), checks.check_row(row))
        if row["exact"] is not None:
            cells.setdefault((row["dataset"], row["method"], row["tolerance"]), []).append(row)
    for cell, members in cells.items():
        misses = sum(map(checks.misses_tolerance, members))
        out.record("grid cell " + "/".join(map(str, cell)), checks.check_misses(
            "rows off exact by more than λ", misses, len(members), members[0]["failure_prob"]))
    checked = [r for members in cells.values() for r in members]
    misses = sum(map(checks.misses_tolerance, checked))
    out.notes["within_tol_frac"] = 1.0 - misses / max(1, len(checked))
    out.notes["max_error_over_tol"] = max(
        (abs(r["estimate"] - r["exact"]) / r["tolerance"] for r in checked), default=0.0)


def grid_exact(seed: int, seconds: float, workdir: str, spec: dict = GRID_EXACT,
               workers: int = 2) -> Outcome:
    """``run_benchmark`` grids with exact references, on a hub graph and a layered DAG.

    Every call runs the same grid with the same seed, so every later call
    must return the first call's rows exactly, whichever worker made them.
    """
    out = Outcome()
    paths = [os.path.join(workdir, "grid-hub.txt"), os.path.join(workdir, "grid-layered.txt")]
    inputs.write_edge_list(paths[0], inputs.hub_edges(spec["hub_n"], 3, 3, derive_seed(seed, _GRAPH)))
    inputs.write_edge_list(paths[1], inputs.layered_edges(
        spec["layers"], spec["width"], spec["layer_out"], derive_seed(seed, _GRAPH, 1)))
    config = {
        "seed": derive_seed(seed, _QUERY),
        "reps": spec["reps"],
        "workers": workers,
        "timing": True,
        "exact": True,
        "datasets": [{"name": name, "path": p} for name, p in zip(("hub", "layered"), paths)],
        "vertices": {"policy": "top-betweenness", "count": spec["count"]},
        "methods": ["betweenness", "betweenness-baseline", "coverage", "kpath"],
        "grid": {"tolerances": spec["tolerances"], "failure_prob": spec["failure_prob"]},
        "kpath": {"k": spec["k"], "weight": "original", "stopping": "adaptive",
                  "count_sink_roots": True},
    }
    began = time.perf_counter()
    first: dict[tuple, dict] = {}
    while len(out.batches) < 2 or time.perf_counter() - began + out.batches[-1] / 2 <= seconds:
        for _ in range(spec["loads_per_call"]):
            _load(paths, out)
        started = time.perf_counter()
        report = _guarded(out, "run_benchmark", lambda: bench.run_benchmark(config))
        last = time.perf_counter() - started
        if report is None:
            break
        out.batches.append(last)
        rows = report["rows"]
        # One sample per call: the mean row time. The rows of a measure fall
        # into four clusters of equal size (dataset x tolerance), so their
        # median would sit in the gap between two clusters and jump with noise.
        for m in MEASURES:
            out.latencies[m].append(statistics.fmean(
                row["wall_time"] for row in rows if row["method"] == m))
        if not first:
            first = {_row_key(row): row for row in rows}
            _check_first_grid(rows, out)
            continue
        if len(rows) != len(first):
            out.record("grid call", [f"{len(rows)} rows, the first call had {len(first)}"])
        for row in rows:
            key = _row_key(row)
            out.record("grid row " + "/".join(map(str, key)),
                       checks.check_same_row(first[key], row) if key in first
                       else ["row missing from the first grid call"])
    return out


WORKLOADS = {"hub-mix": hub_mix, "uniform-wide": uniform_wide, "grid-exact": grid_exact}
