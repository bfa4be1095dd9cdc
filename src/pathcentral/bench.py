"""Benchmark harness: estimator error/time/sample tables over a config grid.

A config describes datasets (generated or loaded), a vertex selection
policy, estimation methods, and a tolerance grid; the harness runs every
cell for a number of repetitions with seeds derived from one master seed,
and emits both per-repetition rows and per-cell aggregates, as JSON and as
an aligned text table.

The work is split into jobs by dataset: one exact-betweenness pass, one job
for the coverage and k-path oracles, and one job per row. With ``workers``
above 1 the jobs share one process pool, oracles included; with 1 each job
runs in the calling process as it is submitted. Either way a dataset's
rows and oracle job are submitted as soon as its betweenness pass is done.

Reports are deterministic: rows are sorted, repetition seeds depend only on
the master seed and the task's position in the sorted task list (first
state word of the master seed sequence spawned at the task index), and
timing fields can be switched off entirely so that two runs of the same
config produce byte-identical JSON, whatever the number of workers.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import replace
from typing import Any

import numpy as np

from .adaptive import EstimatorConfig
from .betweenness import estimate_betweenness, estimate_coverage
from .errors import GuardError
from .exact import (
    COVERAGE_GUARD,
    all_pairs_distances,
    brandes_betweenness_all,
    exact_coverage,
    exact_kpath,
)
from .generate import hub_digraph, layered_dag, random_digraph
from .graph import DirectedGraph, dump_edge_list, load_edge_list
from .kpath import KPathConfig, estimate_kpath_centrality
from .reachability import compute_reachability

__all__ = [
    "run_benchmark",
    "select_top_vertices",
    "format_table",
    "report_to_json",
    "DEFAULT_CONFIG",
]

METHODS = ("betweenness", "betweenness-baseline", "coverage", "kpath")

DEFAULT_CONFIG: dict[str, Any] = {
    "seed": 1,
    "reps": 3,
    "workers": 1,
    "timing": True,
    "exact": True,
    "datasets": [
        {"name": "hub-400", "generator": "hub",
         "params": {"n": 400, "out_per_vertex": 3, "in_per_vertex": 3, "seed": 5}},
    ],
    "vertices": {"policy": "top-betweenness", "count": 3},
    "methods": ["betweenness"],
    "grid": {"tolerances": [0.05], "failure_prob": 0.1},
    "kpath": {"k": 5, "weight": "original"},
}

_GENERATORS = {
    "random": random_digraph,
    "hub": hub_digraph,
    "layered": layered_dag,
}


def _ranked(g: DirectedGraph, scores, count: int) -> list[int]:
    return sorted(g.vertices(), key=lambda v: (-scores[v], v))[: max(0, count)]


def _check_top_guard(g: DirectedGraph) -> None:
    if g.vertex_count > COVERAGE_GUARD:
        raise GuardError(
            f"top-vertex selection runs the exact oracle, capped at {COVERAGE_GUARD} vertices"
        )


def select_top_vertices(g: DirectedGraph, count: int) -> list[int]:
    """Vertex ids with the highest betweenness, ties broken by ascending id."""
    _check_top_guard(g)
    return _ranked(g, brandes_betweenness_all(g), count)


def _load_dataset(spec: dict[str, Any]) -> DirectedGraph:
    if "path" in spec:
        with open(spec["path"], "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    gen = _GENERATORS.get(spec.get("generator", ""))
    if gen is None:
        raise ValueError(
            f"dataset {spec.get('name', '?')!r} needs a 'path' or a known 'generator' "
            f"(one of {sorted(_GENERATORS)})"
        )
    try:
        return gen(**spec.get("params", {}))
    except TypeError as exc:
        params = inspect.signature(gen).parameters
        raise ValueError(
            f"dataset {spec.get('name', '?')!r}: bad params for generator "
            f"{spec['generator']!r} ({exc}); accepted: {sorted(params)}"
        ) from exc


def _graph_hash(g: DirectedGraph) -> str:
    return hashlib.sha256(dump_edge_list(g).encode("utf-8")).hexdigest()[:16]


def _pick_vertices(g: DirectedGraph, policy: dict[str, Any], count: int,
                   master_seed: int) -> list[int] | None:
    """The policy's vertices, or None for ``top-betweenness``, whose pick
    waits for the dataset's betweenness scores."""
    kind = policy["policy"]
    if kind == "top-betweenness":
        _check_top_guard(g)
        return None
    if kind == "labels":
        return [g.id_of(str(lab)) for lab in policy["labels"]]
    if kind == "random":
        rng = np.random.default_rng(master_seed)
        count = min(count, g.vertex_count)
        return sorted(int(v) for v in rng.choice(g.vertex_count, size=count, replace=False))
    raise ValueError(f"unknown vertex policy {kind!r}")


def _check_keys(config: dict[str, Any]) -> None:
    """Refuse a key that no setting reads, at the top level or in a section.
    Besides the keys of ``DEFAULT_CONFIG``, a section may hold the roots of
    the ``labels`` policy and the two k-path keys that older configs send."""
    more = {"vertices": {"labels"}, "kpath": {"stopping", "count_sink_roots"}}
    for key, value in config.items():
        if key not in DEFAULT_CONFIG:
            raise ValueError(f"config {key!r} is not a known key")
        if isinstance(DEFAULT_CONFIG[key], dict) and isinstance(value, dict):
            unknown = sorted(value.keys() - DEFAULT_CONFIG[key].keys() - more.get(key, set()))
            if unknown:
                raise ValueError(f"config '{key}.{unknown[0]}' is not a known key")


def _setting(config: dict[str, Any], key: str) -> Any:
    return config.get(key, DEFAULT_CONFIG[key])


def _section(config: dict[str, Any], key: str) -> dict[str, Any]:
    """The section ``key``, each missing leaf filled from ``DEFAULT_CONFIG``."""
    value = _setting(config, key)
    if not isinstance(value, dict):
        raise ValueError(f"config {key!r} must be an object, got {type(value).__name__}")
    return {**DEFAULT_CONFIG[key], **value}


def _list_of(value: Any, kind, key: str, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        raise ValueError(f"config {key!r} must be a list of {what}")
    return value


def _scalar(value: Any, kind, key: str):
    """``value`` as ``kind``: an int, any real number for ``kind=float``, true
    or false for ``kind=bool``. A bool passes only as ``kind=bool``."""
    accepted = {bool: bool, int: int, float: (int, float)}[kind]
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        what = {bool: "true or false", int: "an integer", float: "a number"}[kind]
        raise ValueError(f"config {key!r} must be {what}, got {value!r}")
    return kind(value)


def _task_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _kpath_config(spec: dict[str, Any]) -> KPathConfig:
    """The checked ``kpath`` section, at the default accuracy.

    A grid cell is a (tolerance, failure_prob) target and every root with
    an in-edge is sampled, so the older keys ``stopping`` and
    ``count_sink_roots`` are accepted only with the values that say so.
    """
    for key, value in (("stopping", "adaptive"), ("count_sink_roots", True)):
        if key in spec and (type(spec[key]) is not type(value) or spec[key] != value):
            raise ValueError(f"config 'kpath.{key}' must be {json.dumps(value)}, "
                             f"got {json.dumps(spec[key])}")
    return KPathConfig(k=_scalar(spec["k"], int, "kpath.k"), weight=spec["weight"])


def _cell_config(method: str, tolerance: float, failure_prob: float,
                 kpath: KPathConfig) -> EstimatorConfig | KPathConfig:
    """The estimator config of a cell's rows, less the per-row seed."""
    if method == "kpath":
        return replace(kpath, tolerance=tolerance, failure_prob=failure_prob)
    return EstimatorConfig(
        tolerance=tolerance,
        failure_prob=failure_prob,
        mode="baseline" if method == "betweenness-baseline" else "restricted",
    )


def _or_none(oracle, *args, **kwargs) -> float | None:
    """The oracle's value as a float, or None when out of the oracle's reach."""
    try:
        return float(oracle(*args, **kwargs))
    except GuardError:
        return None


# Jobs: module functions that take a dataset's graph first, so that a pool
# task pickles only the function's name, the dataset's name and the rest.

def _scores_job(g: DirectedGraph):
    return brandes_betweenness_all(g)


def _oracle_job(g: DirectedGraph, vertices: list[int], methods: list[str],
                k: int, weight: str) -> dict[tuple[str, str], float | None]:
    """Exact coverage and k-path values by (vertex label, method).

    The all-pairs matrix is built once here and shared by every vertex's
    ``exact_coverage`` call.
    """
    dist = None
    if "coverage" in methods and g.vertex_count <= COVERAGE_GUARD:
        dist = all_pairs_distances(g)
    values = {}
    for vertex in vertices:
        label = g.label_of(vertex)
        if "coverage" in methods:
            values[label, "coverage"] = _or_none(exact_coverage, g, vertex, dist=dist)
        if "kpath" in methods:
            values[label, "kpath"] = _or_none(exact_kpath, g, vertex, k, weight=weight)
    return values


def _row_job(g: DirectedGraph, dataset: str, vertex: int, method: str, rep: int,
             cfg: EstimatorConfig | KPathConfig, want_time: bool) -> dict[str, Any]:
    if method == "kpath":
        est = estimate_kpath_centrality(g, vertex, cfg)
    elif method == "coverage":
        est = estimate_coverage(g, vertex, cfg)
    else:
        est = estimate_betweenness(g, vertex, cfg)
    row = {
        "dataset": dataset,
        "vertex": g.label_of(vertex),
        "method": method,
        "tolerance": cfg.tolerance,
        "failure_prob": cfg.failure_prob,
        "rep": rep,
        "seed": cfg.seed,
        "estimate": est.value,
        "samples": est.samples,
        "sample_budget": est.sample_budget,
        "stop_reason": est.stop_reason,
    }
    if want_time:
        row["wall_time"] = est.wall_time
    return row


# A pool worker's graphs by dataset name, filled once by the pool
# initializer, so a task carries only its dataset name instead of a
# pickled graph.
_WORKER_GRAPHS: dict[str, DirectedGraph] = {}


def _init_worker(graphs: dict[str, DirectedGraph]) -> None:
    _WORKER_GRAPHS.update(graphs)


def _run_pooled(job, dataset: str, *args):
    return job(_WORKER_GRAPHS[dataset], *args)


def _finished(value) -> Future:
    future = Future()
    future.set_result(value)
    return future


class _Jobs:
    """Where ``run_benchmark``'s jobs run.

    With more than one worker, on a process pool whose workers receive every
    graph once; otherwise in the calling process, each job as it is
    submitted, so a failure raises from ``submit``. Leaving the ``with``
    block cancels the queued jobs and waits for the running ones, so no
    worker outlives the call.
    """

    def __init__(self, graphs: dict[str, DirectedGraph], workers: int):
        self._graphs = graphs
        self._pool = None
        if workers > 1:
            self._pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                             initargs=(graphs,))

    def submit(self, job, dataset: str, *args) -> Future:
        if self._pool is not None:
            return self._pool.submit(_run_pooled, job, dataset, *args)
        return _finished(job(self._graphs[dataset], *args))

    def __enter__(self) -> "_Jobs":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def run_benchmark(config: dict[str, Any], workers: int | None = None) -> dict[str, Any]:
    """Run the whole config grid and return the report dict.

    The report holds one row per (dataset, vertex, method, tolerance, rep)
    and one aggregate cell per (dataset, vertex, method, tolerance) with
    average and maximum error and time over the repetitions. Error columns
    appear when the matching exact oracle is feasible for the dataset.

    A key that no setting reads is refused first, and every cell's
    estimator config is built, and so checked, before any job starts. A
    dataset whose exact betweenness is wanted, or whose vertices are its
    top-betweenness ones, gets one ``brandes_betweenness_all`` job.
    As each of those finishes, in completion order, the dataset's vertices
    are picked, and its oracle job and its rows are submitted; the caller
    then computes each vertex's reachability fractions while the jobs run.
    Row ``i`` of the sorted task list keeps seed ``_task_seed(master_seed,
    i)``: a dataset's rows start after those of the datasets sorted before
    it, and their number never depends on the scores. A failing job cancels
    the queued ones and its error propagates.
    """
    if not isinstance(config, dict):
        raise ValueError("a benchmark config must be a JSON object")
    _check_keys(config)
    master_seed = _scalar(_setting(config, "seed"), int, "seed")
    reps = _scalar(_setting(config, "reps"), int, "reps")
    if reps < 1:
        raise ValueError(f"config 'reps' must be >= 1, got {reps}")
    want_time = _scalar(_setting(config, "timing"), bool, "timing")
    want_exact = _scalar(_setting(config, "exact"), bool, "exact")
    methods = _list_of(_setting(config, "methods"), str, "methods", "strings")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; known: {METHODS}")
    methods = sorted(methods)
    grid = _section(config, "grid")
    tolerances = sorted(float(t) for t in _list_of(
        grid["tolerances"], (int, float), "grid.tolerances", "numbers"))
    if not tolerances:
        raise ValueError("config 'grid.tolerances' must not be empty")
    failure_prob = _scalar(grid["failure_prob"], float, "grid.failure_prob")
    kpath = _kpath_config(_section(config, "kpath"))
    if workers is None:
        workers = _scalar(_setting(config, "workers"), int, "workers")
    if workers < 1:
        raise ValueError(f"config 'workers' must be >= 1, got {workers}")
    cell_configs = {(method, tolerance): _cell_config(method, tolerance, failure_prob, kpath)
                    for method in methods for tolerance in tolerances}

    policy = _section(config, "vertices")
    count = _scalar(policy["count"], int, "vertices.count")
    if count < 0:
        raise ValueError(f"config 'vertices.count' must be >= 0, got {count}")
    specs = _list_of(_setting(config, "datasets"), dict, "datasets", "objects")
    datasets: dict[str, tuple[DirectedGraph, list[int] | None]] = {}
    for spec in specs:
        g = _load_dataset(spec)
        name = spec.get("name") or spec.get("path", "dataset")
        if name in datasets:
            # rows, oracle values and worker graphs are all keyed by name
            raise ValueError(f"duplicate dataset name {name!r}")
        datasets[name] = (g, _pick_vertices(g, policy, count, master_seed))

    rows_per_vertex = len(methods) * len(tolerances) * reps
    offsets: dict[str, int] = {}
    total = 0
    for name in sorted(datasets):
        g, vertices = datasets[name]
        offsets[name] = total
        picked = len(vertices) if vertices is not None else min(count, g.vertex_count)
        total += picked * rows_per_vertex

    graphs = {name: g for name, (g, _) in datasets.items()}
    rows: list[dict[str, Any] | None] = [None] * total
    exacts: dict[tuple, float | None] = {}
    fractions: dict[tuple, dict[str, float]] = {}
    with _Jobs(graphs, workers) as jobs:
        scoring = {}
        for name, (g, vertices) in datasets.items():
            wanted = vertices is None or (want_exact and g.vertex_count <= COVERAGE_GUARD)
            scoring[jobs.submit(_scores_job, name) if wanted else _finished(None)] = name
        row_jobs: dict[Future, int] = {}
        oracle_jobs: dict[Future, str] = {}
        for done in as_completed(scoring):
            name = scoring[done]
            scores = done.result()
            g, vertices = datasets[name]
            if vertices is None:
                vertices = _ranked(g, scores, count)
            if want_exact:
                oracle_jobs[jobs.submit(_oracle_job, name, vertices, methods,
                                        kpath.k, kpath.weight)] = name
            index = offsets[name]
            for vertex in vertices:
                for method in methods:
                    for tolerance in tolerances:
                        for rep in range(reps):
                            cfg = replace(cell_configs[method, tolerance],
                                          seed=_task_seed(master_seed, index))
                            job = jobs.submit(_row_job, name, name, vertex, method, rep,
                                              cfg, want_time)
                            row_jobs[job] = index
                            index += 1
            for vertex in vertices:
                label = g.label_of(vertex)
                reach = compute_reachability(g, vertex)
                fractions[name, label] = {
                    "pair_fraction": float(reach.pair_fraction),
                    "source_fraction": float(reach.source_fraction),
                }
                if want_exact and scores is not None:
                    exacts[name, label, "betweenness"] = float(scores[vertex])
                    exacts[name, label, "betweenness-baseline"] = float(scores[vertex])
        for done in as_completed([*row_jobs, *oracle_jobs]):
            if done in row_jobs:
                rows[row_jobs[done]] = done.result()
            else:
                name = oracle_jobs[done]
                exacts.update(((name, *key), value) for key, value in done.result().items())

    for row in rows:
        row.update(fractions[(row["dataset"], row["vertex"])])
        exact = exacts.get((row["dataset"], row["vertex"], row["method"]))
        row["exact"] = exact
        if exact is not None and exact > 0:
            row["error_pct"] = abs(row["estimate"] - exact) / exact * 100.0
        else:
            row["error_pct"] = None
    rows.sort(key=lambda r: (r["dataset"], r["vertex"], r["method"],
                             r["tolerance"], r["rep"]))

    cells = []
    by_cell: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["dataset"], row["vertex"], row["method"], row["tolerance"])
        by_cell.setdefault(key, []).append(row)
    for key in sorted(by_cell):
        group = by_cell[key]
        errors = [r["error_pct"] for r in group if r["error_pct"] is not None]
        cell = {
            "dataset": key[0],
            "vertex": key[1],
            "method": key[2],
            "tolerance": key[3],
            "reps": len(group),
            "exact": group[0]["exact"],
            "avg_estimate": sum(r["estimate"] for r in group) / len(group),
            "avg_samples": sum(r["samples"] for r in group) / len(group),
            "max_samples": max(r["samples"] for r in group),
            "avg_error_pct": sum(errors) / len(errors) if errors else None,
            "max_error_pct": max(errors) if errors else None,
        }
        if want_time:
            times = [r["wall_time"] for r in group]
            cell["avg_time"] = sum(times) / len(times)
            cell["max_time"] = max(times)
        cells.append(cell)

    return {
        "master_seed": master_seed,
        "failure_prob": failure_prob,
        "graphs": {name: {"hash": _graph_hash(g), "vertices": g.vertex_count,
                          "edges": g.edge_count}
                   for name, g in graphs.items()},
        "rows": rows,
        "cells": cells,
    }


def format_table(report: dict[str, Any]) -> str:
    """Aligned text table over the aggregate cells."""
    columns = ["dataset", "vertex", "method", "tolerance", "exact",
               "avg_estimate", "avg_error_pct", "max_error_pct",
               "avg_samples", "avg_time", "max_time"]
    present = [c for c in columns if any(c in cell and cell[c] is not None
                                         for cell in report["cells"])]

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    table = [[fmt(cell.get(c)) for c in present] for cell in report["cells"]]
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(present)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(present, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def report_to_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
