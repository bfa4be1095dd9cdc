"""Benchmark harness: estimator error/time/sample tables over a config grid.

A config describes datasets (generated or loaded), a vertex selection
policy, estimation methods, and a tolerance grid; the harness runs every
cell for a number of repetitions with seeds derived from one master seed,
and emits both per-repetition rows and per-cell aggregates, as JSON and as
an aligned text table.

Reports are deterministic: rows are sorted, repetition seeds depend only on
the master seed and the task's position in the sorted task list (first
state word of the master seed sequence spawned at the task index), and
timing fields can be switched off entirely so that two runs of the same
config produce byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from .adaptive import EstimatorConfig
from .betweenness import estimate_betweenness, estimate_coverage
from .errors import GuardError
from .exact import (
    COVERAGE_GUARD,
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


def select_top_vertices(g: DirectedGraph, count: int, guard: int = COVERAGE_GUARD) -> list[int]:
    """Vertex ids with the highest betweenness, ties broken by ascending id."""
    if g.vertex_count > guard:
        raise GuardError(
            f"top-vertex selection runs the exact oracle, capped at {guard} vertices"
        )
    scores = brandes_betweenness_all(g)
    ranked = sorted(g.vertices(), key=lambda v: (-scores[v], v))
    return ranked[: max(0, count)]


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


def _pick_vertices(g: DirectedGraph, policy: dict[str, Any], master_seed: int) -> list[int]:
    kind = policy.get("policy", "top-betweenness")
    if kind == "top-betweenness":
        return select_top_vertices(g, int(policy.get("count", 5)))
    if kind == "labels":
        return [g.id_of(str(lab)) for lab in policy["labels"]]
    if kind == "random":
        rng = np.random.default_rng(master_seed)
        count = min(int(policy.get("count", 5)), g.vertex_count)
        return sorted(int(v) for v in rng.choice(g.vertex_count, size=count, replace=False))
    raise ValueError(f"unknown vertex policy {kind!r}")


def _task_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _exact_value(method: str, g: DirectedGraph, vertex: int,
                 scores, kpath_spec: dict[str, Any]):
    """Oracle value for the cell, or None when out of the oracle's reach."""
    try:
        if method in ("betweenness", "betweenness-baseline"):
            return float(scores[vertex]) if scores is not None else None
        if method == "coverage":
            return float(exact_coverage(g, vertex))
        if method == "kpath":
            return float(exact_kpath(g, vertex, int(kpath_spec.get("k", 5)),
                                     weight=kpath_spec.get("weight", "original")))
    except GuardError:
        return None
    return None


def _run_task(payload: tuple) -> dict[str, Any]:
    (g, dataset, vertex, method, tolerance, failure_prob,
     rep, seed, kpath_spec, want_time) = payload
    if method == "kpath":
        cfg = KPathConfig(
            k=int(kpath_spec.get("k", 5)),
            tolerance=tolerance,
            failure_prob=failure_prob,
            seed=seed,
            weight=kpath_spec.get("weight", "original"),
            stopping=kpath_spec.get("stopping", "adaptive"),
            count_sink_roots=bool(kpath_spec.get("count_sink_roots", True)),
        )
        est = estimate_kpath_centrality(g, vertex, cfg)
    else:
        cfg = EstimatorConfig(
            tolerance=tolerance,
            failure_prob=failure_prob,
            seed=seed,
            mode="baseline" if method == "betweenness-baseline" else "restricted",
        )
        est = (estimate_coverage if method == "coverage" else estimate_betweenness)(
            g, vertex, cfg
        )
    row = {
        "dataset": dataset,
        "vertex": g.label_of(vertex),
        "method": method,
        "tolerance": tolerance,
        "failure_prob": failure_prob,
        "rep": rep,
        "seed": seed,
        "estimate": est.value,
        "samples": est.samples,
        "sample_budget": est.sample_budget,
        "stop_reason": est.stop_reason,
    }
    if want_time:
        row["wall_time"] = est.wall_time
    return row


def run_benchmark(config: dict[str, Any], workers: int | None = None) -> dict[str, Any]:
    """Run the whole config grid and return the report dict.

    The report holds one row per (dataset, vertex, method, tolerance, rep)
    and one aggregate cell per (dataset, vertex, method, tolerance) with
    average and maximum error and time over the repetitions. Error columns
    appear when the matching exact oracle is feasible for the dataset.
    """
    master_seed = int(config.get("seed", DEFAULT_CONFIG["seed"]))
    reps = int(config.get("reps", 3))
    want_time = bool(config.get("timing", True))
    want_exact = bool(config.get("exact", True))
    methods = list(config.get("methods", ["betweenness"]))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; known: {METHODS}")
    grid = config.get("grid", DEFAULT_CONFIG["grid"])
    tolerances = [float(t) for t in grid.get("tolerances", [0.05])]
    failure_prob = float(grid.get("failure_prob", 0.1))
    kpath_spec = config.get("kpath", DEFAULT_CONFIG["kpath"])
    if workers is None:
        workers = int(config.get("workers", 1))

    policy = config.get("vertices", DEFAULT_CONFIG["vertices"])
    datasets = []
    for spec in config.get("datasets", []):
        g = _load_dataset(spec)
        name = spec.get("name") or spec.get("path", "dataset")
        scores = None
        if want_exact and g.vertex_count <= COVERAGE_GUARD:
            scores = brandes_betweenness_all(g)
        if scores is not None and policy.get("policy", "top-betweenness") == "top-betweenness":
            # reuse the oracle pass instead of running it again inside
            # select_top_vertices; at benchmark sizes it dominates setup time
            ranked = sorted(g.vertices(), key=lambda v: (-scores[v], v))
            vertices = ranked[: max(0, int(policy.get("count", 5)))]
        else:
            vertices = _pick_vertices(g, policy, master_seed)
        datasets.append((name, g, vertices, scores))

    tasks = []
    exacts: dict[tuple, float | None] = {}
    fractions: dict[tuple, dict[str, float]] = {}
    for name, g, vertices, scores in sorted(datasets, key=lambda d: d[0]):
        for vertex in vertices:
            reach = compute_reachability(g, vertex)
            fractions[(name, g.label_of(vertex))] = {
                "pair_fraction": float(reach.pair_fraction),
                "source_fraction": float(reach.source_fraction),
            }
            for method in sorted(methods):
                exacts[(name, g.label_of(vertex), method)] = (
                    _exact_value(method, g, vertex, scores, kpath_spec)
                    if want_exact else None
                )
                for tolerance in sorted(tolerances):
                    for rep in range(reps):
                        tasks.append((g, name, vertex, method, tolerance,
                                      failure_prob, rep, None, kpath_spec, want_time))
    prepared = [
        task[:7] + (_task_seed(master_seed, i),) + task[8:]
        for i, task in enumerate(tasks)
    ]

    if workers > 1 and len(prepared) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_task, prepared, chunksize=1))
    else:
        rows = [_run_task(p) for p in prepared]

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
                   for name, g, _, _ in datasets},
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
