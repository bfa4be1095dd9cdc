"""Span tracing of pathcentral's layers from outside the package.

A traced run replaces each public function with a timing wrapper at the
module where callers look it up (``pathcentral.betweenness`` imported
``build_shortest_path_dag`` by name, so the wrapper goes on
``pathcentral.betweenness.build_shortest_path_dag``). Spans are appended to
flat arrays in start order, with the index of the span that was open when
they started as their parent, so a layer's self time is its duration minus
its direct children's. Nothing is aggregated while the run is timed.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

__all__ = ["Tracer", "SITES", "QUERY_SPANS"]

# (module where the name is looked up, attribute, span name). The span name
# is the layer that defines the function, so one function looked up in
# several modules is one layer.
SITES = (
    ("pathcentral.graph", "load_edge_list", "graph.load_edge_list"),
    ("pathcentral.bench", "load_edge_list", "graph.load_edge_list"),
    ("pathcentral.reachability", "bfs_distances", "graph.bfs_distances"),
    ("pathcentral.betweenness", "compute_reachability", "reachability.compute_reachability"),
    ("pathcentral.kpath", "compute_reachability", "reachability.compute_reachability"),
    ("pathcentral.bench", "compute_reachability", "reachability.compute_reachability"),
    ("pathcentral.betweenness", "build_shortest_path_dag", "shortest_paths.build_shortest_path_dag"),
    ("pathcentral.betweenness", "sample_uniform_path", "shortest_paths.sample_uniform_path"),
    ("pathcentral.shortest_paths", "shortest_path_length", "shortest_paths.shortest_path_length"),
    ("pathcentral.betweenness", "stopping_terms", "adaptive.stopping_terms"),
    ("pathcentral.kpath", "stopping_terms", "adaptive.stopping_terms"),
    ("pathcentral.kpath", "sample_walk", "kpath.sample_walk"),
    ("pathcentral.betweenness", "estimate_betweenness", "betweenness.estimate_betweenness"),
    ("pathcentral.betweenness", "estimate_coverage", "betweenness.estimate_coverage"),
    ("pathcentral.kpath", "estimate_kpath_centrality", "kpath.estimate_kpath_centrality"),
    ("pathcentral.bench", "estimate_betweenness", "betweenness.estimate_betweenness"),
    ("pathcentral.bench", "estimate_coverage", "betweenness.estimate_coverage"),
    ("pathcentral.bench", "estimate_kpath_centrality", "kpath.estimate_kpath_centrality"),
    ("pathcentral.bench", "brandes_betweenness_all", "exact.brandes_betweenness_all"),
    ("pathcentral.bench", "exact_coverage", "exact.exact_coverage"),
    ("pathcentral.bench", "exact_kpath", "exact.exact_kpath"),
    ("pathcentral.bench", "run_benchmark", "bench.run_benchmark"),
)

# Estimator span -> measure it answers.
QUERY_SPANS = {
    "betweenness.estimate_betweenness": "betweenness",
    "betweenness.estimate_coverage": "coverage",
    "kpath.estimate_kpath_centrality": "kpath",
}


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # Outputs the metrics need that spans cannot carry.
        self.estimates: list[tuple[int, str, object]] = []  # (span, measure, Estimate)
        self.walks_completed = 0
        self.walks = 0
        self.bench_rows = 0

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, span: str):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        measure = QUERY_SPANS.get(span)
        is_walk = span == "kpath.sample_walk"
        is_bench = span == "bench.run_benchmark"
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if measure is not None:
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                kind = ("betweenness-baseline"
                        if getattr(cfg, "mode", "restricted") == "baseline" else measure)
                self.estimates.append((i, kind, result))
            elif is_walk:
                self.walks += 1
                self.walks_completed += result.completed
            elif is_bench:
                self.bench_rows += len(result["rows"])
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays: name id, parent index, start, end."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


MEASURES = tuple(QUERY_SPANS.values())
_KERNELS = {
    "shortest_paths.build_shortest_path_dag": "betweenness",
    "shortest_paths.shortest_path_length": "coverage",
    "kpath.sample_walk": "kpath",
}


def _nearest(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Index of the nearest span at or above each span that ``mask`` selects, else -1."""
    idx = np.arange(len(parent))
    found = np.where(mask, idx, -1)
    up = parent.copy()
    todo = (found < 0) & (up >= 0)
    while todo.any():
        hit = todo.copy()
        hit[todo] = mask[up[todo]]
        found[hit] = up[hit]
        up[todo] = parent[up[todo]]
        todo = (found < 0) & (up >= 0)
    return found


def summarize(tr: Tracer, latencies: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    ``latencies`` are the per-measure query times the workload took itself
    while traced; their medians, set against an untraced run, give the
    tracing overhead.
    """
    a = tr.arrays()
    ids = {name: i for i, name in enumerate(tr.names)}

    def span(name):
        return a["name_id"] == ids.get(name, -1)

    parent = a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child

    kind = np.full(len(dur), "", dtype="<U32")
    for i, measure, _ in tr.estimates:
        kind[i] = measure
    query = _nearest(parent, kind != "")
    query_kind = np.where(query >= 0, kind[np.maximum(query, 0)], "")
    in_bench = _nearest(parent, span("bench.run_benchmark")) >= 0

    def total(name, where=True):
        return float(dur[span(name) & where].sum())

    def calls(name):
        return int(span(name).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    query_time = {m: float(dur[kind == m].sum()) for m in MEASURES}
    all_queries = float(dur[kind != ""].sum())
    bench_time = total("bench.run_benchmark")

    out: dict[str, tuple[float, str]] = {}
    for name in ("graph.load_edge_list", "graph.bfs_distances",
                 "reachability.compute_reachability", "shortest_paths.build_shortest_path_dag",
                 "shortest_paths.sample_uniform_path", "shortest_paths.shortest_path_length",
                 "adaptive.stopping_terms", "kpath.sample_walk"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (total(name), "s")
    for name, measure in _KERNELS.items():
        out[f"{name}.us_per_call"] = (ratio(total(name), calls(name)) * 1e6, "us")
        out[f"{name}.share"] = (
            ratio(total(name, query_kind == measure), query_time[measure]), "frac")
    reach = "reachability.compute_reachability"
    out[f"{reach}.share"] = (ratio(total(reach, query >= 0), all_queries), "frac")
    for m in MEASURES:
        out[f"{reach}.share.{m}"] = (ratio(total(reach, query_kind == m), query_time[m]), "frac")

    ests = [(m, e) for _, m, e in tr.estimates]
    for m in MEASURES:
        mine = [e for k, e in ests if k == m]
        samples = sum(e.samples for e in mine)
        out[f"adaptive.samples.{m}"] = (ratio(samples, len(mine)), "count")
        out[f"adaptive.budget_frac.{m}"] = (ratio(samples, sum(e.sample_budget for e in mine)), "frac")
        out[f"adaptive.hit_frac.{m}"] = (ratio(sum(e.hits for e in mine), samples), "frac")
    out["adaptive.bounds_satisfied_frac"] = (
        ratio(sum(e.stop_reason == "bounds-satisfied" for _, e in ests), len(ests)), "frac")

    out["kpath.walk_completed_frac"] = (ratio(tr.walks_completed, tr.walks), "frac")
    out["kpath.self_s"] = (float(own[span("kpath.estimate_kpath_centrality")].sum()), "s")
    out["betweenness.self_s"] = (float(own[span("betweenness.estimate_betweenness")
                                           | span("betweenness.estimate_coverage")].sum()), "s")
    for name in ("exact.brandes_betweenness_all", "exact.exact_coverage"):
        out[f"{name}.share"] = (ratio(total(name), bench_time), "frac")
    out["bench.run_benchmark.self_share"] = (
        ratio(float(own[span("bench.run_benchmark")].sum()), bench_time), "frac")
    out["bench.reachability_calls_per_row"] = (
        ratio(int((span(reach) & in_bench).sum()), tr.bench_rows), "count")
    for m in MEASURES:
        out[f"trace.query_s.{m}.p50"] = (float(np.median(latencies[m])) if latencies[m] else 0.0, "s")
    return out
