"""Seeded sweep: every ``Estimate`` field but ``wall_time``, digested per group.

The sweep runs the three estimators on a 2,000-vertex preferential-attachment
graph from the benchmark's own generator, over several roots and seeds,
restricted and baseline, adaptive and fixed. Fixed coverage runs are longer
than one block of the sampling loop. The digests were recorded before the
reachability context went flat and coverage pairs went into blocks; a change
that moves any seeded value, count, budget, stop or confidence end moves
them.

The ``kpath-lanes-*`` groups are k-path runs long enough for the estimator to
draw them through its lane kernel: 20,000 fixed samples, or adaptive runs
whose budget is above 18,000, at k = 5 and k = 1, under both weights, on two
roots of the hub graph and on a hub of ``_outskirts`` (the same graph with
vertices that leave the root's domain). Their digests were recorded with the
scalar draw, before the lane kernel existed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import os
from itertools import product

import pytest

from pathcentral.adaptive import EstimatorConfig
from pathcentral.betweenness import estimate_betweenness, estimate_coverage
from pathcentral.graph import DirectedGraph
from pathcentral.kpath import KPathConfig, estimate_kpath_centrality

_INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "inputs.py")


def _hub_graph() -> DirectedGraph:
    spec = importlib.util.spec_from_file_location("_sweep_inputs", _INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return DirectedGraph.from_edges(inputs.hub_edges(2000, 3, 3, seed=21).tolist(),
                                    vertex_count=2000)


def _outskirts(g: DirectedGraph) -> DirectedGraph:
    """``g`` plus 100 sources and 100 sinks: source 2000 + i has edges to
    three vertices of ``g`` and to sink 2100 + i, its only in-neighbour. A
    sink is neither upstream nor downstream of a vertex of ``g``, so a walk
    from a source has a candidate outside the domain."""
    n = g.vertex_count
    extra = [(n + i, v) for i in range(100) for v in (i, 7 * i + 3, 11 * i + 5)]
    extra += [(n + i, n + 100 + i) for i in range(100)]
    return DirectedGraph.from_edges(list(g.edges()) + extra, vertex_count=n + 200)


@pytest.fixture(scope="module")
def hub():
    g = _hub_graph()
    by_degree = sorted(g.vertices(), key=lambda v: (-g.in_degree(v) * g.out_degree(v), v))
    # hubs, middling vertices and the vertex of least degree product
    return g, tuple(by_degree[i] for i in (0, 1, 10, 200, 1000, -1))


def _fields(est) -> tuple:
    return tuple(getattr(est, f.name) for f in dataclasses.fields(est) if f.name != "wall_time")


def _lane_runs(g, roots, length):
    outskirts = _outskirts(g)
    for graph, root in ((g, roots[0]), (g, roots[3]), (outskirts, roots[0])):
        for k in (5, 1):
            for weight, seed in product(("original", "restricted"), (17, 90)):
                yield estimate_kpath_centrality(graph, root, KPathConfig(
                    k=k, tolerance=0.01, failure_prob=0.1, seed=seed + k, weight=weight,
                    fixed_samples=20000 if length == "fixed" else None))


def _runs(g, roots, group):
    measure, mode, length = group.split("-")
    if mode == "lanes":
        yield from _lane_runs(g, roots, length)
        return
    # the loose tolerance's small budget ends some adaptive runs at the budget
    for root in roots:
        for seed, tolerance in ((3, 0.05), (8, 0.05), (13, 0.2)):
            if measure == "kpath":
                for k, weight in ((4, "original"), (2, "restricted")):
                    yield estimate_kpath_centrality(g, root, KPathConfig(
                        k=k, tolerance=tolerance / 2, failure_prob=0.1, seed=seed,
                        weight=weight, fixed_samples=1500 if length == "fixed" else None))
                continue
            estimate = estimate_betweenness if measure == "betweenness" else estimate_coverage
            fixed = {"betweenness": 600, "coverage": 5000}[measure]
            yield estimate(g, root, EstimatorConfig(
                tolerance=tolerance, failure_prob=0.1, seed=seed, mode=mode,
                fixed_samples=fixed if length == "fixed" else None))


# sha256 over repr of each run's fields, in run order
SWEEP_DIGESTS = {
    "betweenness-restricted-adaptive":
        "866db5d6d2f86707396c78833c05b120bec5cbd258c3aa90b33804adb951a168",
    "betweenness-restricted-fixed":
        "88bfc146822e55c63f6b10341f39c3038462d0b0580e3c7c72c59b8992aff8ea",
    "betweenness-baseline-adaptive":
        "d0b00e787601c65bfd1b1418534933459476a9265c87be5dfcbf19bc1fdf3920",
    "betweenness-baseline-fixed":
        "5dab06fd23f665f950dc3c4bf49466680fbbd4ebd3d63b5fba6495d4191fa419",
    "coverage-restricted-adaptive":
        "effb9a46da4cdfd673c0ed8748f1edb2f19fad99b0cf8e9157c31fb833138af7",
    "coverage-restricted-fixed":
        "57bc9c5a1c1c9e25db89b072a32cb840b8c1cc7cba7f3eee954359058ce59241",
    "coverage-baseline-adaptive":
        "adf00758db6b78321ccd066941f7643f9f1678387dbfc0fd8bdfc3944eb7e5a9",
    "coverage-baseline-fixed":
        "5ca5df1601f21aa72d2c8444d16896cf3b28cc5fae71927af020166e5d039cd1",
    "kpath-walk-adaptive":
        "3aa5f83dcf36da8c768dbe772025c4426caca3bb8528a1a42d60f50fefdf0276",
    "kpath-walk-fixed":
        "7288f99047b3f9eb841524bbfa19f86abe23db105b29e6c140de9dbaf2b59ef6",
    "kpath-lanes-adaptive":
        "fe4966eec2fdd8790472a2970e4aa333d9b5e403948ee0fb47bf456d3db2b198",
    "kpath-lanes-fixed":
        "6181e4b815636f849b99a45b797eefb3bf37b5bdc120c45c11eccb7967f36614",
}


@pytest.mark.parametrize("group", sorted(SWEEP_DIGESTS))
def test_seeded_sweep_is_pinned(hub, group):
    g, roots = hub
    text = repr([_fields(est) for est in _runs(g, roots, group)])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEEP_DIGESTS[group]
