"""Fast checks of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pathcentral.adaptive import EstimatorConfig  # noqa: E402
from pathcentral.betweenness import estimate_betweenness, estimate_coverage  # noqa: E402
from pathcentral.graph import loads_edge_list  # noqa: E402

SMALL_HUB = dict(workloads.HUB_MIX, n=120, roots=2, tolerance=0.2, kpath_tolerance=0.2)
SMALL_GRID = dict(workloads.GRID_EXACT, hub_n=40, layers=4, width=5, count=1, reps=1,
                  tolerances=[0.2], loads_per_call=1)


def _digest(edges) -> str:
    return hashlib.sha256(edges.astype("<i8").tobytes()).hexdigest()[:16]


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generators_are_stable_for_a_fixed_seed():
    assert _digest(inputs.hub_edges(200, 3, 3, seed=7)) == "b5238d1abf187bf4"
    assert _digest(inputs.uniform_edges(1000, 5000, seed=7)) == "9fd06a08e2967223"
    assert _digest(inputs.layered_edges(5, 6, 2, seed=7)) == "1ac7cea9599c96ec"


def test_generators_have_the_promised_shape(tmp_path):
    hub = inputs.hub_edges(300, 3, 2, seed=1)
    assert len(hub) == 4 * 3 + (300 - 4) * 5
    layered = inputs.layered_edges(4, 6, 2, seed=1)
    assert len(layered) == 3 * 6 * 2
    assert all(v // 6 == u // 6 + 1 for u, v in layered.tolist())
    uniform = inputs.uniform_edges(50, 400, seed=1)
    assert (uniform[:, 0] != uniform[:, 1]).all() and uniform.max() < 50
    path = tmp_path / "g.txt"
    inputs.write_edge_list(path, hub)
    g = loads_edge_list(path.read_text())
    assert g.vertex_count == 300 and g.edge_count == len(hub)


@pytest.fixture(scope="module")
def answers():
    g = loads_edge_list("a b\nb c\nc d\na c\nb d\nd a\n")
    cfg = EstimatorConfig(tolerance=0.1, failure_prob=0.1, seed=3)
    root = g.id_of("b")
    return estimate_betweenness(g, root, cfg), estimate_coverage(g, root, cfg)


def test_sound_estimates_pass(answers):
    bc, cov = answers
    assert checks.check_estimate(bc) == [] and checks.check_estimate(cov) == []
    assert checks.check_order(bc, cov, 0.1) == []
    assert checks.check_same(bc, dataclasses.replace(bc, wall_time=bc.wall_time + 1.0)) == []


@pytest.mark.parametrize("change", [
    {"value": -0.01},
    {"value": 2.0},
    {"lower_conf": 0.9, "upper_conf": 1.0},
    {"upper_conf": -0.5},
    {"samples": 10**9},
])
def test_corrupted_estimate_is_caught(answers, change):
    assert checks.check_estimate(dataclasses.replace(answers[0], **change))


def test_corrupted_rerun_and_order_are_caught(answers):
    bc, cov = answers
    assert checks.check_same(bc, dataclasses.replace(bc, hits=bc.hits + 1))
    assert checks.check_same(bc, dataclasses.replace(bc, stop_reason="budget-reached"))
    assert checks.check_order(dataclasses.replace(bc, value=cov.value + 0.25), cov, 0.05)
    assert checks.check_order(dataclasses.replace(bc, value=cov.value + 0.25), cov, 0.1) == []


def test_corrupted_grid_row_is_caught():
    row = {"method": "coverage", "estimate": 0.1, "pair_fraction": 0.5, "source_fraction": 0.5,
           "samples": 10, "sample_budget": 20, "exact": 0.12, "tolerance": 0.05,
           "stop_reason": "bounds-satisfied"}
    assert checks.check_row(row) == []
    near = dict(row, exact=0.16)  # off by more than λ, within 2λ: counted, not failed
    assert checks.check_row(near) == [] and checks.misses_tolerance(near)
    assert checks.check_row(dict(row, exact=0.25))
    assert checks.check_row(dict(row, samples=21))
    assert checks.check_row(dict(row, estimate=0.6))
    assert checks.check_same_row(row, dict(row)) == []
    assert checks.check_same_row(row, dict(row, samples=11))


def test_misses_beyond_failure_probability_are_caught():
    # Nine rows at δ = 0.1: P(more than 5 miss) is about 6e-5, below ALPHA.
    assert checks.allowed_misses(9, 0.1) == 5
    assert checks.check_misses("rows", 5, 9, 0.1) == []
    assert checks.check_misses("rows", 6, 9, 0.1)
    assert checks.allowed_misses(40, 0.0) == 0
    assert checks.allowed_misses(3, 0.5) == 3


def test_end_to_end_names_match_benchmark_json(tmp_path):
    out = workloads.grid_exact(1, 0.0, str(tmp_path), spec=SMALL_GRID, workers=1)
    assert out.failed == 0 and out.attempted > 0
    metrics = run.end_to_end_metrics(out)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_names_match_benchmark_json(tmp_path):
    with spans.Tracer() as tracer:
        out = workloads.hub_mix(1, 0.0, str(tmp_path), spec=SMALL_HUB)
    assert out.failed == 0
    metrics = spans.summarize(tracer, out.latencies)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert metrics["shortest_paths.build_shortest_path_dag.calls"][0] > 0
    assert metrics["kpath.sample_walk.calls"][0] > 0
