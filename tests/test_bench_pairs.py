"""tools/bench_pairs.py on a stubbed runner: the BENCH layout and its arithmetic."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
BENCHMARK = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runner(calls):
    """A runner whose change side is 20% faster in batch_s, in every pair."""

    def run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, seconds, trace))
        if trace:
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"kpath.sample_walk.calls": {"value": 7.0, "unit": "count"}}}
        scale = 0.8 if checkout == "change-dir" else 1.0
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "setup_s": {"value": 0.2 + seed % 3 * 0.01, "unit": "s"},
            "peak_rss_mb": {"value": 100.0, "unit": "MB"},
            "batch_s": {"value": scale * (1.0 + seed % 4 * 0.05), "unit": "s"},
        }}

    return run


def test_the_bench_file_has_the_layout_of_earlier_ones(bench_pairs):
    calls = []
    result = bench_pairs.collect(stub_runner(calls), {"parent": "parent-dir",
                                                      "change": "change-dir"},
                                 BENCHMARK, pairs=4, seconds=55, first_seed=100,
                                 trace_seed=9, claim=("hub-mix", "batch_s"))
    assert set(result) == {"command", "host_cpu_count", "seeds", "protocol", "workloads",
                           "claim", "trace"}
    assert result["seeds"] == {"hub-mix": [100, 101, 102, 103],
                               "grid-exact": [104, 105, 106, 107]}
    # the sides alternate, parent first at the first seed
    hub = result["workloads"]["hub-mix"]
    assert [(r["seed"], r["side"], r["first"]) for r in hub["runs"][:4]] == [
        (100, "parent", True), (100, "change", False),
        (101, "change", True), (101, "parent", False)]
    assert hub["all_correct"]
    assert set(hub["summary"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    batch = hub["summary"]["batch_s"]
    assert set(batch) == {"parent", "change", "change_lower_in_pairs", "pairs",
                          "median_change_frac", "parent_iqr_frac"}
    assert batch["change_lower_in_pairs"] == batch["pairs"] == 4
    assert batch["median_change_frac"] == pytest.approx(-0.2)
    assert set(batch["parent"]) == {"median", "q1", "q3"}
    assert result["claim"] == {
        "workload": "hub-mix", "metric": "batch_s", "better": "lower",
        "parent_median": batch["parent"]["median"], "change_median": batch["change"]["median"],
        "median_change_frac": batch["median_change_frac"], "change_lower_in_pairs": 4,
        "pairs": 4,
        "median_difference": pytest.approx(0.2 * batch["parent"]["median"]),
        "parent_iqr": batch["parent"]["q3"] - batch["parent"]["q1"]}
    assert [t["workload"] for t in result["trace"]] == ["hub-mix", "grid-exact"]
    assert result["trace"][0]["metrics"] == {
        "kpath.sample_walk.calls": {"parent": 7.0, "change": 7.0}}
    assert result["trace"][0]["same_metric_names"]
    # 2 workloads x 4 pairs x 2 sides, then one traced run per side and workload
    assert len(calls) == 20
    assert all(seconds == 0 for *_, seconds, trace in calls if trace)


def test_quartiles_are_inclusive(bench_pairs):
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
