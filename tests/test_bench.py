import pytest

import pathcentral.bench
from pathcentral.bench import (
    format_table,
    report_to_json,
    run_benchmark,
    select_top_vertices,
)
from pathcentral.errors import GuardError
from pathcentral.graph import DirectedGraph, dump_edge_list
from pathcentral.generate import random_digraph


def tiny_config(**overrides):
    config = {
        "seed": 9,
        "reps": 2,
        "workers": 1,
        "timing": False,
        "exact": True,
        "datasets": [
            {"name": "tiny-random", "generator": "random",
             "params": {"n": 20, "edge_prob": 0.15, "seed": 3}},
        ],
        "vertices": {"policy": "top-betweenness", "count": 2},
        "methods": ["betweenness", "betweenness-baseline", "coverage", "kpath"],
        "grid": {"tolerances": [0.1], "failure_prob": 0.1},
        "kpath": {"k": 3, "weight": "original"},
    }
    config.update(overrides)
    return config


class TestSelectTopVertices:
    def test_chain_middle_wins(self, three_path):
        assert select_top_vertices(three_path, 1) == [three_path.id_of("b")]

    def test_ties_break_by_id(self, three_cycle):
        assert select_top_vertices(three_cycle, 3) == [0, 1, 2]

    def test_count_clamped_to_vertex_count(self, three_path):
        assert len(select_top_vertices(three_path, 10)) == 3

    def test_nonpositive_count_gives_nothing(self, three_path):
        assert select_top_vertices(three_path, 0) == []
        assert select_top_vertices(three_path, -2) == []

    def test_guard_on_huge_graphs(self):
        g = DirectedGraph.from_edges([], vertex_count=2001)
        with pytest.raises(GuardError):
            select_top_vertices(g, 1)


class TestRunBenchmark:
    def test_grid_shape_and_row_fields(self):
        report = run_benchmark(tiny_config())
        assert len(report["rows"]) == 2 * 4 * 1 * 2
        assert len(report["cells"]) == 2 * 4
        for row in report["rows"]:
            assert row["dataset"] == "tiny-random"
            assert row["stop_reason"] in (
                "bounds-satisfied", "budget-reached", "degenerate-zero"
            )
            assert 0 <= row["samples"] <= row["sample_budget"]
            assert isinstance(row["seed"], int)
            assert "wall_time" not in row
        assert report["graphs"]["tiny-random"]["vertices"] == 20

    def test_rows_sorted_and_cells_aggregate(self):
        report = run_benchmark(tiny_config())
        keys = [(r["dataset"], r["vertex"], r["method"], r["tolerance"], r["rep"])
                for r in report["rows"]]
        assert keys == sorted(keys)
        for cell in report["cells"]:
            assert cell["reps"] == 2
            assert cell["avg_samples"] <= cell["max_samples"]

    def test_oracle_columns(self):
        report = run_benchmark(tiny_config())
        for row in report["rows"]:
            if row["method"] == "kpath":
                # the exact oracle is capped well below 20 vertices
                assert row["exact"] is None
                assert row["error_pct"] is None
            elif row["method"] == "betweenness":
                assert row["exact"] is not None

    def test_exact_pass_can_be_disabled(self):
        config = tiny_config(
            exact=False,
            methods=["betweenness"],
            vertices={"policy": "labels", "labels": ["0", "4"]},
        )
        report = run_benchmark(config)
        assert all(r["exact"] is None for r in report["rows"])
        assert all(c["avg_error_pct"] is None for c in report["cells"])

    def test_reports_are_byte_identical_without_timing(self):
        one = report_to_json(run_benchmark(tiny_config()))
        two = report_to_json(run_benchmark(tiny_config()))
        assert one == two

    def test_timing_columns_opt_in(self):
        config = tiny_config(timing=True, methods=["coverage"], reps=1)
        report = run_benchmark(config)
        assert all(r["wall_time"] >= 0 for r in report["rows"])
        assert all("avg_time" in c and "max_time" in c for c in report["cells"])

    def test_worker_pool_matches_serial(self):
        config = tiny_config(methods=["betweenness"], reps=2,
                             vertices={"policy": "top-betweenness", "count": 1})
        serial = report_to_json(run_benchmark(config, workers=1))
        pooled = report_to_json(run_benchmark(config, workers=2))
        assert serial == pooled

    def test_reachability_runs_once_per_vertex(self, monkeypatch):
        calls = []
        real = pathcentral.bench.compute_reachability

        def counting(g, vertex, *args, **kwargs):
            calls.append(vertex)
            return real(g, vertex, *args, **kwargs)

        monkeypatch.setattr(pathcentral.bench, "compute_reachability", counting)
        report = run_benchmark(tiny_config(workers=1))
        vertices = {r["vertex"] for r in report["rows"]}
        assert len(report["rows"]) > len(vertices)
        assert len(calls) <= len(vertices)
        assert len(calls) == len(set(calls))

    def test_label_policy_picks_named_vertices(self):
        config = tiny_config(methods=["coverage"],
                             vertices={"policy": "labels", "labels": ["3", "7"]})
        report = run_benchmark(config)
        assert {r["vertex"] for r in report["rows"]} == {"3", "7"}

    def test_random_policy_is_seeded(self):
        config = tiny_config(methods=["coverage"],
                             vertices={"policy": "random", "count": 3})
        one = run_benchmark(config)
        two = run_benchmark(config)
        assert [r["vertex"] for r in one["rows"]] == [r["vertex"] for r in two["rows"]]

    def test_file_datasets_load(self, tmp_path, shortcut):
        path = tmp_path / "g.edges"
        path.write_text(dump_edge_list(shortcut), encoding="utf-8")
        config = tiny_config(
            datasets=[{"name": "from-file", "path": str(path)}],
            methods=["betweenness"],
            vertices={"policy": "labels", "labels": ["b"]},
        )
        report = run_benchmark(config)
        assert report["graphs"]["from-file"]["vertices"] == shortcut.vertex_count
        assert all(r["vertex"] == "b" for r in report["rows"])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_benchmark(tiny_config(methods=["pagerank"]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            run_benchmark(tiny_config(vertices={"policy": "alphabetical"}))

    def test_dataset_without_source_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            run_benchmark(tiny_config(datasets=[{"name": "nowhere"}]))

    def test_bad_generator_params_rejected(self):
        bad = [{"name": "d", "generator": "random", "params": {"n": 25, "p": 0.1}}]
        with pytest.raises(ValueError, match="edge_prob"):
            run_benchmark(tiny_config(datasets=bad))


class TestFormatting:
    def test_table_lines_up_with_cells(self):
        report = run_benchmark(tiny_config())
        table = format_table(report)
        lines = table.splitlines()
        assert len(lines) == len(report["cells"]) + 2
        assert lines[0].startswith("dataset")
        assert "avg_time" not in lines[0]
        assert any("-" in line for line in lines[2:])  # kpath exact is blank

    def test_json_round_trips(self):
        import json

        report = run_benchmark(tiny_config(methods=["betweenness"], reps=1))
        again = json.loads(report_to_json(report))
        assert again["master_seed"] == report["master_seed"]
        assert len(again["rows"]) == len(report["rows"])


def test_error_percentages_are_sane():
    # at the default tolerances the estimates land close enough to the
    # oracle that the reported relative errors stay small
    g = random_digraph(20, 0.15, seed=3)
    report = run_benchmark(tiny_config(methods=["betweenness"], reps=3))
    for cell in report["cells"]:
        if cell["avg_error_pct"] is not None:
            assert cell["avg_error_pct"] < 100.0
    assert report["graphs"]["tiny-random"]["edges"] == g.edge_count
