import copy
import hashlib
import json
import multiprocessing
import re
from pathlib import Path

import pytest

import pathcentral.bench
from pathcentral.bench import (
    DEFAULT_CONFIG,
    format_table,
    report_to_json,
    run_benchmark,
    select_top_vertices,
)
from pathcentral.errors import GuardError
from pathcentral.graph import DirectedGraph, dump_edge_list
from pathcentral.generate import random_digraph


SEEDLESS = {"generator": "random", "params": {"n": 20, "edge_prob": 0.2}}

# Configs that used to get past the config checks, each with the key that
# its refusal names.
CONFIG_HOLES = [
    ({"datasets": [{"nam": "tiny", **SEEDLESS}]}, "datasets.nam"),
    ({"datasets": [{"name": "both", "path": "g.edges", **SEEDLESS}]}, "datasets"),
    ({"vertices": {"policy": "labels", "labels": "12"}}, "vertices.labels"),
    ({"vertices": {"policy": "labels"}}, "vertices.labels"),
    ({"datasets": [{"name": 3, **SEEDLESS}, {"name": "a", **SEEDLESS}]}, "datasets.name"),
    ({"methods": ["coverage", "coverage"]}, "methods"),
    ({"grid": {"tolerances": [0.1, 0.1]}}, "grid.tolerances"),
    ({"vertices": {"policy": "labels", "labels": ["3", "3"]}}, "vertices.labels"),
    ({"seed": -3}, "seed"),
    ({"datasets": [{"name": "f", "path": "g.edges", "params": {"n": 5}}]}, "datasets.params"),
]


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
        config = tiny_config(
            methods=["betweenness", "kpath"], reps=2,
            vertices={"policy": "top-betweenness", "count": 1},
            datasets=tiny_config()["datasets"] + [
                {"name": "tiny-layered", "generator": "layered",
                 "params": {"layers": 4, "width": 4, "seed": 2}},
            ],
        )
        serial = run_benchmark(config, workers=1)
        assert {r["dataset"] for r in serial["rows"]} == {"tiny-random", "tiny-layered"}
        pooled = run_benchmark(config, workers=2)
        assert report_to_json(serial) == report_to_json(pooled)

    def test_pool_gets_each_graph_once_per_worker(self, monkeypatch):
        # tasks carry dataset names; the graphs reach the workers through
        # the pool initializer, pickled at most once per worker
        pickled = []
        real = DirectedGraph.__reduce_ex__

        def counting(graph, protocol):
            pickled.append(graph)
            return real(graph, protocol)

        monkeypatch.setattr(DirectedGraph, "__reduce_ex__", counting)
        config = tiny_config(methods=["coverage"], reps=3)
        report = run_benchmark(config, workers=2)
        assert len(report["rows"]) > 2
        assert len(pickled) <= 2

    def test_duplicate_dataset_names_rejected(self):
        twice = tiny_config()["datasets"] * 2
        with pytest.raises(ValueError, match="duplicate dataset"):
            run_benchmark(tiny_config(datasets=twice))

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

    def test_vertex_count_defaults_with_or_without_the_section(self):
        bare = tiny_config(methods=["coverage"], reps=1)
        del bare["vertices"]
        named = tiny_config(methods=["coverage"], reps=1,
                            vertices={"policy": "top-betweenness"})
        picked = [[r["vertex"] for r in run_benchmark(c)["rows"]] for c in (bare, named)]
        assert picked[0] == picked[1]
        assert len(picked[0]) == DEFAULT_CONFIG["vertices"]["count"]

    def test_datasets_default_to_the_default_config(self):
        report = run_benchmark({"reps": 1, "exact": False, "timing": False,
                                "vertices": {"policy": "random", "count": 1}})
        assert set(report["graphs"]) == {"hub-400"}
        assert len(report["rows"]) == 1

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

    def test_seedless_generated_dataset_takes_the_master_seed(self):
        def config():
            return tiny_config(datasets=[{"name": "seedless", **SEEDLESS}], methods=["coverage"])

        one = report_to_json(run_benchmark(config()))
        assert report_to_json(run_benchmark(config())) == one
        seeded = copy.deepcopy(SEEDLESS)
        seeded["params"]["seed"] = config()["seed"]
        again = run_benchmark(config() | {"datasets": [{"name": "seedless", **seeded}]})
        assert report_to_json(again) == one

    @pytest.mark.parametrize("workers", [2.5, True, "2"])
    def test_workers_argument_is_checked(self, workers):
        with pytest.raises(ValueError, match="config 'workers' must be an integer"):
            run_benchmark(tiny_config(), workers=workers)

    def test_caller_config_is_left_unchanged(self):
        # one dict may serve many calls, as in a benchmark loop
        config = tiny_config(datasets=[{"name": "seedless", **SEEDLESS}],
                             vertices={"policy": "labels", "labels": ["3"]},
                             methods=["coverage"], reps=1)
        del config["grid"]
        before = copy.deepcopy(config)
        run_benchmark(config, workers=1)
        assert config == before

    def test_readme_example_passes_the_reader(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Benchmarks\n", 1)[1].split("\n## ", 1)[0]
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        settings = pathcentral.bench._read_config(example, None)
        assert [spec["name"] for spec in settings["datasets"]] == ["hub-2000", "mine"]
        assert settings["grid"]["tolerances"] == [0.05, 0.025]


def pinned_config(vertices):
    # two datasets listed out of name order, the second small enough for
    # the exact k-path oracle, every method and two tolerances
    return {
        "seed": 17,
        "reps": 2,
        "timing": False,
        "exact": True,
        "datasets": [
            {"name": "tiny-random", "generator": "random",
             "params": {"n": 20, "edge_prob": 0.15, "seed": 3}},
            {"name": "small-layered", "generator": "layered",
             "params": {"layers": 3, "width": 4, "seed": 2}},
        ],
        "vertices": vertices,
        "methods": ["betweenness", "betweenness-baseline", "coverage", "kpath"],
        "grid": {"tolerances": [0.2, 0.1], "failure_prob": 0.1},
        "kpath": {"k": 3, "weight": "original"},
    }


# sha256 of report_to_json, recorded before the oracles moved into the
# worker pool and again when betweenness took its path draws onto a second
# stream; a slip in the per-dataset seed offsets changes them
PINNED_DIGESTS = {
    "top-betweenness": (
        {"policy": "top-betweenness", "count": 2},
        "39ffa313ca17c60b609011e105419ac064f427c3f410ecdf7fe5ec2eb5cb5ea6",
    ),
    "labels": (
        {"policy": "labels", "labels": ["5", "1"]},
        "b1bdfd80d25a598b687b6f2c890441162876a2cdb1fe7689ae18c7465b112e13",
    ),
    "random": (
        {"policy": "random", "count": 2},
        "d5add22e54d6fa67229851576dbfd6af4daae3394d524b97ea10bb7740abda6c",
    ),
}


def _refuse(*args, **kwargs):
    raise AssertionError("must not be called")


class TestScheduling:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("policy", sorted(PINNED_DIGESTS))
    def test_reports_match_recorded_digests(self, policy, workers):
        vertices, digest = PINNED_DIGESTS[policy]
        report = run_benchmark(pinned_config(vertices), workers=workers)
        assert sum(r["exact"] is not None for r in report["rows"]) == 56
        text = report_to_json(report)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid": {"tolerances": [0.01, 1.5], "failure_prob": 0.1}},
            {"grid": {"tolerances": [0.1], "failure_prob": 1.0}},
            {"kpath": {"k": 3, "weight": "heavy"}},
            {"kpath": {"k": 3, "stopping": "sometimes"}},
            {"kpath": {"k": 0}},
            {"kpath": {"k": 3, "stopping": "fixed"}},
            {"kpath": {"k": 3, "count_sink_roots": False}},
            {"reps": -1},
            {"grid": {"tolerances": [], "failure_prob": 0.1}},
            {"timing": "false"},
            {"exact": 1},
            {"grid": {"tolerance": [0.05], "failure_prob": 0.1}},
            {"worker": 1},
            {"vertices": {"policy": "top-betweenness", "cnt": 2}},
            {"kpath": {"k": 3, "weights": "original"}},
            *(overrides for overrides, _ in CONFIG_HOLES),
        ],
    )
    def test_bad_cell_config_fails_before_any_job(self, monkeypatch, overrides):
        monkeypatch.setattr(pathcentral.bench, "brandes_betweenness_all", _refuse)
        monkeypatch.setattr(pathcentral.bench, "ProcessPoolExecutor", _refuse)
        monkeypatch.setattr(pathcentral.bench, "_load_dataset", _refuse)
        with pytest.raises(ValueError):
            run_benchmark(tiny_config(workers=2, **overrides))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_job_stops_the_run_and_leaves_no_worker(self, monkeypatch, workers):
        calls = []

        def failing(*args, **kwargs):
            calls.append(args[1])
            raise RuntimeError("estimator failed")

        # the pool forks after the patch, so its workers see it too
        monkeypatch.setattr(pathcentral.bench, "estimate_coverage", failing)
        with pytest.raises(RuntimeError, match="estimator failed"):
            run_benchmark(tiny_config(methods=["coverage"], reps=3), workers=workers)
        assert multiprocessing.active_children() == []
        if workers == 1:
            # jobs run as they are submitted, so nothing runs after the failure
            assert len(calls) == 1

    def test_coverage_matrix_built_once_per_dataset(self, monkeypatch):
        matrices, roots = [], []
        real_matrix = pathcentral.bench.all_pairs_distances
        real_coverage = pathcentral.bench.exact_coverage

        def counting_matrix(g):
            matrices.append(g)
            return real_matrix(g)

        def counting_coverage(g, root, **kwargs):
            roots.append(root)
            return real_coverage(g, root, **kwargs)

        monkeypatch.setattr(pathcentral.bench, "all_pairs_distances", counting_matrix)
        monkeypatch.setattr(pathcentral.bench, "exact_coverage", counting_coverage)
        config = pinned_config({"policy": "top-betweenness", "count": 2})
        report = run_benchmark(config, workers=1)
        assert len(matrices) == 2
        assert len(roots) == 4
        assert all(r["exact"] is not None for r in report["rows"] if r["method"] == "coverage")


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
