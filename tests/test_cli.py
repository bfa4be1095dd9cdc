import io
import json

import pytest

from pathcentral.cli import main
from pathcentral.graph import loads_edge_list


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.edges"
    path.write_text("a b\nb c\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.edges"
    path.write_text("s a\ns b\na t\nb t\n", encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestExactCommands:
    def test_bc_exact(self, capsys, chain_file):
        payload = run_json(capsys, ["bc-exact", "--graph", chain_file, "--vertex", "b"])
        assert payload["value"] == pytest.approx(1 / 6)
        assert payload["value_exact"] == "1/6"
        assert payload["method"] == "brandes"

    def test_bc_exact_restricted_method(self, capsys, chain_file):
        payload = run_json(
            capsys,
            ["bc-exact", "--graph", chain_file, "--vertex", "b", "--method", "restricted"],
        )
        assert payload["value_exact"] == "1/6"
        assert payload["method"] == "restricted"

    def test_coverage_exact(self, capsys, diamond_file):
        payload = run_json(capsys, ["coverage-exact", "--graph", diamond_file, "--vertex", "a"])
        assert payload["value_exact"] == "1/12"

    def test_kpath_exact(self, capsys, chain_file):
        payload = run_json(
            capsys,
            ["kpath-exact", "--graph", chain_file, "--vertex", "b", "--k", "2",
             "--w-def", "restricted"],
        )
        assert payload["value_exact"] == "1/3"
        assert payload["k"] == 2
        assert "restricted" in payload["method"]


class TestEstimateCommands:
    def test_bc_estimate_rerun_is_bit_identical(self, capsys, diamond_file):
        argv = ["bc-estimate", "--graph", diamond_file, "--vertex", "a",
                "--lambda", "0.05", "--delta", "0.1", "--seed", "31"]
        one = run_json(capsys, argv)
        two = run_json(capsys, argv)
        for key in ("value", "samples", "stop_reason", "hits", "seed"):
            assert one[key] == two[key]
        assert one["method"] == "sampled-paths"

    def test_readme_example(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\nb c\nc d\na c\nb d\n", encoding="utf-8")
        payload = run_json(capsys, ["bc-estimate", "--graph", str(path), "--vertex", "b",
                                    "--lambda", "0.05", "--delta", "0.1", "--seed", "4"])
        assert payload.pop("wall_time") >= 0
        assert payload == {
            "contribution_bound": 0.16666666666666666,
            "hits": 63,
            "lower_conf": 0.020693718823339997,
            "method": "sampled-paths",
            "sample_budget": 800,
            "samples": 222,
            "seed": 4,
            "stop_reason": "bounds-satisfied",
            "upper_conf": 0.09723815855404314,
            "value": 0.0472972972972973,
            "vertex": "b",
        }

    def test_fixed_samples_flag(self, capsys, diamond_file):
        payload = run_json(
            capsys,
            ["bc-estimate", "--graph", diamond_file, "--vertex", "a",
             "--seed", "2", "--fixed-samples", "123"],
        )
        assert payload["samples"] == 123
        assert payload["stop_reason"] == "budget-reached"
        assert payload["lower_conf"] is None

    def test_baseline_flag_changes_method(self, capsys, diamond_file):
        payload = run_json(
            capsys,
            ["bc-estimate", "--graph", diamond_file, "--vertex", "a",
             "--seed", "2", "--baseline"],
        )
        assert payload["method"] == "sampled-paths-baseline"
        assert payload["contribution_bound"] == 1.0

    def test_coverage_estimate(self, capsys, diamond_file):
        payload = run_json(
            capsys,
            ["coverage-estimate", "--graph", diamond_file, "--vertex", "a", "--seed", "4"],
        )
        assert payload["method"] == "sampled-pairs"
        assert payload["value"] == pytest.approx(1 / 12)

    def test_table_output(self, capsys, diamond_file):
        code = main(["bc-estimate", "--graph", diamond_file, "--vertex", "a",
                     "--seed", "2", "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value" in out and "{" not in out

    def test_kpath_estimate_run_lengths(self, capsys, chain_file):
        base = ["kpath-estimate", "--graph", chain_file, "--vertex", "b",
                "--k", "2", "--seed", "3"]
        fixed = run_json(capsys, base + ["--fixed-samples", "777"])
        assert fixed["samples"] == fixed["sample_budget"] == 777
        assert fixed["lower_conf"] is None and fixed["upper_conf"] is None
        adaptive = run_json(capsys, base)
        assert adaptive["lower_conf"] is not None and adaptive["upper_conf"] is not None
        for payload in (fixed, adaptive):
            assert "stopping" not in payload
            assert payload["k"] == 2
            assert payload["weight"] == "original"
            assert payload["source_fraction"] == pytest.approx(1 / 3)

    def test_kpath_sink_root_is_sampled(self, capsys, chain_file):
        base = ["kpath-estimate", "--graph", chain_file, "--vertex", "c", "--k", "1",
                "--seed", "3"]
        adaptive = run_json(capsys, base)
        assert adaptive["stop_reason"] != "degenerate-zero"
        assert adaptive["lower_conf"] <= 1 / 3 <= adaptive["upper_conf"]
        fixed = run_json(capsys, base + ["--fixed-samples", "400"])
        assert 0 < fixed["hits"] < fixed["samples"] == 400

    @pytest.mark.parametrize("flag", [["--stopping", "hoeffding"], ["--count-sink-roots"]])
    def test_kpath_run_flags_are_gone(self, capsys, chain_file, flag):
        with pytest.raises(SystemExit) as exc:
            main(["kpath-estimate", "--graph", chain_file, "--vertex", "b",
                  "--k", "2", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestReachCommand:
    def test_payload_fields(self, capsys, chain_file):
        payload = run_json(capsys, ["reach", "--graph", chain_file, "--vertex", "b"])
        assert payload["upstream_count"] == 1
        assert payload["downstream_count"] == 1
        assert payload["domain_size"] == 3
        assert payload["pair_fraction_exact"] == "1/6"
        assert payload["source_fraction_exact"] == "1/3"
        assert payload["diameter_vertex_bound"] >= 2


    @pytest.mark.parametrize("command", ["bc-estimate", "coverage-estimate", "reach"])
    def test_diameter_mode_flag_is_gone(self, capsys, chain_file, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", chain_file, "--vertex", "b",
                  "--diameter-mode", "global"])
        assert exc.value.code == 2
        assert "--diameter-mode" in capsys.readouterr().err


class TestGenCommand:
    def test_stdout_output_is_loadable(self, capsys):
        code = main(["gen", "random", "--n", "12", "--p", "0.3", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        g = loads_edge_list(out)
        assert g.vertex_count <= 12

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "hub.edges"
        code = main(["gen", "hub", "--n", "30", "--seed", "5", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        g = loads_edge_list(target.read_text(encoding="utf-8"))
        assert g.vertex_count == 30

    def test_layered_kind(self, capsys):
        code = main(["gen", "layered", "--layers", "3", "--width", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        # the edge-list text drops isolated final-layer vertices
        assert loads_edge_list(out).vertex_count <= 12
        assert all(int(v) > int(u) for u, v in (line.split() for line in out.splitlines()))


class TestSamplePathCommand:
    def test_reachable_pair(self, capsys, diamond_file):
        payload = run_json(
            capsys,
            ["sample-path", "--graph", diamond_file, "--source", "s", "--target", "t",
             "--seed", "0"],
        )
        assert payload["reachable"] is True
        assert payload["distance"] == 2
        assert payload["path_count"] == 2
        assert payload["path"][0] == "s" and payload["path"][-1] == "t"

    def test_unreachable_pair(self, capsys, chain_file):
        payload = run_json(
            capsys,
            ["sample-path", "--graph", chain_file, "--source", "c", "--target", "a"],
        )
        assert payload == {"source": "c", "target": "a", "reachable": False}


class TestStdinAndErrors:
    def test_stdin_graph(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\n"))
        payload = run_json(capsys, ["bc-exact", "--graph", "-", "--vertex", "b"])
        assert payload["value_exact"] == "1/6"

    def test_missing_file(self, capsys):
        code = main(["bc-exact", "--graph", "/nonexistent/g.edges", "--vertex", "a"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_malformed_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b\nonly-one-token\n", encoding="utf-8")
        code = main(["bc-exact", "--graph", str(bad), "--vertex", "a"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_unknown_vertex(self, capsys, chain_file):
        code = main(["bc-exact", "--graph", chain_file, "--vertex", "zz"])
        assert code == 2

    def test_guard_exit_code(self, capsys, tmp_path):
        big = tmp_path / "big.edges"
        big.write_text("".join(f"v{i} v{i + 1}\n" for i in range(16)), encoding="utf-8")
        code = main(["kpath-exact", "--graph", str(big), "--vertex", "v1", "--k", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "capped" in err

    def test_bad_fixed_samples(self, capsys, chain_file):
        code = main(["kpath-estimate", "--graph", chain_file, "--vertex", "b",
                     "--k", "2", "--fixed-samples", "0"])
        assert code == 2
        assert "fixed_samples" in capsys.readouterr().err

    def test_bench_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        code = main(["bench", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize(
        "config, section",
        [
            ({"grid": [0.05]}, "grid"),
            ({"vertices": 3}, "vertices"),
            ({"kpath": "k=5"}, "kpath"),
            ({"datasets": ["hub"]}, "datasets"),
            ({"grid": {"tolerances": 0.05}}, "grid.tolerances"),
            ({"methods": 5}, "methods"),
            # scalar leaves; no datasets, so a config that slips through
            # returns an empty report at once
            ({"seed": "1", "datasets": []}, "seed"),
            ({"reps": [1], "datasets": []}, "reps"),
            ({"reps": 1.7, "datasets": []}, "reps"),
            ({"workers": True, "datasets": []}, "workers"),
            ({"vertices": {"count": 2.5}, "datasets": []}, "vertices.count"),
            ({"kpath": {"k": "5"}, "datasets": []}, "kpath.k"),
            ({"grid": {"failure_prob": "0.1"}, "datasets": []}, "grid.failure_prob"),
        ],
    )
    def test_bench_section_of_the_wrong_type(self, capsys, tmp_path, config, section):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["bench", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config '{section}' must be" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"grid": {"tolerances": [0.01, 1.5]}}, "tolerance must be in (0, 1)"),
            ({"methods": ["kpath"], "kpath": {"weight": "heavy"}}, "weight must be"),
        ],
    )
    def test_bench_bad_estimator_config(self, capsys, tmp_path, overrides, message):
        config = {"datasets": [{"name": "t", "generator": "random",
                                "params": {"n": 15, "edge_prob": 0.2, "seed": 2}}]}
        config.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["bench", "--config", str(path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kpath, key",
        [
            ({"stopping": "fixed"}, "kpath.stopping"),
            ({"stopping": "hoeffding"}, "kpath.stopping"),
            ({"count_sink_roots": False}, "kpath.count_sink_roots"),
        ],
    )
    def test_bench_kpath_run_keys(self, capsys, tmp_path, kpath, key):
        # the dataset file does not exist, so loading it first would fail
        # with another message
        config = {"datasets": [{"name": "t", "path": str(tmp_path / "absent.edges")}],
                  "methods": ["kpath"], "kpath": kpath}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["bench", "--config", str(path)])
        assert code == 2
        assert f"config '{key}' must be" in capsys.readouterr().err


class TestBenchCommand:
    def test_end_to_end(self, capsys, tmp_path):
        config = {
            "seed": 4,
            "reps": 1,
            "timing": False,
            "datasets": [
                {"name": "t", "generator": "random",
                 "params": {"n": 15, "edge_prob": 0.2, "seed": 2}},
            ],
            "vertices": {"policy": "top-betweenness", "count": 1},
            "methods": ["betweenness"],
            "grid": {"tolerances": [0.1], "failure_prob": 0.1},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        payload = run_json(capsys, ["bench", "--config", str(path)])
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["method"] == "betweenness"

        code = main(["bench", "--config", str(path), "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("dataset")
