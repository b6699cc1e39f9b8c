"""Command-line behavior: determinism, exit codes, report contents."""

import json

import numpy as np
import pytest

import gatgrad.cli
from gatgrad import GradientSet, backward_chain, load_graph, load_params
from gatgrad.cli import main


def run_gen(tmp_path, seed=42, nodes=5, feature_dim=3, out_dim=4, extra=()):
    graph_path = tmp_path / "graph.json"
    params_path = tmp_path / "params.json"
    code = main(
        [
            "gen",
            "--nodes", str(nodes),
            "--feature-dim", str(feature_dim),
            "--out-dim", str(out_dim),
            "--seed", str(seed),
            "--graph", str(graph_path),
            "--params", str(params_path),
            *extra,
        ]
    )
    return code, graph_path, params_path


def inject_theta_l_defect(monkeypatch, entry):
    """Make gradcheck's backward_chain report one theta_L entry 1e-3 too large."""

    def defective(trace, params, upstream):
        grads = backward_chain(trace, params, upstream)
        theta_l = grads.theta_l.copy()
        theta_l[entry] *= 1.0 + 1e-3
        return GradientSet(grads.theta_r, theta_l, grads.att, grads.bias)

    monkeypatch.setattr(gatgrad.cli, "backward_chain", defective)


class TestGen:
    def test_writes_loadable_instance(self, tmp_path):
        code, graph_path, params_path = run_gen(tmp_path)
        assert code == 0
        graph, feats = load_graph(graph_path)
        params = load_params(params_path)
        assert graph.num_nodes == 5
        assert feats.shape == (5, 3)
        assert params.out_dim == 4
        assert all(len(graph.neighbors(i)) >= 2 for i in range(5))

    def test_byte_identical_across_runs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, g1, p1 = run_gen(tmp_path / "a", seed=42)
        _, g2, p2 = run_gen(tmp_path / "b", seed=42)
        assert g1.read_bytes() == g2.read_bytes()
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, g1, _ = run_gen(tmp_path / "a", seed=1)
        _, g2, _ = run_gen(tmp_path / "b", seed=2)
        assert g1.read_bytes() != g2.read_bytes()

    def test_single_node_zero_degree(self, tmp_path):
        code, graph_path, _ = run_gen(
            tmp_path, nodes=1, feature_dim=1, out_dim=1,
            extra=("--min-degree", "0"),
        )
        assert code == 0
        graph, _ = load_graph(graph_path)
        assert graph.edges == ()

    def test_impossible_min_degree_is_usage_error(self, tmp_path):
        code, _, _ = run_gen(tmp_path, nodes=2, extra=("--min-degree", "5"))
        assert code == 2

    def test_min_degree_honored(self, tmp_path):
        code, graph_path, _ = run_gen(tmp_path, nodes=6, extra=("--min-degree", "3"))
        assert code == 0
        graph, _ = load_graph(graph_path)
        assert all(len(graph.neighbors(i)) >= 3 for i in range(6))


@pytest.fixture
def instance(tmp_path):
    code, graph_path, params_path = run_gen(tmp_path, seed=7, nodes=4,
                                            feature_dim=2, out_dim=3)
    assert code == 0
    return tmp_path, graph_path, params_path


class TestForward:
    def test_reports_all_nodes_by_default(self, instance):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "forward.json"
        code = main(
            ["forward", "--graph", str(graph_path), "--params", str(params_path),
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [e["node"] for e in payload["nodes"]] == [0, 1, 2, 3]
        for entry in payload["nodes"]:
            assert len(entry["alpha"]) == len(entry["neighbors"])
            assert len(entry["h_out"]) == 3

    def test_isolated_node_outputs_bias(self, tmp_path):
        graph_path = tmp_path / "graph.json"
        params_path = tmp_path / "params.json"
        graph_path.write_text(json.dumps({
            "num_nodes": 2, "feature_dim": 1,
            "features": [[0.5], [1.5]], "edges": [[0, 1]],
        }))
        params_path.write_text(json.dumps({
            "D": 1, "H": 1, "negative_slope": 0.2,
            "theta_R": [[0.1, 0.2]], "theta_L": [[0.3, 0.4]],
            "a": [1.0], "b": [2.5],
        }))
        out = tmp_path / "forward.json"
        code = main(
            ["forward", "--graph", str(graph_path), "--params", str(params_path),
             "--node", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["nodes"][0]["h_out"] == [2.5]
        assert payload["nodes"][0]["alpha"] == []

    def test_repeated_runs_byte_identical(self, instance):
        tmp_path, graph_path, params_path = instance
        outs = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            main(["forward", "--graph", str(graph_path), "--params",
                  str(params_path), "--all-nodes", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestGradcheck:
    def check(self, instance, *extra, node_args=("--all-nodes",)):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "report.json"
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             *node_args, "--out", str(out), *extra]
        )
        return code, json.loads(out.read_text())

    def test_uniform_upstream_passes(self, instance):
        code, payload = self.check(instance)
        assert code == 0
        assert payload["pass"] is True
        for entry in payload["nodes"]:
            assert entry["pass"] is True
            assert entry["upstream"] == [1.0, 1.0, 1.0]
            assert "closed_form" in entry
            assert entry["closed_form_gap"] <= 1e-10

    def test_random_upstream_passes(self, instance):
        code, payload = self.check(instance, "--upstream", "random", "--seed", "99")
        assert code == 0
        upstreams = [entry["upstream"] for entry in payload["nodes"]]
        assert upstreams[0] != upstreams[1]
        rng = np.random.default_rng(99)
        assert upstreams[0] == rng.standard_normal(3).tolist()
        for entry in payload["nodes"]:
            assert "closed_form" not in entry

    def test_single_node_report_is_flat(self, instance):
        code, payload = self.check(instance, node_args=("--node", "0"))
        assert code == 0
        for key in ("theta_R", "theta_L", "a", "b", "step", "tolerance", "pass"):
            assert key in payload
        assert payload["gradients"]["meta"]["target_node"] == 0

    def test_unattainable_tolerance_fails_naming_worst_entry(
        self, instance, monkeypatch
    ):
        inject_theta_l_defect(monkeypatch, (1, 2))
        code, payload = self.check(instance, node_args=("--node", "0"))
        assert code == 1
        assert payload["pass"] is False
        failing = [k for k in ("theta_R", "theta_L", "a", "b")
                   if not payload[k]["pass"]]
        assert failing == ["theta_L"]
        assert payload["theta_L"]["worst_entry"] == [1, 2]

    def test_isolated_node_all_attention_gradients_zero(self, tmp_path):
        graph_path = tmp_path / "graph.json"
        params_path = tmp_path / "params.json"
        graph_path.write_text(json.dumps({
            "num_nodes": 2, "feature_dim": 1,
            "features": [[0.5], [1.5]], "edges": [[0, 1]],
        }))
        params_path.write_text(json.dumps({
            "D": 2, "H": 1, "negative_slope": 0.2,
            "theta_R": [[0.1, 0.2], [0.3, -0.1]],
            "theta_L": [[0.3, 0.4], [-0.2, 0.6]],
            "a": [1.0, -0.5], "b": [2.5, -1.0],
        }))
        out = tmp_path / "report.json"
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             "--node", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        grads = payload["gradients"]
        assert np.all(np.asarray(grads["theta_R"]) == 0.0)
        assert np.all(np.asarray(grads["theta_L"]) == 0.0)
        assert np.all(np.asarray(grads["a"]) == 0.0)
        assert grads["b"] == [1.0, 1.0]

    def test_upstream_from_file(self, instance):
        tmp_path, graph_path, params_path = instance
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1.0, -2.0, 0.5]")
        out = tmp_path / "report.json"
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             "--node", "0", "--upstream", f"file:{vec_path}", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["upstream"] == [1.0, -2.0, 0.5]
        assert payload["upstream_mode"] == "file"

    def test_wrong_length_upstream_file(self, instance):
        tmp_path, graph_path, params_path = instance
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1.0]")
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             "--node", "0", "--upstream", f"file:{vec_path}",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_non_number_upstream_file(self, instance, capsys):
        tmp_path, graph_path, params_path = instance
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text('["1", true, 2]')
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             "--node", "0", "--upstream", f"file:{vec_path}",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert str(vec_path) in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_exit_2(self, instance, tol):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "r.json"
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             "--node", "0", "--tol", tol, "--out", str(out)]
        )
        assert code == 2 and not out.exists()

    def test_malformed_input_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["gradcheck", "--graph", str(bad), "--params", str(bad),
             "--node", "0", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_repeated_runs_byte_identical(self, instance):
        tmp_path, graph_path, params_path = instance
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["gradcheck", "--graph", str(graph_path), "--params",
                  str(params_path), "--all-nodes", "--upstream", "random",
                  "--seed", "5", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_exit_status_matches_report_pass(self, instance, monkeypatch):
        code, payload = self.check(instance)
        assert code == 0 and payload["pass"] is True
        inject_theta_l_defect(monkeypatch, (0, 0))
        code, payload = self.check(instance)
        assert code == 1 and payload["pass"] is False

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_instance_passes_at_default_and_tight_tolerance(self, tmp_path, seed):
        code, graph_path, params_path = run_gen(
            tmp_path, seed=seed, nodes=12, feature_dim=16, out_dim=16
        )
        assert code == 0
        for tol in ("1e-6", "1e-12"):
            out = tmp_path / f"report-{tol}.json"
            code = main(
                ["gradcheck", "--graph", str(graph_path), "--params",
                 str(params_path), "--all-nodes", "--tol", tol, "--out", str(out)]
            )
            assert code == 0, [
                e["node"] for e in json.loads(out.read_text())["nodes"] if not e["pass"]
            ]


class TestDiagnoseCommand:
    def test_default_selects_connected_nodes(self, instance):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "diag.json"
        code = main(
            ["diagnose", "--graph", str(graph_path), "--params", str(params_path),
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["upstream_mode"] == "uniform"
        for entry in payload["nodes"]:
            assert entry["num_neighbors"] >= 1
            assert entry["closed_form_gap"] <= 1e-10

    def test_all_positive_instance_reports_dead_rows(self, tmp_path):
        from gatgrad import LayerParams, generate_instance, save_graph, save_params

        g, feats, params = generate_instance(4, 2, 2, seed=5)
        th = params.theta_r.copy()
        th[:, 0] = 60.0
        params = LayerParams(th, params.theta_l, params.att, params.bias, 0.2)
        graph_path, params_path = tmp_path / "g.json", tmp_path / "p.json"
        save_graph(graph_path, g, feats)
        save_params(params_path, params)
        out = tmp_path / "diag.json"
        code = main(
            ["diagnose", "--graph", str(graph_path), "--params", str(params_path),
             "--all-nodes", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(all(e["dead_theta_r"]) for e in payload["nodes"])

    def test_underflowed_attention_weight_gives_strict_json(self, tmp_path):
        """A weight of exactly 0 contributes 0 to the entropy, never NaN."""
        graph_path, params_path = tmp_path / "g.json", tmp_path / "p.json"
        graph_path.write_text(json.dumps({
            "num_nodes": 2, "feature_dim": 1,
            "features": [[0.0], [1.0]], "edges": [[0, 0], [0, 1]],
        }))
        params_path.write_text(json.dumps({
            "D": 1, "H": 1, "negative_slope": 0.2,
            "theta_R": [[0.0, 0.0]], "theta_L": [[0.0, 1000.0]],
            "a": [1.0], "b": [0.0],
        }))
        out = tmp_path / "diag.json"
        code = main(
            ["diagnose", "--graph", str(graph_path), "--params", str(params_path),
             "--out", str(out)]
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["nodes"][0]["attention_entropy"] == 0.0

    def test_random_upstream_recorded(self, instance):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "diag.json"
        code = main(
            ["diagnose", "--graph", str(graph_path), "--params", str(params_path),
             "--upstream", "random", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["upstream"] == np.random.default_rng(3).standard_normal(3).tolist()


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_node_and_all_nodes_conflict(self, instance):
        tmp_path, graph_path, params_path = instance
        with pytest.raises(SystemExit) as err:
            main(["gradcheck", "--graph", str(graph_path), "--params",
                  str(params_path), "--node", "0", "--all-nodes",
                  "--out", str(tmp_path / "r.json")])
        assert err.value.code == 2

    def test_gradcheck_requires_node_selection(self, instance):
        tmp_path, graph_path, params_path = instance
        with pytest.raises(SystemExit) as err:
            main(["gradcheck", "--graph", str(graph_path), "--params",
                  str(params_path), "--out", str(tmp_path / "r.json")])
        assert err.value.code == 2
