"""Command-line behavior: determinism, exit codes, report contents."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gatgrad.cli
import gatgrad.graph
from gatgrad import (
    GradientSet,
    Graph,
    LayerParams,
    backward_chain,
    generate_instance,
    load_graph,
    load_params,
    save_graph,
    save_params,
)
from gatgrad import fdcheck, grads, layer
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


# Broken copies of a good graph, params or upstream file: the text edits
# break the JSON itself, the JSON edits its content.
TEXT_EDITS = {
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "invalid_utf8": lambda text: b"\xff" + text.encode(),
    "nested": lambda text: b"[" * 100_000,
}
JSON_EDITS = {
    ("graph", "missing_key"): lambda raw: {k: v for k, v in raw.items() if k != "features"},
    ("graph", "wrong_value"): lambda raw: {**raw, "edges": 5},
    ("params", "missing_key"): lambda raw: {k: v for k, v in raw.items() if k != "theta_L"},
    ("params", "wrong_value"): lambda raw: {**raw, "a": 5},
    # An upstream file is a bare list: its missing key is a list under a key.
    ("upstream", "missing_key"): lambda raw: {"upstream": raw},
    ("upstream", "wrong_value"): lambda raw: [raw[0], "x", *raw[2:]],
}


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
        assert graph.edges.shape == (0, 2)

    def test_impossible_min_degree_is_usage_error(self, tmp_path):
        code, _, _ = run_gen(tmp_path, nodes=2, extra=("--min-degree", "5"))
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, want",
        [
            ("--nodes", "0", "a positive integer"),
            ("--feature-dim", "0", "a positive integer"),
            ("--out-dim", "-1", "a positive integer"),
            ("--min-degree", "-1", "a non-negative integer"),
        ],
    )
    def test_bad_count_names_the_flag(self, tmp_path, capsys, flag, value, want):
        """A count is checked in the parser, a usage error naming the flag."""
        with pytest.raises(SystemExit) as err:
            run_gen(tmp_path, extra=(flag, value))  # the last occurrence wins
        assert err.value.code == 2 and not (tmp_path / "graph.json").exists()
        assert f"argument {flag}: expected {want}, got {value!r}" in capsys.readouterr().err

    def test_unallocatable_instance_exits_2_writing_nothing(self, tmp_path, capsys):
        """Exit 1 means a failed gradient check only: numpy refuses the
        7 PiB feature matrix before touching memory, an input error."""
        code, _, _ = run_gen(tmp_path, nodes=10**12, feature_dim=1000, out_dim=1)
        assert code == 2 and not list(tmp_path.iterdir())
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((0, 1, 1, 0), "out_dim must be positive"),
            ((3, 1, -1, 0), "out_dim must be positive"),
            ((3, 1, 1, 0, -1), "min_degree must be nonnegative"),
        ],
    )
    def test_library_keeps_its_size_checks(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            generate_instance(*sizes)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_nodes, min_degree", [(9, 2), (5, 4), (1, 0), (4, 0)])
    def test_same_draws_as_the_pool_loop(self, seed, num_nodes, min_degree):
        """The edges are those of a loop that picks from a list of the other nodes."""
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((num_nodes, 2))
        edges = []
        for i in range(num_nodes):
            pool = [j for j in range(num_nodes) if j != i]
            if len(pool) == min_degree:
                degree = min_degree
            else:
                degree = int(rng.integers(min_degree, len(pool) + 1))
            picks = rng.choice(len(pool), size=degree, replace=False)
            edges.extend((i, pool[int(p)]) for p in picks)
        blocks = [rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                  rng.standard_normal(3), rng.standard_normal(3)]
        graph, feats, params = generate_instance(num_nodes, 2, 3, seed, min_degree)
        assert graph.edges.tolist() == [list(e) for e in edges]
        assert np.array_equal(feats, features)
        for got, want in zip((params.theta_r, params.theta_l, params.att, params.bias), blocks):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", ["-1", "1.5", "+7"])
    def test_seed_not_a_non_negative_integer_is_usage_error(self, tmp_path, capsys, seed):
        """A seed is a non-negative decimal integer, and the error names the flag."""
        with pytest.raises(SystemExit) as err:
            run_gen(tmp_path, seed=seed)
        assert err.value.code == 2
        want = f"argument --seed: expected a non-negative integer, got {seed!r}"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "graph.json").exists()

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

    @pytest.mark.parametrize("upstream", ["uniform", "random"])
    def test_report_key_order(self, instance, upstream):
        """Node entries, the --all-nodes top level and the flat --node payload
        keep their key order; closed_form appears under uniform only."""
        flags = ("--upstream", upstream, "--seed", "7")
        closed = ["closed_form"] if upstream == "uniform" else []
        entry_keys = [
            "node", "num_neighbors", "upstream_mode", "upstream",
            "theta_R", "theta_L", "a", "b", "step", "tolerance", "resolution", "seed", "pass",
            *closed, "closed_form_gap", "gradients",
        ]
        block_keys = ["max_rel_err", "pass", "kink_flagged", "worst_entry"]
        code, payload = self.check(instance, *flags)
        assert code == 0
        assert list(payload) == ["nodes", "step", "tolerance", "seed", "pass"]
        code, flat = self.check(instance, *flags, node_args=("--node", "0"))
        assert code == 0
        assert flat == payload["nodes"][0]
        for entry in payload["nodes"]:
            assert list(entry) == entry_keys
            assert entry["seed"] == 7 and entry["step"] == 1e-30
            for key in ("theta_R", "theta_L", "a", "b"):
                assert list(entry[key]) == block_keys
            if closed:
                assert list(entry["closed_form"]) == ["theta_R", "theta_L", "b"]
                for check in entry["closed_form"].values():
                    assert list(check) == block_keys
        assert list(flat) == entry_keys

    def test_all_zero_theta_blocks_flag_nothing_and_pass(self, instance, monkeypatch):
        """All-zero theta blocks put every pre-activation exactly at the kink.
        The complex step leaves every branch where the real pass put it, so
        nothing is flagged and every node passes at 1e-12 under both
        upstreams; a 1e-3 defect in one theta_L entry now fails."""
        tmp_path, graph_path, params_path = instance
        params = load_params(params_path)
        zero = np.zeros_like(params.theta_r)
        save_params(params_path, LayerParams(zero, zero, params.att, params.bias))
        for flags in ((), ("--upstream", "random", "--seed", "7")):
            code, payload = self.check(instance, "--tol", "1e-12", *flags)
            assert code == 0 and payload["pass"] is True
            for entry in payload["nodes"]:
                assert entry["pass"] is True
                checks = [entry[key] for key in ("theta_R", "theta_L", "a", "b")]
                for check in checks + list(entry.get("closed_form", {}).values()):
                    assert check["pass"] is True and check["kink_flagged"] == []
        inject_theta_l_defect(monkeypatch, (1, 2))
        code, payload = self.check(instance, "--tol", "1e-12")
        assert code == 1
        for entry in payload["nodes"]:
            assert entry["theta_L"]["worst_entry"] == [1, 2], entry["node"]

    @pytest.mark.parametrize("flags", [(), ("--upstream", "random", "--seed", "7")])
    def test_one_evaluation_per_node(self, tmp_path, monkeypatch, flags):
        """--all-nodes evaluates each of k nodes once: k forward passes, k
        backward chains and k calls of each closed form, under either
        upstream, and the oracle runs no forward pass of its own."""
        _, graph_path, params_path = run_gen(tmp_path, seed=3, nodes=12)
        calls = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (gatgrad.cli, fdcheck, layer):
            count(module, "forward_with_trace")
        for name in ("_segment_chain", "_segment_theta_r_sum", "_segment_theta_l"):
            count(grads, name)
        oracle = gatgrad.cli.fd_gradient

        def forward_free(*args):
            before = calls["forward_with_trace"]
            numeric = oracle(*args)
            assert calls["forward_with_trace"] == before, "the oracle ran a forward pass"
            return numeric

        monkeypatch.setattr(gatgrad.cli, "fd_gradient", forward_free)
        out = tmp_path / "report.json"
        assert main(["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
                     "--all-nodes", *flags, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["nodes"]) == 12
        assert calls == {name: 12 for name in (
            "forward_with_trace", "_segment_chain", "_segment_theta_r_sum", "_segment_theta_l"
        )}

    def test_gap_compares_the_reported_gradients(self, instance, monkeypatch):
        """closed_form_gap is taken between the report's own closed-form and
        chain gradients: a 1e-3 defect in one theta_L entry of the chain
        lifts every node's gap above a rounding residue."""
        code, payload = self.check(instance)
        assert code == 0
        assert all(entry["closed_form_gap"] <= 1e-10 for entry in payload["nodes"])
        inject_theta_l_defect(monkeypatch, (1, 2))
        code, payload = self.check(instance)
        assert code == 1
        for entry in payload["nodes"]:
            assert entry["closed_form_gap"] > 1e-10, entry["node"]

    def test_random_node_report_is_its_all_nodes_entry(self, tmp_path):
        """Under a random upstream, node i's upstream is row i of one draw, so
        gradcheck --node i writes node i's --all-nodes entry, for every node."""
        _, graph_path, params_path = run_gen(tmp_path, seed=3, nodes=12)
        flags = ["--graph", str(graph_path), "--params", str(params_path),
                 "--upstream", "random", "--seed", "7"]
        out = tmp_path / "report.json"
        assert main(["gradcheck", *flags, "--all-nodes", "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["nodes"]
        rows = np.random.default_rng(7).standard_normal((12, 4))
        for node in range(12):
            assert entries[node]["upstream"] == rows[node].tolist()
            assert main(["gradcheck", *flags, "--node", str(node), "--out", str(out)]) == 0
            assert json.loads(out.read_text()) == entries[node], node

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

    @pytest.mark.parametrize(
        "flags", [(), ("--upstream", "random", "--seed", "7")], ids=["uniform", "random"]
    )
    def test_isolated_self_loop_and_single_neighbor_pass_at_1e_12(self, tmp_path, flags):
        """Nodes 0 and 1 are isolated, node 2's only edge is a self-loop and node 3
        has one neighbor; beside two ordinary nodes, all pass at tolerance 1e-12."""
        graph = Graph(6, ((2, 2), (3, 4), (4, 0), (4, 2), (4, 5), (5, 1), (5, 3)))
        features = np.random.default_rng(3).standard_normal((6, 3))
        _, _, params = generate_instance(6, 3, 4, seed=3)
        graph_path, params_path = tmp_path / "graph.json", tmp_path / "params.json"
        save_graph(graph_path, graph, features)
        save_params(params_path, params)
        out = tmp_path / "report.json"
        code = main(
            ["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
             "--all-nodes", "--tol", "1e-12", *flags, "--out", str(out)]
        )
        assert code == 0
        entries = json.loads(out.read_text())["nodes"]
        assert [e["num_neighbors"] for e in entries] == [0, 0, 1, 1, 3, 2]

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

    def test_upstream_file_read_once_for_all_nodes(self, instance, monkeypatch):
        tmp_path, graph_path, params_path = instance
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1.0, -2.0, 0.5]")
        opened = []

        def counting_open(path, mode="r", *args, **kwargs):
            if "r" in mode:  # the reports are written through the same module
                opened.append(path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(gatgrad.graph, "open", counting_open, raising=False)
        code, payload = self.check(instance, "--upstream", f"file:{vec_path}")
        assert code == 0
        assert opened == [str(graph_path), str(params_path), str(vec_path)]
        assert len(payload["nodes"]) > 1
        for entry in payload["nodes"]:
            assert entry["upstream"] == [1.0, -2.0, 0.5]
            assert entry["upstream_mode"] == "file"

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

    @pytest.mark.parametrize("verb", ["gradcheck", "diagnose"])
    def test_non_finite_upstream_file(self, instance, capsys, verb):
        tmp_path, graph_path, params_path = instance
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1, Infinity, 2]")
        out = tmp_path / "r.json"
        code = main(
            [verb, "--graph", str(graph_path), "--params", str(params_path),
             "--node", "0", "--upstream", f"file:{vec_path}", "--out", str(out)]
        )
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert str(vec_path) in err and "index 1" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
    def test_non_finite_tolerance_is_exit_2(self, instance, capsys, tol):
        """A tolerance that is not positive and finite is a usage error naming --tol."""
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["gradcheck", "--graph", str(graph_path), "--params", str(params_path),
                  "--node", "0", "--tol", tol, "--out", str(out)])
        assert err.value.code == 2 and not out.exists()
        want = f"argument --tol: expected a positive finite number, got {tol!r}"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("case", [*TEXT_EDITS, "missing_key", "wrong_value"])
    @pytest.mark.parametrize("kind", ["graph", "params", "upstream"])
    def test_malformed_file_is_exit_2_naming_the_file(self, instance, capsys, kind, case):
        """A broken input file is an input error, never a failed check (exit 1)."""
        tmp_path, graph_path, params_path = instance
        files = {"graph": graph_path, "params": params_path, "upstream": tmp_path / "up.json"}
        files["upstream"].write_text("[1.0, -2.0, 0.5]")
        good = files[kind].read_text()
        files[kind] = tmp_path / f"bad_{kind}.json"
        if case in TEXT_EDITS:
            files[kind].write_bytes(TEXT_EDITS[case](good))
        else:
            files[kind].write_text(json.dumps(JSON_EDITS[kind, case](json.loads(good))))
        out = tmp_path / "r.json"
        code = main(
            ["gradcheck", "--graph", str(files["graph"]), "--params", str(files["params"]),
             "--all-nodes", "--upstream", f"file:{files['upstream']}", "--out", str(out)]
        )
        assert code == 2 and not out.exists()
        assert f"error: malformed {kind} file {files[kind]}: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("upstream", ["uniform", "file", "random"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gaps_equal_gradcheck_gaps(self, tmp_path, seed, upstream):
        """Under one upstream, gradcheck --all-nodes and diagnose --all-nodes
        give every node the same closed_form_gap, bit for bit: gradcheck takes
        it from the node alone, diagnose from the node's block of the
        whole-graph pass. Under the uniform upstream the gaps are rounding
        residues; under a non-constant file: upstream the closed forms drift
        from the chain, and the gaps are far above them. Under random
        --seed 7, gradcheck gives node i row i of one draw and diagnose every
        node that row 0, so only node 0 shares its upstream and its gap."""
        _, graph_path, params_path = run_gen(tmp_path, seed, 12, 16, 16)
        if upstream == "file":
            path = tmp_path / "upstream.json"
            path.write_text(json.dumps(np.random.default_rng(seed).standard_normal(16).tolist()))
            upstream = f"file:{path}"
        io = ["--graph", str(graph_path), "--params", str(params_path), "--all-nodes",
              "--upstream", upstream, *(["--seed", "7"] if upstream == "random" else [])]
        reports = []
        for verb in ("gradcheck", "diagnose"):
            out = tmp_path / f"{verb}.json"
            assert main([verb, *io, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        gaps = [[e["closed_form_gap"] for e in report["nodes"]] for report in reports]
        if upstream == "random":
            assert reports[1]["upstream"] == reports[0]["nodes"][0]["upstream"]
            assert gaps[0][0] == gaps[1][0]
            return
        assert gaps[0] == gaps[1]
        if upstream == "uniform":
            assert max(gaps[0]) <= 1e-12
        else:
            assert min(gaps[0]) >= 1e-6

    def test_all_positive_instance_reports_dead_rows(self, tmp_path):
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
    @pytest.mark.parametrize(
        "verb, flags, message",
        [
            ("gradcheck", ["--node", "4"], "node 4 out of range for 4 nodes"),
            ("diagnose", ["--node", "-1"], "node -1 out of range for 4 nodes"),
            ("forward", ["--node", "9"], "node 9 out of range for 4 nodes"),
        ],
    )
    def test_bad_node_or_upstream_mode_exits_2(self, instance, capsys, verb, flags, message):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "r.json"
        code = main([verb, "--graph", str(graph_path), "--params", str(params_path),
                     *flags, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, upstream, graph",
        [
            ("gradcheck", "bogus", "graph"),
            ("diagnose", "file", "graph"),
            ("diagnose", "file:", "graph"),
            ("gradcheck", "bogus", "missing"),
        ],
        ids=["bogus", "file", "file-colon", "bogus-missing-graph"],
    )
    def test_bad_upstream_is_usage_error_naming_the_flag(
        self, instance, capsys, verb, upstream, graph
    ):
        """A bad --upstream value is rejected by the parser, naming the flag,
        before any file is read: even a missing --graph is not reported."""
        tmp_path, graph_path, params_path = instance
        graphs = {"graph": graph_path, "missing": tmp_path / "missing.json"}
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main([verb, "--graph", str(graphs[graph]), "--params", str(params_path),
                  "--all-nodes", "--upstream", upstream, "--out", str(out)])
        assert err.value.code == 2 and not out.exists()
        want = f"argument --upstream: expected uniform, random or file:PATH, got {upstream!r}"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["diagnose", "gradcheck"])
    def test_negative_seed_is_usage_error_naming_the_flag(self, instance, capsys, verb):
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main([verb, "--graph", str(graph_path), "--params", str(params_path),
                  "--all-nodes", "--upstream", "random", "--seed", "-3", "--out", str(out)])
        assert err.value.code == 2 and not out.exists()
        assert "argument --seed: expected a non-negative integer, got '-3'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, unrecognized",
        [
            (["gen", "--nodes", "3", "--feature-dim", "1", "--out-dim", "1"], "--out"),
            (["forward", "--all"], "--all"),
        ],
        ids=["gen-out", "forward-all"],
    )
    def test_abbreviated_option_is_unrecognized(self, instance, capsys, flags, unrecognized):
        """No option is read from a prefix: gen's --out is not --out-dim, and
        forward's --all is not --all-nodes."""
        tmp_path, graph_path, params_path = instance
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main([*flags, "--graph", str(graph_path), "--params", str(params_path),
                  "--out", str(out)])
        assert err.value.code == 2 and not out.exists()
        assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_module_run_exits_2_on_unknown_command(self):
        """python -m gatgrad.cli runs the CLI, so a bad command is not a silent exit 0."""
        src = str(Path(gatgrad.cli.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "gatgrad.cli", "frobnicate"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        assert "invalid choice" in done.stderr

    @pytest.mark.parametrize("verb", ["forward", "gradcheck", "diagnose"])
    def test_width_mismatch_exits_2_naming_both_files(self, tmp_path, capsys, verb):
        (tmp_path / "narrow").mkdir()
        _, graph_path, _ = run_gen(tmp_path / "narrow", feature_dim=2)
        _, _, params_path = run_gen(tmp_path, feature_dim=3)
        out = tmp_path / "r.json"
        code = main([verb, "--graph", str(graph_path), "--params", str(params_path),
                     "--all-nodes", "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert f"graph file {graph_path} has feature_dim 2" in err
        assert f"params file {params_path} has H 3" in err

    def test_non_finite_theta_l_exits_2_naming_key_and_index(self, instance, capsys):
        tmp_path, graph_path, params_path = instance
        raw = json.loads(params_path.read_text())
        raw["theta_L"][1][2] = float("inf")
        params_path.write_text(json.dumps(raw))
        out = tmp_path / "r.json"
        code = main(["forward", "--graph", str(graph_path), "--params", str(params_path),
                     "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "non-finite theta_L entry at index (1, 2)" in capsys.readouterr().err

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
