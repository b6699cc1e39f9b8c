"""Command-line behavior: determinism, exit codes, report contents. Every verb
runs through conftest's ci.cli, on the instances of its registry."""

import argparse
import collections
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gatgrad.cli
import gatgrad.graph
from gatgrad import (
    GradientSet,
    LayerParams,
    backward_chain,
    forward_with_trace,
    generate_instance,
    load_graph,
    load_params,
    save_graph,
    save_params,
)
from gatgrad import diagnostics, fdcheck, grads, layer

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
# Node 0's one neighbor is node 1, which has none.
TWO_NODES = {"num_nodes": 2, "feature_dim": 1, "features": [[0.5], [1.5]], "edges": [[0, 1]]}
# Inputs whose finite products overflow, as (graph, params, upstream): under the upstream
# [1e10], node 0's theta_L gradient on both routes; under [1e300], upstream * att in the
# closed theta_R form, whose zero sum then makes it NaN; the attention scores, with any upstream.
OVERFLOWING = {
    "big_theta_l": (
        {"num_nodes": 2, "feature_dim": 1, "edges": [[1, 0], [0, 1]],
         "features": [[1.0], [1e300]]},
        {"D": 1, "H": 1, "negative_slope": 0.2, "theta_R": [[0.1, 0.2]],
         "theta_L": [[0.3, 1e-300]], "a": [1.0], "b": [0.0]},
        [1e10],
    ),
    "big_att": (
        {"num_nodes": 1, "feature_dim": 1, "edges": [[0, 0]], "features": [[0.5]]},
        {"D": 1, "H": 1, "negative_slope": 0.2, "theta_R": [[0.5, 0.5]],
         "theta_L": [[0.5, 0.5]], "a": [1e10], "b": [0.0]},
        [1e300],
    ),
    "big_scores": (
        {"num_nodes": 2, "feature_dim": 1, "edges": [[0, 1], [0, 0]],
         "features": [[1e300], [-1e300]]},
        {"D": 2, "H": 1, "negative_slope": 0.2, "theta_R": [[0.0, 1e10], [0.0, 0.0]],
         "theta_L": [[0.0, 1.0], [0.0, 1.0]], "a": [1.0, 1.0], "b": [0.0, 0.0]},
        [1.0, 1.0],
    ),
}


def one_error_line(ci, capsys, code_and_report, message=None):
    """Assert exit 2 with no report, nothing in the run's directory and exactly one
    stderr line, an error (the given message, if any); return that line."""
    assert code_and_report == (2, None) and not any(ci.last.iterdir())
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert message is None or err == f"error: {message}\n"
    return err


def inject_theta_l_defect(monkeypatch, entry):
    """Make gradcheck's backward_chain report one theta_L entry 1e-3 too large."""

    def defective(trace, params, upstream):
        grads = backward_chain(trace, params, upstream)
        theta_l = grads.theta_l.copy()
        theta_l[entry] *= 1.0 + 1e-3
        return GradientSet(grads.theta_r, theta_l, grads.att, grads.bias)

    monkeypatch.setattr(gatgrad.cli, "backward_chain", defective)


class TestGen:
    def test_writes_loadable_instance(self, ci):
        graph_path, params_path = ci.files("five")
        graph, feats = load_graph(graph_path)
        params = load_params(params_path)
        assert graph.num_nodes == 5
        assert feats.shape == (5, 3)
        assert params.out_dim == 4
        assert (np.diff(graph.offsets) >= 2).all()

    def test_byte_identical_across_runs(self, ci):
        for first, second in zip(ci.files("five"), ci.write("five")):
            assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self, ci):
        graphs = []
        for seed in (1, 2):
            ci.cli("gen", *ci.GEN["five"], "--seed", seed)
            graphs.append((ci.last / "graph.json").read_bytes())
        assert graphs[0] != graphs[1]

    def test_single_node_zero_degree(self, ci):
        flags = ("--nodes", 1, "--feature-dim", 1, "--out-dim", 1, "--seed", 42, "--min-degree", 0)
        assert ci.cli("gen", *flags) == (0, None)
        graph, _ = load_graph(ci.last / "graph.json")
        assert graph.edges.shape == (0, 2)

    def test_impossible_min_degree_is_usage_error(self, ci):
        assert ci.cli("gen", *ci.GEN["five"], "--nodes", 2, "--min-degree", 5)[0] == 2

    @pytest.mark.parametrize(
        "flag, value, want",
        [
            ("--nodes", "0", "a positive integer"),
            ("--feature-dim", "0", "a positive integer"),
            ("--out-dim", "-1", "a positive integer"),
            ("--min-degree", "-1", "a non-negative integer"),
        ],
    )
    def test_bad_count_names_the_flag(self, ci, capsys, flag, value, want):
        """A count is checked in the parser, a usage error naming the flag."""
        with pytest.raises(SystemExit) as err:
            ci.cli("gen", *ci.GEN["five"], flag, value)  # the last occurrence wins
        assert err.value.code == 2 and not any(ci.last.iterdir())
        assert f"argument {flag}: expected {want}, got {value!r}" in capsys.readouterr().err

    def test_request_over_the_edge_cap_exits_2_before_any_draw(self, ci, capsys, monkeypatch):
        """Degrees are uniform on [min_degree, n - 1], so n nodes expect
        n (min_degree + n - 1) / 2 edges. The check reads that count alone: the
        largest request under the cap reaches the generator, here one that
        refuses to start, and the smallest request over it, 50000 nodes and
        the 1e12 of the unallocatable request exit 2 naming the count, before
        the generator is made."""

        class DrawStarted(Exception):
            pass

        def refuse(seed):
            raise DrawStarted

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert gatgrad.gen.MAX_EDGES == 10**7
        flags = ("--feature-dim", 1000, "--out-dim", 1, "--min-degree", 2)
        with pytest.raises(DrawStarted):
            ci.cli("gen", "--nodes", 4471, *flags)  # expects 9,997,156 edges
        for nodes, expect in ((4472, "10,001,628"), (50_000, "1,250,025,000"),
                              (10**12, "500,000,000,000,500,000,000,000")):
            message = f"{nodes} nodes of degree 2 to {nodes - 1} expect {expect} edges"
            code = ci.cli("gen", "--nodes", nodes, *flags)
            one_error_line(ci, capsys, code, f"{message}, over the cap of 10,000,000")

    def test_unallocatable_instance_exits_2_writing_nothing(self, ci, capsys):
        """Exit 1 means a failed gradient check only: numpy refuses the
        7 PiB feature matrix before touching memory, an input error. The
        request expects 500,500 edges, under the cap."""
        flags = ("--nodes", 1000, "--feature-dim", 10**12, "--out-dim", 1, "--seed", 42)
        assert ci.cli("gen", *flags)[0] == 2 and not any(ci.last.iterdir())
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
    def test_seed_not_a_non_negative_integer_is_usage_error(self, ci, capsys, seed):
        """A seed is a non-negative decimal integer, and the error names the flag."""
        with pytest.raises(SystemExit) as err:
            ci.cli("gen", *ci.GEN["five"], "--seed", seed)
        assert err.value.code == 2
        want = f"argument --seed: expected a non-negative integer, got {seed!r}"
        assert want in capsys.readouterr().err
        assert not any(ci.last.iterdir())

    def test_min_degree_honored(self, ci):
        assert ci.cli("gen", *ci.GEN["five"], "--nodes", 6, "--min-degree", 3) == (0, None)
        graph, _ = load_graph(ci.last / "graph.json")
        assert (np.diff(graph.offsets) >= 3).all()


class TestForward:
    def test_reports_all_nodes_by_default(self, ci):
        code, payload = ci.run("forward", "four", "uniform")
        assert code == 0
        assert [e["node"] for e in payload["nodes"]] == [0, 1, 2, 3]
        for entry in payload["nodes"]:
            assert len(entry["alpha"]) == len(entry["neighbors"])
            assert len(entry["h_out"]) == 3

    def test_isolated_node_outputs_bias(self, tmp_path, ci):
        graph_path = tmp_path / "graph.json"
        params_path = tmp_path / "params.json"
        graph_path.write_text(json.dumps(TWO_NODES))
        params_path.write_text(json.dumps({
            "D": 1, "H": 1, "negative_slope": 0.2,
            "theta_R": [[0.1, 0.2]], "theta_L": [[0.3, 0.4]],
            "a": [1.0], "b": [2.5],
        }))
        code, payload = ci.cli("forward", "--graph", graph_path, "--params", params_path, "--node", 1)
        assert code == 0
        assert payload["nodes"][0]["h_out"] == [2.5]
        assert payload["nodes"][0]["alpha"] == []

    def test_node_report_is_its_all_nodes_record(self, ci):
        """forward --node i and diagnose --node i write record i of
        --all-nodes, for every node of a graph where nodes 0 and 1 are
        isolated, node 2's only edge is a self-loop and node 3 has one
        neighbor; forward's alpha and h_out are forward_with_trace's, bit for
        bit."""
        graph_path, params_path = ci.files("iso3")
        (graph, features), params = load_graph(graph_path), load_params(params_path)
        reports = {}
        for verb in ("forward", "diagnose"):
            code, report = ci.cli(verb, *ci.io("iso3"), "--all-nodes")
            assert code == 0
            reports[verb] = report["nodes"]
            for node in range(6):
                code, report = ci.cli(verb, *ci.io("iso3"), "--node", node)
                assert code == 0 and report["nodes"] == [reports[verb][node]], (verb, node)
        records = reports["forward"]
        assert [len(record["alpha"]) for record in records] == [0, 0, 1, 1, 3, 2]
        for node, record in enumerate(records):
            trace = forward_with_trace(params, graph, features, node)
            for key in ("alpha", "h_out"):
                got, want = np.array(record[key], dtype=np.float64), getattr(trace, key)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), key

    def test_repeated_runs_byte_identical(self, ci):
        outs = []
        for _ in range(2):
            ci.cli("forward", *ci.io("four"), "--all-nodes")
            outs.append((ci.last / "out.json").read_bytes())
        assert outs[0] == outs[1]


class TestGradcheck:
    def test_uniform_upstream_passes(self, ci):
        code, payload = ci.run("gradcheck", "four", "uniform", "--all-nodes")
        assert code == 0
        assert payload["pass"] is True
        for entry in payload["nodes"]:
            assert entry["pass"] is True
            assert entry["upstream"] == [1.0, 1.0, 1.0]
            assert "closed_form" in entry
            assert entry["closed_form_gap"] <= 1e-10

    def test_random_upstream_passes(self, ci):
        flags = ("--all-nodes", "--upstream", "random", "--seed", 99)
        code, payload = ci.cli("gradcheck", *ci.io("four"), *flags)
        assert code == 0
        upstreams = [entry["upstream"] for entry in payload["nodes"]]
        assert upstreams[0] != upstreams[1]
        rng = np.random.default_rng(99)
        assert upstreams[0] == rng.standard_normal(3).tolist()
        for entry in payload["nodes"]:
            assert "closed_form" not in entry

    def test_single_node_report_is_flat(self, ci):
        code, payload = ci.run("gradcheck", "four", "uniform", "--node", "0")
        assert code == 0
        for key in ("theta_R", "theta_L", "a", "b", "step", "tolerance", "pass"):
            assert key in payload
        assert payload["gradients"]["meta"]["target_node"] == 0

    @pytest.mark.parametrize("upstream", ["uniform", "random"])
    def test_report_key_order(self, ci, upstream):
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
        code, payload = ci.cli("gradcheck", *ci.io("four"), "--all-nodes", *flags)
        assert code == 0
        assert list(payload) == ["nodes", "step", "tolerance", "seed", "pass"]
        code, flat = ci.cli("gradcheck", *ci.io("four"), "--node", 0, *flags)
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

    @pytest.mark.parametrize("name", ["zero", "linear", "wide"])
    def test_no_entry_flagged_and_every_node_passes(self, monkeypatch, ci, name):
        """All-zero theta blocks put every pre-activation exactly at the kink.
        The complex step leaves every branch where the real pass put it, so
        nothing is flagged and every node passes at 1e-12 under both
        upstreams. At negative_slope 1 LeakyReLU is the identity on both
        sides of the kink, and the same holds. So it does on the wide graph
        (H = 40, degrees up to 149) at the default --tol; its 1e-12 check is
        test_wide_graph_false_reject_at_1e_12. At and without the kink, a
        1e-3 defect in one theta_L entry fails every node."""
        tol = () if name == "wide" else ("--tol", "1e-12")
        for mode in ("uniform", "random"):
            code, payload = ci.run("gradcheck", name, mode, "--all-nodes", *tol)
            assert code == 0 and payload["pass"] is True
            for entry in payload["nodes"]:
                assert entry["pass"] is True
                checks = [entry[key] for key in ("theta_R", "theta_L", "a", "b")]
                for check in checks + list(entry.get("closed_form", {}).values()):
                    assert check["pass"] is True and check["kink_flagged"] == []
        if name == "wide":
            return
        inject_theta_l_defect(monkeypatch, (1, 2))
        code, payload = ci.cli("gradcheck", *ci.io(name), "--all-nodes", *tol)
        assert code == 1
        for entry in payload["nodes"]:
            assert entry["theta_L"]["worst_entry"] == [1, 2], entry["node"]

    @pytest.mark.parametrize("flags", [(), ("--upstream", "random", "--seed", "7")])
    def test_one_evaluation_per_node(self, monkeypatch, ci, flags):
        """--all-nodes evaluates each of k nodes once: k forward passes, k
        backward chains and k calls of each closed form, under either
        upstream, and the oracle runs no forward pass of its own. Each name
        is counted in every module that calls it."""
        io = ci.io("twelve")
        calls = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (gatgrad.cli, fdcheck, layer):
            count(module, "forward_with_trace")
        for module in (gatgrad.cli, diagnostics, grads):
            count(module, "grad_theta_r_sum")
            count(module, "grad_theta_l")
        count(grads, "_segment_chain")
        oracle = gatgrad.cli.fd_gradient

        def forward_free(*args):
            before = calls["forward_with_trace"]
            numeric = oracle(*args)
            assert calls["forward_with_trace"] == before, "the oracle ran a forward pass"
            return numeric

        monkeypatch.setattr(gatgrad.cli, "fd_gradient", forward_free)
        code, payload = ci.cli("gradcheck", *io, "--all-nodes", *flags)
        assert code == 0 and len(payload["nodes"]) == 12
        assert calls == {name: 12 for name in (
            "forward_with_trace", "_segment_chain", "grad_theta_r_sum", "grad_theta_l"
        )}

    def test_one_stack_per_chunk_per_window(self, monkeypatch, ci):
        """--all-nodes on 12 nodes of degree at most 11 at H = D = 16: each
        node takes 120 copies a core call, so 8 calls (three chunks of each
        272-entry theta block, one of a, one of b), 96 in all. The 12 nodes
        share one window, so the oracle builds those 8 complex stacks once
        for all of them, where one oracle call per node built 96."""
        io = ci.io("small3")
        stacks = []  # every stack stays alive, so no two share an id
        propagate = fdcheck._propagate

        def core(*args):
            stacks.extend(block for block in args[:4] if block.dtype == complex)
            return propagate(*args)

        monkeypatch.setattr(fdcheck, "_propagate", core)
        assert ci.cli("gradcheck", *io, "--all-nodes")[0] == 0
        assert len(stacks) == 96
        assert len({id(stack) for stack in stacks}) == 8

    @pytest.mark.parametrize("budget", [7, 13, 40])
    def test_windows_follow_the_edge_budget(self, monkeypatch, ci, budget):
        """--all-nodes hands the oracle the nodes in id order, in windows of
        at most EDGE_BUDGET edges and nodes, a node counting max(degree, 1),
        each window as long as that allows, so a node of higher degree goes
        alone. Node 1 is isolated, and nodes 2 and 11, of degree 8 and 10,
        exceed a budget of 7. The report is the same, byte for byte, at any
        budget."""
        flags = ["gradcheck", *ci.io("sparse"), "--all-nodes", "--upstream", "random", "--seed", "7"]
        assert ci.cli(*flags)[0] == 0
        want = (ci.last / "out.json").read_bytes()
        windows = []
        oracle = gatgrad.cli.fd_gradient

        def record(traces, params, upstreams):
            windows.append([max(trace.num_neighbors, 1) for trace in traces])
            return oracle(traces, params, upstreams)

        monkeypatch.setattr(gatgrad.cli, "fd_gradient", record)
        monkeypatch.setattr(layer, "EDGE_BUDGET", budget)
        assert ci.cli(*flags)[0] == 0
        assert (ci.last / "out.json").read_bytes() == want
        graph, _ = load_graph(ci.files("sparse")[0])
        assert sum(windows, []) == np.maximum(np.diff(graph.offsets), 1).tolist()
        for window, after in zip(windows, windows[1:] + [[budget]]):
            assert sum(window) <= budget or len(window) == 1, window
            assert sum(window) + after[0] > budget, (window, after)

    def test_gap_compares_the_reported_gradients(self, monkeypatch, ci):
        """closed_form_gap is taken between the report's own closed-form and
        chain gradients: a 1e-3 defect in one theta_L entry of the chain
        lifts every node's gap above a rounding residue."""
        code, payload = ci.run("gradcheck", "four", "uniform", "--all-nodes")
        assert code == 0
        assert all(entry["closed_form_gap"] <= 1e-10 for entry in payload["nodes"])
        inject_theta_l_defect(monkeypatch, (1, 2))
        code, payload = ci.cli("gradcheck", *ci.io("four"), "--all-nodes")
        assert code == 1
        for entry in payload["nodes"]:
            assert entry["closed_form_gap"] > 1e-10, entry["node"]

    @pytest.mark.parametrize(
        "name, mode, nodes",
        [("small", "random", range(12)), ("wide", "uniform", (0, 2)), ("wide", "random", (0, 2))],
        ids=["small-random", "wide-uniform", "wide-random"],
    )
    def test_node_report_is_its_all_nodes_entry(self, ci, name, mode, nodes):
        """gradcheck --node i writes node i's --all-nodes entry: under a random
        upstream node i's upstream is row i of one draw. On the wide graph,
        --all-nodes hands the oracle windows of nodes, where node 0 (degree 9,
        49-copy chunks) and node 2 (degree 140, 14-copy chunks) share a window
        of several chunk sizes; --node runs each alone."""
        tol = () if name == "wide" else ("--tol", "1e-12")
        code, payload = ci.run("gradcheck", name, mode, "--all-nodes", *tol)
        assert code == 0
        entries = payload["nodes"]
        if mode == "random":
            width = len(entries[0]["upstream"])
            rows = np.random.default_rng(7).standard_normal((len(entries), width))
            assert [entry["upstream"] for entry in entries] == rows.tolist()
        for node in nodes:
            assert ci.run("gradcheck", name, mode, "--node", str(node), *tol) == (0, entries[node])
        if name == "wide":
            degrees = [entries[node]["num_neighbors"] for node in nodes]
            assert min(degrees) < 41 < max(degrees), "degrees straddle H + 1"

    @pytest.mark.parametrize("mode", ["uniform", "random"])
    def test_wide_graph_false_reject_at_1e_12(self, ci, mode):
        """ROADMAP item 9, open: at --tol 1e-12 the wide graph (H = 40) fails,
        though its gradient is right. The chain and the oracle each round off
        a[0] in opposite directions, beyond the oracle's resolution, which
        does not grow with H. Every failing entry is in block a, and lies
        within 2x resolution of the oracle (measured: 1.10x at node 125 under
        uniform, 1.70x and 1.30x at nodes 113 and 125 under random; the node
        ids are not asserted, as BLAS rounding may move them). Once item 9 is
        mended this run exits 0."""
        code, payload = ci.run("gradcheck", "wide", mode, "--all-nodes", "--tol", "1e-12")
        assert code == 1
        graph_path, params_path = ci.files("wide")
        (graph, features), params = load_graph(graph_path), load_params(params_path)
        failing = [entry for entry in payload["nodes"] if not entry["pass"]]
        for entry in failing:
            assert [key for key in layer.BLOCKS if not entry[key]["pass"]] == ["a"]
            assert all(check["pass"] for check in entry.get("closed_form", {}).values())
            trace = forward_with_trace(params, graph, features, entry["node"])
            numeric = fdcheck.fd_gradient(trace, params, np.array(entry["upstream"]))
            assert numeric.resolution == entry["resolution"]
            chain, oracle = np.array(entry["gradients"]["a"]), numeric.grads.att
            gap = np.abs(chain - oracle)
            fails = (fdcheck._relative_error(chain, oracle) > 1e-12) & (gap > numeric.resolution)
            assert fails.any() and np.all(gap[fails] <= 2 * numeric.resolution), entry["node"]

    def test_unattainable_tolerance_fails_naming_worst_entry(self, monkeypatch, ci):
        io = ci.io("four")
        inject_theta_l_defect(monkeypatch, (1, 2))
        code, payload = ci.cli("gradcheck", *io, "--node", 0)
        assert code == 1
        assert payload["pass"] is False
        failing = [k for k in ("theta_R", "theta_L", "a", "b")
                   if not payload[k]["pass"]]
        assert failing == ["theta_L"]
        assert payload["theta_L"]["worst_entry"] == [1, 2]

    def test_isolated_node_all_attention_gradients_zero(self, tmp_path, ci):
        graph_path = tmp_path / "graph.json"
        params_path = tmp_path / "params.json"
        graph_path.write_text(json.dumps(TWO_NODES))
        params_path.write_text(json.dumps({
            "D": 2, "H": 1, "negative_slope": 0.2,
            "theta_R": [[0.1, 0.2], [0.3, -0.1]],
            "theta_L": [[0.3, 0.4], [-0.2, 0.6]],
            "a": [1.0, -0.5], "b": [2.5, -1.0],
        }))
        code, payload = ci.cli("gradcheck", "--graph", graph_path, "--params", params_path, "--node", 1)
        assert code == 0
        grads = payload["gradients"]
        assert np.all(np.asarray(grads["theta_R"]) == 0.0)
        assert np.all(np.asarray(grads["theta_L"]) == 0.0)
        assert np.all(np.asarray(grads["a"]) == 0.0)
        assert grads["b"] == [1.0, 1.0]

    @pytest.mark.parametrize(
        "width, mode",
        [(3, "uniform"), (3, "random"), (16, "uniform"), (16, "random")],
        ids=["uniform", "random", "h16-uniform", "h16-random"],
    )
    def test_isolated_self_loop_and_single_neighbor_pass_at_1e_12(self, ci, width, mode):
        """Nodes 0 and 1 are isolated, node 2's only edge is a self-loop and node 3
        has one neighbor; beside two ordinary nodes, all pass at tolerance 1e-12,
        at H = 3 and, against the 12-node params, at H = 16."""
        name = "iso3" if width == 3 else "iso"
        code, payload = ci.run("gradcheck", name, mode, "--all-nodes", "--tol", "1e-12")
        assert code == 0
        assert [e["num_neighbors"] for e in payload["nodes"]] == [0, 0, 1, 1, 3, 2]

    def test_upstream_from_file(self, tmp_path, ci):
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1.0, -2.0, 0.5]")
        code, payload = ci.cli("gradcheck", *ci.io("four"), "--node", 0, "--upstream", f"file:{vec_path}")
        assert code == 0
        assert payload["upstream"] == [1.0, -2.0, 0.5]
        assert payload["upstream_mode"] == "file"

    def test_upstream_file_read_once_for_all_nodes(self, tmp_path, monkeypatch, ci):
        io = ci.io("four")
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1.0, -2.0, 0.5]")
        opened = []

        def counting_open(path, mode="r", *args, **kwargs):
            if "r" in mode:  # the reports are written through the same module
                opened.append(path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(gatgrad.graph, "open", counting_open, raising=False)
        code, payload = ci.cli("gradcheck", *io, "--all-nodes", "--upstream", f"file:{vec_path}")
        assert code == 0
        assert opened == [io[1], io[3], str(vec_path)]
        assert len(payload["nodes"]) > 1
        for entry in payload["nodes"]:
            assert entry["upstream"] == [1.0, -2.0, 0.5]
            assert entry["upstream_mode"] == "file"

    def test_wrong_length_upstream_file(self, tmp_path, ci):
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1.0]")
        flags = ("--node", 0, "--upstream", f"file:{vec_path}")
        assert ci.cli("gradcheck", *ci.io("four"), *flags) == (2, None)

    def test_non_number_upstream_file(self, tmp_path, ci, capsys):
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text('["1", true, 2]')
        flags = ("--node", 0, "--upstream", f"file:{vec_path}")
        assert ci.cli("gradcheck", *ci.io("four"), *flags) == (2, None)
        assert str(vec_path) in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["gradcheck", "diagnose"])
    def test_non_finite_upstream_file(self, tmp_path, ci, capsys, verb):
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text("[1, Infinity, 2]")
        assert ci.cli(verb, *ci.io("four"), "--node", 0, "--upstream", f"file:{vec_path}") == (2, None)
        err = capsys.readouterr().err
        assert str(vec_path) in err and "index 1" in err

    @pytest.mark.parametrize("verb, flags, message", [
        ("gradcheck", ("--all-nodes",), "non-finite loss at a perturbed point"),
        ("diagnose", (), "non-finite closed_form_gap at node 0"),
        ("diagnose", ("--node", 3), "non-finite closed_form_gap at node 3"),
        ("gradcheck", ("--all-nodes", "big_theta_l"), "non-finite theta_L gradient at node 0"),
        ("diagnose", ("big_theta_l",), "non-finite closed_form_gap at node 0"),
        ("gradcheck", ("--node", 0, "big_att"), "non-finite closed_form_gap at node 0"),
        ("diagnose", ("big_att",), "non-finite closed_form_gap at node 0"),
        ("forward", ("big_scores",), "non-finite attention score"),
        ("gradcheck", ("--all-nodes", "big_scores"), "non-finite attention score"),
        ("diagnose", ("big_scores",), "non-finite attention score"),
    ])
    def test_overflowing_upstream_file(self, tmp_path, ci, capsys, verb, flags, message):
        """A finite input whose products overflow exits 2 with one error line,
        no numpy warning and no report. On the readme instance, the upstream
        [1e308, -1e308, 1e308, 1] overflows the oracle's loss and each node's
        gap, and diagnose names the first such node. A last flag names an
        OVERFLOWING input instead: gradcheck names the block and the node of
        a gradient beyond the float range, both verbs the node of a gap that
        is not finite, and every verb rejects big_scores' scores with the same
        line, forward too."""
        *flags, name = flags if flags[-1:] and flags[-1] in OVERFLOWING else (*flags, "readme")
        io, upstream = ci.io(name), [1e308, -1e308, 1e308, 1]
        if name != "readme":
            graph, params, upstream = OVERFLOWING[name]
            io = ["--graph", tmp_path / "graph.json", "--params", tmp_path / "params.json"]
            io[1].write_text(json.dumps(graph))
            io[3].write_text(json.dumps(params))
        vec_path = tmp_path / "upstream.json"
        vec_path.write_text(json.dumps(upstream))
        if verb != "forward":
            flags += ["--upstream", f"file:{vec_path}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = ci.cli(verb, *io, *flags)
        one_error_line(ci, capsys, code, message)

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
    def test_non_finite_tolerance_is_exit_2(self, ci, capsys, tol):
        """A tolerance that is not positive and finite is a usage error naming --tol."""
        with pytest.raises(SystemExit) as err:
            ci.cli("gradcheck", *ci.io("four"), "--node", 0, "--tol", tol)
        assert err.value.code == 2 and not any(ci.last.iterdir())
        want = f"argument --tol: expected a positive finite number, got {tol!r}"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("case", [*TEXT_EDITS, "missing_key", "wrong_value"])
    @pytest.mark.parametrize("kind", ["graph", "params", "upstream"])
    def test_malformed_file_is_exit_2_naming_the_file(self, tmp_path, ci, capsys, kind, case):
        """A broken input file is an input error, never a failed check (exit 1)."""
        graph_path, params_path = ci.files("four")
        files = {"graph": graph_path, "params": params_path, "upstream": tmp_path / "up.json"}
        files["upstream"].write_text("[1.0, -2.0, 0.5]")
        good = files[kind].read_text()
        files[kind] = tmp_path / f"bad_{kind}.json"
        if case in TEXT_EDITS:
            files[kind].write_bytes(TEXT_EDITS[case](good))
        else:
            files[kind].write_text(json.dumps(JSON_EDITS[kind, case](json.loads(good))))
        flags = ("--all-nodes", "--upstream", f"file:{files['upstream']}")
        assert ci.cli("gradcheck", "--graph", files["graph"], "--params", files["params"],
                      *flags) == (2, None)
        assert f"error: malformed {kind} file {files[kind]}: " in capsys.readouterr().err

    def test_malformed_input_is_exit_2(self, tmp_path, ci):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert ci.cli("gradcheck", "--graph", bad, "--params", bad, "--node", 0) == (2, None)

    def test_repeated_runs_byte_identical(self, ci):
        blobs = []
        for _ in range(2):
            ci.cli("gradcheck", *ci.io("four"), "--all-nodes", "--upstream", "random", "--seed", 5)
            blobs.append((ci.last / "out.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_exit_status_matches_report_pass(self, monkeypatch, ci):
        code, payload = ci.run("gradcheck", "four", "uniform", "--all-nodes")
        assert code == 0 and payload["pass"] is True
        inject_theta_l_defect(monkeypatch, (0, 0))
        code, payload = ci.cli("gradcheck", *ci.io("four"), "--all-nodes")
        assert code == 1 and payload["pass"] is False

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_instance_passes_at_default_and_tight_tolerance(self, ci, seed):
        for tol in ("1e-6", "1e-12"):
            for mode in ("uniform", "random"):
                name = ("small", "small1", "small2")[seed]
                code, payload = ci.run("gradcheck", name, mode, "--all-nodes", "--tol", tol)
                assert code == 0, [e["node"] for e in payload["nodes"] if not e["pass"]]


class TestDiagnoseCommand:
    def test_default_selects_connected_nodes(self, ci):
        code, payload = ci.run("diagnose", "four", "uniform")
        assert code == 0
        assert payload["upstream_mode"] == "uniform"
        for entry in payload["nodes"]:
            assert entry["num_neighbors"] >= 1
            assert entry["closed_form_gap"] <= 1e-10

    @pytest.mark.parametrize(
        "seed, upstream",
        [
            *((seed, upstream) for upstream in ("uniform", "file", "random") for seed in range(3)),
            ("iso", "uniform"),
            ("iso", "random"),
            ("hub", "uniform"),
            ("hub", "file"),
            ("hub", "random"),
            ("wide", "uniform"),
        ],
    )
    def test_gaps_equal_gradcheck_gaps(self, tmp_path, ci, seed, upstream):
        """Under one upstream, gradcheck --all-nodes and diagnose --all-nodes
        give every node the same closed_form_gap, bit for bit: gradcheck takes
        it from the node alone, diagnose from the node's block of the
        whole-graph pass. Under the uniform upstream the gaps are rounding
        residues; under a non-constant file: upstream or random --seed 7,
        where both give node i row i of one draw, the closed forms drift from
        the chain, and the gaps are far above them. diagnose writes row 0 as
        its upstream, and the seed under random.
        A seed is small's instance at that seed, under a file of its own
        draw; a named instance is a graph with isolated nodes, one of degrees
        20 and more, or one of width 40. Its gradcheck passes at 1e-12, or on
        the wide graph at the default --tol (ROADMAP item 9)."""
        if isinstance(seed, str):
            tol = () if seed == "wide" else ("--tol", "1e-12")
            runs = [ci.run("gradcheck", seed, upstream, "--all-nodes", *tol),
                    ci.run("diagnose", seed, upstream, "--all-nodes")]
        else:
            if upstream == "file":
                path = tmp_path / "upstream.json"
                path.write_text(json.dumps(np.random.default_rng(seed).standard_normal(16).tolist()))
                upstream = f"file:{path}"
            flags = ["--all-nodes", "--upstream", upstream, *(["--seed", "7"] if upstream == "random" else [])]
            io = ci.io(("small", "small1", "small2")[seed])
            runs = [ci.cli(verb, *io, *flags) for verb in ("gradcheck", "diagnose")]
        assert [code for code, _ in runs] == [0, 0]
        reports = [report for _, report in runs]
        gaps = [[e["closed_form_gap"] for e in report["nodes"]] for report in reports]
        assert reports[1]["upstream"] == reports[0]["nodes"][0]["upstream"]
        if upstream == "random":
            rows = np.random.default_rng(7).standard_normal((len(gaps[0]), 16))
            assert [e["upstream"] for e in reports[0]["nodes"]] == rows.tolist()
        assert reports[1].get("seed") == (7 if upstream == "random" else None)
        assert gaps[0] == gaps[1]
        if upstream == "uniform":
            assert max(gaps[0]) <= 1e-12
        else:  # a node of at most one neighbor has no attention path to drift: its gap is 0
            degrees = [e["num_neighbors"] for e in reports[0]["nodes"]]
            assert min(gap for gap, n in zip(gaps[0], degrees) if n > 1) >= 1e-6

    def test_all_positive_instance_reports_dead_rows(self, tmp_path, ci):
        g, feats, params = generate_instance(4, 2, 2, seed=5)
        th = params.theta_r.copy()
        th[:, 0] = 60.0
        params = LayerParams(th, params.theta_l, params.att, params.bias, 0.2)
        graph_path, params_path = tmp_path / "g.json", tmp_path / "p.json"
        save_graph(graph_path, g, feats)
        save_params(params_path, params)
        code, payload = ci.cli("diagnose", "--graph", graph_path, "--params", params_path, "--all-nodes")
        assert code == 0
        assert all(all(e["dead_theta_r"]) for e in payload["nodes"])

    def test_underflowed_attention_weight_gives_strict_json(self, tmp_path, ci):
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
        code, payload = ci.cli("diagnose", "--graph", graph_path, "--params", params_path)
        assert code == 0 and payload["nodes"][0]["attention_entropy"] == 0.0  # parsed strictly

    def test_random_upstream_recorded(self, ci):
        code, payload = ci.cli("diagnose", *ci.io("four"), "--upstream", "random", "--seed", 3)
        assert code == 0
        assert payload["upstream"] == np.random.default_rng(3).standard_normal(3).tolist()


class TestExtremeScales:
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_strict_json_report_or_one_error_line(self, tmp_path_factory, ci, capsys, data):
        """Features, parameter blocks and the upstream each take a scale up to
        1e300, on a graph of up to 4 nodes, self-loops and isolated nodes
        included. Every verb then exits 0 with a strict-JSON report (gradcheck
        1 too, a failed check), or 2 with one error line and no report, and
        never lets a numpy warning through."""
        n, h, d = (data.draw(st.integers(1, top), label=key) for key, top in zip("nhd", (4, 2, 2)))
        scale = {part: 10.0 ** data.draw(st.integers(0, 300), label=part)
                 for part in ("features", "theta_R", "theta_L", "a", "b", "upstream")}
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        draw = lambda part, *shape: (rng.standard_normal(shape) * scale[part]).tolist()
        directory = tmp_path_factory.mktemp("scales")
        files = {
            "graph": {"num_nodes": n, "feature_dim": h, "features": draw("features", n, h),
                      "edges": np.argwhere(rng.random((n, n)) < 0.6).tolist()},
            "params": {"D": d, "H": h, "negative_slope": 0.2, "a": draw("a", d), "b": draw("b", d),
                       **{key: draw(key, d, h + 1) for key in ("theta_R", "theta_L")}},
            "upstream": draw("upstream", d),
        }
        for name, content in files.items():
            (directory / f"{name}.json").write_text(json.dumps(content))
        io = ["--graph", directory / "graph.json", "--params", directory / "params.json"]
        upstream = data.draw(st.sampled_from([["--upstream", f"file:{directory / 'upstream.json'}"],
                                              []]), label="upstream file or uniform")
        for verb, flags in (("forward", []), ("gradcheck", upstream), ("diagnose", upstream)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, report = ci.cli(verb, *io, "--all-nodes", *flags)
            if code == 2:
                one_error_line(ci, capsys, (code, report))
            else:  # the report parsed as strict JSON
                assert code in ((0, 1) if verb == "gradcheck" else (0,)) and report is not None
                assert capsys.readouterr().err == ""


class TestUsage:
    @pytest.mark.parametrize(
        "verb, flags, message",
        [
            ("gradcheck", ["--node", "4"], "node 4 out of range for 4 nodes"),
            ("diagnose", ["--node", "-1"], "node -1 out of range for 4 nodes"),
            ("forward", ["--node", "9"], "node 9 out of range for 4 nodes"),
        ],
    )
    def test_bad_node_or_upstream_mode_exits_2(self, ci, capsys, verb, flags, message):
        assert ci.cli(verb, *ci.io("four"), *flags) == (2, None)
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
        self, tmp_path, ci, capsys, verb, upstream, graph
    ):
        """A bad --upstream value is rejected by the parser, naming the flag,
        before any file is read: even a missing --graph is not reported."""
        graph_path, params_path = ci.files("four")
        graphs = {"graph": graph_path, "missing": tmp_path / "missing.json"}
        with pytest.raises(SystemExit) as err:
            ci.cli(verb, "--graph", graphs[graph], "--params", params_path,
                   "--all-nodes", "--upstream", upstream)
        assert err.value.code == 2 and not any(ci.last.iterdir())
        want = f"argument --upstream: expected uniform, random or file:PATH, got {upstream!r}"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["diagnose", "gradcheck"])
    def test_negative_seed_is_usage_error_naming_the_flag(self, ci, capsys, verb):
        with pytest.raises(SystemExit) as err:
            ci.cli(verb, *ci.io("four"), "--all-nodes", "--upstream", "random", "--seed", "-3")
        assert err.value.code == 2 and not any(ci.last.iterdir())
        assert "argument --seed: expected a non-negative integer, got '-3'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, unrecognized",
        [
            (["gen", "--nodes", "3", "--feature-dim", "1", "--out-dim", "1", "--out", "r.json"],
             "--out"),
            (["forward", "--all"], "--all"),
        ],
        ids=["gen-out", "forward-all"],
    )
    def test_abbreviated_option_is_unrecognized(self, ci, capsys, flags, unrecognized):
        """No option is read from a prefix: gen's --out is not --out-dim, and
        forward's --all is not --all-nodes. (gen writes to ci.cli's
        --graph and --params, the last occurrence of each.)"""
        with pytest.raises(SystemExit) as err:
            ci.cli(*flags, *ci.io("four"))
        assert err.value.code == 2 and not any(ci.last.iterdir())
        assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, ci):
        with pytest.raises(SystemExit) as err:
            ci.cli("frobnicate")
        assert err.value.code == 2

    def test_second_call_builds_no_parser(self, monkeypatch, ci):
        """main parses with the one parser built at import, so a second call
        constructs no argparse.ArgumentParser."""
        assert ci.cli("forward", *ci.io("four"))[0] == 0
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
        assert ci.cli("forward", *ci.io("four"))[0] == 0
        assert built == []

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
    def test_width_mismatch_exits_2_naming_both_files(self, ci, capsys, verb):
        graph_path, params_path = ci.files("narrow")[0], ci.files("five")[1]
        assert ci.cli(verb, "--graph", graph_path, "--params", params_path, "--all-nodes") == (2, None)
        err = capsys.readouterr().err
        assert f"graph file {graph_path} has feature_dim 2" in err
        assert f"params file {params_path} has H 3" in err

    def test_non_finite_theta_l_exits_2_naming_key_and_index(self, tmp_path, ci, capsys):
        graph_path, params_path = ci.files("four")
        raw = json.loads(params_path.read_text())
        raw["theta_L"][1][2] = float("inf")
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(raw))
        assert ci.cli("forward", "--graph", graph_path, "--params", params_path) == (2, None)
        assert "non-finite theta_L entry at index (1, 2)" in capsys.readouterr().err

    def test_node_and_all_nodes_conflict(self, ci):
        with pytest.raises(SystemExit) as err:
            ci.cli("gradcheck", *ci.io("four"), "--node", 0, "--all-nodes")
        assert err.value.code == 2

    def test_gradcheck_requires_node_selection(self, ci):
        with pytest.raises(SystemExit) as err:
            ci.cli("gradcheck", *ci.io("four"))
        assert err.value.code == 2


@pytest.fixture
def collector(request):
    """The collector's state before the call, set by the parameter; turned back on after."""
    (gc.enable if request.param else gc.disable)()
    yield request.param
    gc.enable()


class TestCollector:
    """A verb runs with the cyclic collector paused and leaves it as its caller had it."""

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_state_kept_on_exit_0_1_and_2(self, tmp_path, monkeypatch, ci, collector):
        graph_path, params_path = ci.files("four")
        run = ["gradcheck", "--params", params_path, "--node", 0]
        assert ci.cli(*run, "--graph", graph_path)[0] == 0
        assert gc.isenabled() is collector
        assert ci.cli(*run, "--graph", tmp_path / "missing.json")[0] == 2
        assert gc.isenabled() is collector

        def failing(*args, **kwargs):
            checks = fdcheck.compare_gradients(*args, **kwargs)
            key = next(iter(checks))
            return {**checks, key: {**checks[key], "pass": False}}

        monkeypatch.setattr(gatgrad.cli, "compare_gradients", failing)
        assert ci.cli(*run, "--graph", graph_path)[0] == 1
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_state_kept_when_a_verb_raises(self, monkeypatch, ci, collector):
        io = ci.io("four")

        def broken(args):
            load_graph(args.graph)  # a nested pause leaves the verb's pause in place
            assert not gc.isenabled()
            raise RuntimeError("broken verb")

        monkeypatch.setattr(gatgrad.cli, "cmd_forward", broken)
        with pytest.raises(RuntimeError, match="broken verb"):
            ci.cli("forward", *io)
        assert gc.isenabled() is collector

    def test_cyclic_garbage_does_not_grow_with_the_graph(self, tmp_path, ci):
        """Paused, a verb must not leave a reference cycle per node."""
        paths = []
        for nodes in (12, 150):
            graph, features, params = generate_instance(nodes, 3, 2, seed=0)
            paths.append((tmp_path / f"g{nodes}.json", tmp_path / f"p{nodes}.json"))
            save_graph(paths[-1][0], graph, features)
            save_params(paths[-1][1], params)
        gc.disable()
        try:
            counts = collections.defaultdict(list)
            for verb in ("forward", "diagnose", "gradcheck"):
                for graph_path, params_path in paths:
                    gc.collect()
                    code, _ = ci.cli(verb, "--graph", graph_path, "--params", params_path, "--all-nodes")
                    assert code == 0
                    counts[verb].append(gc.collect())
        finally:
            gc.enable()
        assert all(small == large for small, large in counts.values()), dict(counts)
