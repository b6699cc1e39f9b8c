"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them live).
The shared instance set is 20 seeded random graphs spanning n in [3, 8],
H in [1, 4], D in [1, 4], with negative slope 0.2.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from gatgrad import (
    FdConfig,
    Graph,
    GradientSet,
    LayerParams,
    backward_chain,
    compare_gradients,
    fd_gradient,
    forward_with_trace,
    generate_instance,
    grad_att,
    grad_bias,
    grad_theta_l,
    grad_theta_r_pairwise,
    grad_theta_r_sum,
    leaky_relu_slopes,
    neighbor_softmax,
    relative_error,
    softmax_jacobian,
)
from gatgrad.cli import main


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {label}")
        raise
    print(f"[acceptance] criterion {number} PASS: {label}")


@pytest.fixture(scope="module")
def instances():
    """20 deterministic instances: (graph, features, params, out_dim)."""
    out = []
    for k in range(20):
        n, h, d = 3 + k % 6, 1 + k % 4, 1 + (k // 2) % 4
        graph, feats, params = generate_instance(n, h, d, seed=k)
        out.append((graph, feats, params, d))
    return out


def upstream_pairs(instances):
    """(trace, params, upstream) for both upstream modes over every node."""
    rng = np.random.default_rng(20260808)
    for graph, feats, params, d in instances:
        for node in range(graph.num_nodes):
            trace = forward_with_trace(params, graph, feats, node)
            yield trace, graph, feats, params, np.ones(d)
            yield trace, graph, feats, params, rng.standard_normal(d)


def test_criterion_1_oracle_agreement(instances):
    """Chain vs the complex-step oracle, 1e-12 relative, both upstream modes."""
    with criterion(1, "backward chain matches the complex-step oracle at 1e-12"):
        config = FdConfig(tolerance=1e-12)
        start = time.monotonic()
        checked = 0
        for trace, graph, feats, params, upstream in upstream_pairs(instances):
            chain = backward_chain(trace, params, upstream)
            numeric = fd_gradient(params, graph, feats, trace.node, upstream, config)
            report = compare_gradients(chain, numeric, config)
            assert report.passed, (
                trace.node,
                {k: c.max_rel_err for k, c in report.checks.items()},
            )
            checked += 1
        elapsed = time.monotonic() - start
        assert checked == 2 * sum(g.num_nodes for g, *_ in instances)
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_2_closed_form_fidelity(instances):
    """Closed forms vs chain under uniform upstream, 1e-10 relative."""
    with criterion(2, "closed forms match backward chain at 1e-10 (uniform upstream)"):
        for graph, feats, params, d in instances:
            upstream = np.ones(d)
            for node in range(graph.num_nodes):
                trace = forward_with_trace(params, graph, feats, node)
                chain = backward_chain(trace, params, upstream)
                pairs = (
                    (grad_theta_r_sum(trace, params, upstream), chain.theta_r),
                    (grad_theta_l(trace, params, upstream), chain.theta_l),
                    (grad_bias(upstream), chain.bias),
                )
                for closed, chained in pairs:
                    assert relative_error(closed, chained).max() <= 1e-10


def test_criterion_3_reformulation_identity(instances):
    """Pairwise and summation forms agree to 1e-12 relative everywhere."""
    with criterion(3, "pairwise form equals summation form at 1e-12"):
        rng = np.random.default_rng(31337)
        for graph, feats, params, d in instances:
            for node in range(graph.num_nodes):
                trace = forward_with_trace(params, graph, feats, node)
                for upstream in (np.ones(d), rng.standard_normal(d)):
                    s = grad_theta_r_sum(trace, params, upstream)
                    p = grad_theta_r_pairwise(trace, params, upstream)
                    assert relative_error(s, p).max() <= 1e-12


def test_criterion_4_annihilation_laws():
    """Exact zeros: N <= 1, and per-row uniform activation regimes."""
    with criterion(4, "annihilation laws hold exactly"):
        # (a) N = 0 and N = 1
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.5, -1.0], [2.0, 0.3]])
        params = LayerParams(
            np.arange(6.0).reshape(2, 3) / 3,
            -np.arange(6.0).reshape(2, 3) / 4,
            [0.7, -1.2],
            [0.1, 0.2],
        )
        upstream = np.array([1.3, -0.4])
        for node in (0, 1):
            trace = forward_with_trace(params, graph, feats, node)
            chain = backward_chain(trace, params, upstream)
            assert np.all(grad_theta_r_sum(trace, params, upstream) == 0.0)
            assert np.all(grad_theta_r_pairwise(trace, params, upstream) == 0.0)
            assert np.all(grad_att(trace, params, upstream) == 0.0)
            assert np.all(chain.theta_r == 0.0)
            assert np.all(chain.att == 0.0)
        # (b) per-row uniform regimes, forced via a large bias entry
        g2, feats2, params2 = generate_instance(5, 3, 3, seed=5)
        th = params2.theta_r.copy()
        th[0, 0] = 50.0
        params2 = LayerParams(th, params2.theta_l, params2.att, params2.bias, 0.2)
        upstream2 = np.random.default_rng(5).standard_normal(3)
        dead_rows = live_rows = 0
        for node in range(5):
            trace = forward_with_trace(params2, g2, feats2, node)
            slopes = leaky_relu_slopes(trace, 0.2)
            dead = np.all(slopes == slopes[0], axis=0)
            assert dead[0]
            mats = (
                grad_theta_r_sum(trace, params2, upstream2),
                grad_theta_r_pairwise(trace, params2, upstream2),
                backward_chain(trace, params2, upstream2).theta_r,
            )
            for t in range(3):
                if dead[t]:
                    dead_rows += 1
                    for mat in mats:
                        assert np.all(mat[t] == 0.0)
                else:
                    live_rows += 1
        assert dead_rows >= 5 and live_rows >= 1


def test_criterion_5_softmax_laws():
    """Normalization, shift invariance at offset 1e3, Jacobian structure."""
    with criterion(5, "softmax laws hold at 1e-12"):
        rng = np.random.default_rng(55)
        for _ in range(300):
            scores = rng.standard_normal(rng.integers(1, 9))
            alpha = neighbor_softmax(scores)
            assert abs(alpha.sum() - 1.0) <= 1e-12
            for offset in (1e3, -1e3):
                shifted = neighbor_softmax(scores + offset)
                assert np.abs(shifted - alpha).max() <= 1e-12
            jac = softmax_jacobian(alpha)
            assert np.array_equal(jac, jac.T)
            assert np.abs(jac.sum(axis=1)).max() <= 1e-12


def test_criterion_6_closed_forms_match_oracle(instances):
    """Closed forms vs the complex-step oracle, 1e-12 relative, uniform upstream."""
    with criterion(6, "closed forms match the complex-step oracle at 1e-12"):
        config = FdConfig(tolerance=1e-12)
        checked = 0
        for graph, feats, params, d in instances:
            upstream = np.ones(d)
            for node in range(graph.num_nodes):
                trace = forward_with_trace(params, graph, feats, node)
                numeric = fd_gradient(params, graph, feats, node, upstream, config)
                for theta_r in (grad_theta_r_sum, grad_theta_r_pairwise):
                    closed = GradientSet(
                        theta_r=theta_r(trace, params, upstream),
                        theta_l=grad_theta_l(trace, params, upstream),
                        att=numeric.grads.att,
                        bias=grad_bias(upstream),
                    )
                    report = compare_gradients(
                        closed, numeric, config, keys=("theta_R", "theta_L", "b")
                    )
                    assert report.passed, (
                        node,
                        theta_r.__name__,
                        {k: c.max_rel_err for k, c in report.checks.items()},
                    )
                    checked += 1
        assert checked == 2 * sum(g.num_nodes for g, *_ in instances)


def test_criterion_7_grad_b_identity(instances):
    """The bias gradient is the upstream gradient, bit for bit."""
    with criterion(7, "bias gradient equals upstream bit-for-bit"):
        rng = np.random.default_rng(4242)
        for graph, feats, params, d in instances[:8]:
            upstream = rng.standard_normal(d)
            assert grad_bias(upstream).tobytes() == upstream.tobytes()
            for node in range(graph.num_nodes):
                trace = forward_with_trace(params, graph, feats, node)
                chain = backward_chain(trace, params, upstream)
                assert chain.bias.tobytes() == upstream.tobytes()


def test_criterion_8_cli_determinism(tmp_path):
    """gen and gradcheck are byte-identical across reruns with one seed."""
    with criterion(8, "gen and gradcheck outputs are byte-identical per seed"):
        blobs = {"graph": [], "params": [], "report": []}
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            graph_path, params_path = d / "graph.json", d / "params.json"
            report_path = d / "report.json"
            assert main(
                ["gen", "--nodes", "5", "--feature-dim", "3", "--out-dim", "2",
                 "--seed", "11", "--graph", str(graph_path),
                 "--params", str(params_path)]
            ) == 0
            assert main(
                ["gradcheck", "--graph", str(graph_path), "--params",
                 str(params_path), "--all-nodes", "--upstream", "random",
                 "--seed", "11", "--out", str(report_path)]
            ) == 0
            blobs["graph"].append(graph_path.read_bytes())
            blobs["params"].append(params_path.read_bytes())
            blobs["report"].append(report_path.read_bytes())
        for name, pair in blobs.items():
            assert pair[0] == pair[1], f"{name} differs between runs"
        payload = json.loads(blobs["report"][0])
        assert payload["pass"] is True
