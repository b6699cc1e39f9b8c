"""Complex-step oracle: losses, derivatives, kink flags, comparisons."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatgrad import (
    Graph,
    GradientSet,
    LayerParams,
    backward_chain,
    compare_gradients,
    fd_gradient,
    forward_with_trace,
    generate_instance,
)
from gatgrad import layer
from gatgrad.fdcheck import COMPLEX_STEP, KINK_GUARD
from gatgrad.layer import _propagate


def per_entry_oracle(params, graph, features, node, upstream):
    """Reference: the complex step one entry at a time, one unbatched core call each."""
    trace = forward_with_trace(params, graph, features, node)
    blocks = [params.theta_r, params.theta_l, params.att, params.bias]
    grads = []
    for pos, block in enumerate(blocks):
        grad = np.empty(block.size)
        for idx in range(block.size):
            work = block.astype(complex)
            work.reshape(-1)[idx] += 1j * COMPLEX_STEP
            h_out = _propagate(
                *blocks[:pos], work, *blocks[pos + 1 :], params.negative_slope,
                trace.h_aug_target[None], trace.h_aug_sources, np.zeros(1, dtype=np.intp),
            )[-1][0]
            grad[idx] = (upstream @ h_out).imag / COMPLEX_STEP
        grads.append(grad.reshape(block.shape))
    return GradientSet(*grads)


@st.composite
def oracle_cases(draw):
    """(graph, features, params, node, upstream): the node is isolated, has a
    single neighbor (possibly itself), a random neighbor set with or without
    a self-loop, or every node as a neighbor. At H = D = 16 a theta block of
    272 entries spans three or more chunks at the default budget."""
    n = draw(st.integers(1, 24))
    h, d = draw(st.sampled_from([(1, 1), (2, 3), (3, 2), (16, 16)]))
    node = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["isolated", "single", "random", "self_loop", "every"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = [j for j in rng.permutation(n).tolist() if j != node]
    nbrs = {
        "isolated": [],
        "single": [int(rng.integers(n))],
        "random": others[: int(rng.integers(len(others) + 1))],
        "self_loop": [node, *others[: int(rng.integers(len(others) + 1))]],
        "every": rng.permutation(n).tolist(),
    }[shape]
    graph = Graph(n, tuple((node, j) for j in nbrs))
    params = LayerParams(
        rng.standard_normal((d, h + 1)), rng.standard_normal((d, h + 1)),
        rng.standard_normal(d), rng.standard_normal(d),
    )
    upstream = np.ones(d) if draw(st.booleans()) else rng.standard_normal(d)
    return graph, rng.standard_normal((n, h)), params, node, upstream


class TestBatchedOracle:
    """The batched oracle against the one-entry-per-call evaluation."""

    @settings(deadline=None, max_examples=60)
    @given(oracle_cases())
    def test_matches_per_entry_evaluation(self, case):
        """Every entry within 0.05 resolution and every verdict the same, at
        an edge budget of 1 (one copy per call), 7 and the default."""
        graph, feats, params, node, upstream = case
        want = per_entry_oracle(params, graph, feats, node, upstream)
        chain = backward_chain(forward_with_trace(params, graph, feats, node), params, upstream)
        for budget in (1, 7, layer.EDGE_BUDGET):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(layer, "EDGE_BUDGET", budget)
                got = fd_gradient(params, graph, feats, node, upstream)
            for key, block in got.grads.as_dict().items():
                err = np.abs(block - want.as_dict()[key]).max(initial=0.0)
                assert err <= 0.05 * got.resolution, (budget, key, err / got.resolution)
            reference = dataclasses.replace(got, grads=want)
            for tol in (1e-6, 1e-12):
                verdicts = [compare_gradients(chain, num, tol) for num in (got, reference)]
                assert verdicts[0].passed == verdicts[1].passed
                for key, check in verdicts[0].checks.items():
                    assert check.passed == verdicts[1].checks[key].passed, (budget, key)

    @pytest.mark.parametrize("budget", [None, 1000, 7])
    def test_theta_blocks_split_over_chunks(self, monkeypatch, budget):
        """A hub of 24 neighbors at H = D = 16 takes EDGE_BUDGET // (2 * 24)
        copies a call, the budget read when the oracle runs: 85 at the default,
        so each 272-entry theta block spans four chunks; one copy a call at 7."""
        if budget is not None:
            monkeypatch.setattr(layer, "EDGE_BUDGET", budget)
        rng = np.random.default_rng(5)
        graph = Graph(24, tuple((0, j) for j in range(24)))
        params = LayerParams(
            rng.standard_normal((16, 17)), rng.standard_normal((16, 17)),
            rng.standard_normal(16), rng.standard_normal(16),
        )
        feats, upstream = rng.standard_normal((24, 16)), rng.standard_normal(16)
        calls = []
        monkeypatch.setattr(
            "gatgrad.fdcheck._propagate", lambda *args: calls.append(args[0]) or _propagate(*args)
        )
        got = fd_gradient(params, graph, feats, 0, upstream)
        chunk = max(1, layer.EDGE_BUDGET // 48)
        sizes = [min(chunk, 272 - lo) for lo in range(0, 272, chunk)]
        assert [len(theta) for theta in calls[: len(sizes)]] == sizes
        assert budget is not None or sizes == [85, 85, 85, 17]
        want = per_entry_oracle(params, graph, feats, 0, upstream)
        for key, block in got.grads.as_dict().items():
            assert np.abs(block - want.as_dict()[key]).max() <= 0.05 * got.resolution, key

    @pytest.mark.parametrize("n_nbrs, h, d", [(1, 32, 32), (0, 16, 16), (40, 2, 3)])
    def test_chunk_arrays_within_whole_graph_bytes(self, monkeypatch, n_nbrs, h, d):
        """Each core call's complex stack and edge arrays fit in the bytes of one
        (EDGE_BUDGET, D) float64 array, also where H + 1 exceeds the degree."""
        rng = np.random.default_rng(3)
        graph = Graph(41, tuple((0, j) for j in range(1, n_nbrs + 1)))
        params = LayerParams(
            rng.standard_normal((d, h + 1)), rng.standard_normal((d, h + 1)),
            rng.standard_normal(d), rng.standard_normal(d),
        )
        calls = []
        monkeypatch.setattr(
            "gatgrad.fdcheck._propagate", lambda *args: calls.append(args) or _propagate(*args)
        )
        fd_gradient(params, graph, rng.standard_normal((41, h)), 0, np.ones(d))
        limit = layer.EDGE_BUDGET * d * 8
        for args in calls:
            copies = max(len(block) for block in args[:4] if block.dtype == complex)
            assert max(block.nbytes for block in args[:4]) <= limit
            assert copies * n_nbrs * d * 16 <= limit


class TestEvaluateLoss:
    """The oracle's loss is upstream . h_out; the upstream vector is validated."""

    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            fd_gradient(self.params, self.g, self.feats, 0, np.zeros(2))

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(self.params, self.g, self.feats, 0, np.array([1.0, np.inf, 1.0]))


class TestFdConfig:
    """The oracle's fixed kink guard and the tolerance compare_gradients takes."""

    def setup_method(self):
        g, feats, params = generate_instance(4, 2, 3, seed=7)
        self.numeric = fd_gradient(params, g, feats, 0, np.ones(3))

    def test_defaults(self):
        assert compare_gradients(self.numeric.grads, self.numeric).tolerance == 1e-6
        assert KINK_GUARD == 1e-4

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_tolerance_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            compare_gradients(self.numeric.grads, self.numeric, tol)


class TestFdGradient:
    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)

    def test_bias_entries_exactly_linear(self):
        """Dot loss is linear in the bias, so the derivative recovers g."""
        upstream = np.array([0.7, -1.1, 0.4])
        out = fd_gradient(self.params, self.g, self.feats, 0, upstream)
        np.testing.assert_allclose(out.grads.bias, upstream, atol=1e-9)

    def test_single_neighbor_attention_entries_vanish(self):
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.5], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        out = fd_gradient(params, graph, feats, 0, np.ones(1))
        assert np.abs(out.grads.theta_r).max() <= 1e-9
        assert np.abs(out.grads.att).max() <= 1e-9

    def test_repeated_runs_bit_identical(self):
        a = fd_gradient(self.params, self.g, self.feats, 1, np.ones(3))
        b = fd_gradient(self.params, self.g, self.feats, 1, np.ones(3))
        for key in a.grads.as_dict():
            assert np.array_equal(a.grads.as_dict()[key], b.grads.as_dict()[key])
        assert a.resolution == b.resolution

    def test_kink_flagging(self):
        """An instance tuned to sit on a kink flags every perturbed entry."""
        graph = Graph(2, ((0, 1),))
        feats = np.array([[1.0], [1.0]])
        # pre-activation = theta_r bias + theta_l bias + weights = exactly 0
        params = LayerParams([[0.5, 0.5]], [[-0.5, -0.5]], [1.0], [0.0])
        out = fd_gradient(params, graph, feats, 0, np.ones(1))
        assert all(mask.all() for mask in out.kink_flags.values())

    def test_no_flags_away_from_kinks(self):
        out = fd_gradient(self.params, self.g, self.feats, 0, np.ones(3))
        assert not any(mask.any() for mask in out.kink_flags.values())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_rejected(self):
        # h_out is finite but the dot with a huge loss vector overflows.
        params = LayerParams([[0.1, 0.1]], [[0.1, 0.1]], [1.0], [1e200])
        graph = Graph(1, ())
        feats = np.array([[0.0]])
        with pytest.raises(ValueError, match="non-finite loss at a perturbed point"):
            fd_gradient(params, graph, feats, 0, np.array([1e200]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_mid_chunk_rejected(self):
        """One copy in the middle of a chunk overflows and the rest do not.

        theta_L[0, 2] multiplies a source feature of 1e300 but is 0, so every
        real value stays finite; its imaginary step lifts h_out's imaginary
        part to 1e270, which the upstream 1e100 carries past the float range.
        All four theta_L copies share one chunk, and entry 2 is neither first
        nor last in it."""
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.0, 0.0, 0.0], [0.5, 1e300, 0.5]])
        params = LayerParams(
            [[0.1, 0.2, 0.3, 0.4]], [[0.1, 0.2, 0.0, 0.3]], [1.0], [0.0]
        )
        with pytest.raises(ValueError, match="non-finite loss at a perturbed point"):
            fd_gradient(params, graph, feats, 0, np.array([1e100]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_loss_scale_rejected(self):
        """Bias terms that cancel in the loss but overflow by magnitude."""
        theta = [[0.1, 0.1], [0.1, 0.1]]
        params = LayerParams(theta, theta, [1.0, 1.0], [1e308, -1e308])
        graph = Graph(1, ())
        feats = np.array([[0.0]])
        with pytest.raises(ValueError, match="non-finite loss scale"):
            fd_gradient(params, graph, feats, 0, np.ones(2))


class TestCompareGradients:
    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)
        trace = forward_with_trace(self.params, self.g, self.feats, 0)
        self.chain = backward_chain(trace, self.params, np.ones(3))

    def test_identical_inputs_pass_with_zero_error(self):
        report = compare_gradients(self.chain, self.chain)
        assert report.passed
        assert all(c.max_rel_err == 0.0 for c in report.checks.values())

    def test_single_corrupted_entry_fails_and_is_named(self):
        bad = self.chain.theta_l.copy()
        bad[1, 2] += 1e-3
        corrupted = GradientSet(self.chain.theta_r, bad, self.chain.att, self.chain.bias)
        report = compare_gradients(self.chain, corrupted)
        assert not report.passed
        assert not report.checks["theta_L"].passed
        assert report.checks["theta_L"].worst_entry == (1, 2)
        assert report.checks["theta_R"].passed

    def test_kink_flagged_entries_excluded_from_verdict(self):
        numeric = fd_gradient(self.params, self.g, self.feats, 0, np.ones(3))
        bad_theta_r = self.chain.theta_r.copy()
        bad_theta_r[0, 0] += 1.0
        corrupted = GradientSet(
            bad_theta_r, self.chain.theta_l, self.chain.att, self.chain.bias
        )
        flags = {k: v.copy() for k, v in numeric.kink_flags.items()}
        flags["theta_R"][0, 0] = True
        flagged = dataclasses.replace(numeric, kink_flags=flags)
        assert compare_gradients(corrupted, flagged).passed
        assert not compare_gradients(corrupted, numeric).passed
        assert (0, 0) in compare_gradients(corrupted, flagged).checks[
            "theta_R"
        ].kink_flagged

    def test_below_resolution_zeros_are_confirmed_not_judged(self):
        """A zero analytic entry may differ from the oracle by pure rounding."""
        numeric = fd_gradient(self.params, self.g, self.feats, 0, np.ones(3))
        noisy = numeric.grads.theta_r.copy()
        zero_rows = np.all(self.chain.theta_r == 0.0, axis=1)
        if zero_rows.any():
            noisy[np.argmax(zero_rows), 0] = numeric.resolution * 0.5
        perturbed = dataclasses.replace(
            numeric,
            grads=GradientSet(
                noisy, numeric.grads.theta_l, numeric.grads.att, numeric.grads.bias
            ),
        )
        assert compare_gradients(self.chain, perturbed).passed

    def test_unattainable_tolerance_fails(self):
        """1e-9 relative on the largest theta_L entry passes at the default
        tolerance and fails at 1e-10, named; the clean chain passes at 1e-12."""
        numeric = fd_gradient(self.params, self.g, self.feats, 0, np.ones(3))
        assert compare_gradients(self.chain, numeric, 1e-12).passed
        bad = self.chain.theta_l.copy()
        worst = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
        bad[worst] *= 1.0 + 1e-9
        corrupted = GradientSet(self.chain.theta_r, bad, self.chain.att, self.chain.bias)
        assert compare_gradients(corrupted, numeric).passed
        report = compare_gradients(corrupted, numeric, 1e-10)
        assert not report.passed
        failing = [k for k, c in report.checks.items() if not c.passed]
        assert failing == ["theta_L"]
        assert report.checks["theta_L"].worst_entry == tuple(int(v) for v in worst)

    def test_shape_mismatch_rejected(self):
        other = GradientSet(
            np.zeros((2, 3)), self.chain.theta_l, self.chain.att, self.chain.bias
        )
        with pytest.raises(ValueError):
            compare_gradients(self.chain, other)

    def test_report_json_layout(self):
        numeric = fd_gradient(self.params, self.g, self.feats, 0, np.ones(3))
        payload = compare_gradients(self.chain, numeric).to_json_dict(seed=7)
        assert set(payload) == {
            "theta_R", "theta_L", "a", "b",
            "step", "tolerance", "resolution", "seed", "pass",
        }
        for key in ("theta_R", "theta_L", "a", "b"):
            assert set(payload[key]) == {
                "max_rel_err", "pass", "kink_flagged", "worst_entry",
            }
        assert payload["seed"] == 7
        assert payload["step"] == 1e-30
