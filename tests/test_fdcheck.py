"""Complex-step oracle: losses, derivatives, kink flags, comparisons."""

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
)


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
    def test_defaults(self):
        config = FdConfig()
        assert config.tolerance == 1e-6
        assert config.kink_guard == 1e-4

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_tolerance_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            FdConfig(tolerance=tol)

    @pytest.mark.parametrize("guard", [float("nan"), float("inf"), 0.0, -1.0])
    def test_kink_guard_positive_and_finite(self, guard):
        with pytest.raises(ValueError, match="kink_guard"):
            FdConfig(kink_guard=guard)


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
        import dataclasses

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
        import dataclasses

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
        assert compare_gradients(self.chain, numeric, FdConfig(tolerance=1e-12)).passed
        bad = self.chain.theta_l.copy()
        worst = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
        bad[worst] *= 1.0 + 1e-9
        corrupted = GradientSet(self.chain.theta_r, bad, self.chain.att, self.chain.bias)
        assert compare_gradients(corrupted, numeric).passed
        report = compare_gradients(corrupted, numeric, FdConfig(tolerance=1e-10))
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
