"""Pathology reporting: dead rows, entropy, closed-form discrepancy."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatgrad import (
    GradientSet,
    Graph,
    LayerParams,
    backward_chain,
    closed_form_gap,
    diagnose,
    forward_with_trace,
    generate_instance,
    grad_bias,
    grad_theta_l,
    grad_theta_r_pairwise,
    grad_theta_r_sum,
)
from gatgrad.fdcheck import COMPLEX_STEP
from gatgrad.layer import _propagate, _softmax

README = Path(__file__).resolve().parents[1] / "README.md"


def gradient_sets(trace, params, upstream):
    """A node's closed-form and backward_chain GradientSets, as gradcheck builds them."""
    chain = backward_chain(trace, params, upstream)
    closed = GradientSet(
        grad_theta_r_sum(trace, params, upstream),
        grad_theta_l(trace, params, upstream),
        chain.att,
        grad_bias(upstream),
    )
    return closed, chain


def all_positive_instance():
    """Every pre-activation on the positive branch for every node."""
    g, feats, params = generate_instance(5, 3, 3, seed=5)
    th = params.theta_r.copy()
    th[:, 0] = 60.0
    params = LayerParams(th, params.theta_l, params.att, params.bias, 0.2)
    return params, g, feats


class TestDiagnose:
    def test_uniform_regime_instance_is_fully_dead(self):
        params, g, feats = all_positive_instance()
        report = diagnose(params, g, feats)
        assert report
        for entry in report:
            assert all(entry.dead_theta_r)
            assert entry.regime_uniformity == 1.0
            trace = forward_with_trace(params, g, feats, entry.node)
            grad = grad_theta_r_pairwise(trace, params, np.ones(3))
            assert np.all(grad == 0.0)

    def test_single_neighbor_node(self):
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.5], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        (entry,) = diagnose(params, graph, feats)
        assert entry.node == 0
        assert entry.single_neighbor
        assert entry.attention_entropy == 0.0
        assert all(entry.dead_theta_r)

    def test_default_node_set_skips_isolated_nodes(self):
        graph = Graph(3, ((0, 1), (0, 2)))
        feats = np.zeros((3, 1))
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        report = diagnose(params, graph, feats)
        assert [e.node for e in report] == [0]
        explicit = diagnose(params, graph, feats, nodes=[1])
        assert explicit[0].num_neighbors == 0
        assert explicit[0].attention_entropy == 0.0

    def test_mixed_regime_instance(self):
        g, feats, params = generate_instance(6, 3, 4, seed=19)
        report = diagnose(params, g, feats)
        fractions = [e.regime_uniformity for e in report]
        assert any(0.0 < f < 1.0 for f in fractions) or len(set(fractions)) > 1
        for entry in report:
            assert entry.closed_form_gap <= 1e-10  # uniform upstream default

    def test_dead_rows_iff_zero_gradient_rows(self):
        rng = np.random.default_rng(77)
        for k in range(10):
            g, feats, params = generate_instance(4 + k % 3, 2, 3, seed=200 + k)
            upstream = rng.standard_normal(3)
            for entry in diagnose(params, g, feats):
                trace = forward_with_trace(params, g, feats, entry.node)
                grad = grad_theta_r_pairwise(trace, params, upstream)
                for t, dead in enumerate(entry.dead_theta_r):
                    assert dead == bool(np.all(grad[t] == 0.0))

    def test_entropy_bounds_and_uniform_case(self):
        graph = Graph(4, ((0, 1), (0, 2), (0, 3)))
        feats = np.array([[0.1], [2.0], [2.0], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        (entry,) = diagnose(params, graph, feats, nodes=[0])
        # identical neighbors: uniform attention, maximal entropy ln 3
        assert entry.attention_entropy == pytest.approx(math.log(3.0), rel=1e-12)
        g2, feats2, params2 = generate_instance(5, 2, 2, seed=31)
        for e in diagnose(params2, g2, feats2):
            assert 0.0 <= e.attention_entropy <= math.log(max(e.num_neighbors, 1)) + 1e-12

    def test_entropy_invariant_under_score_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            scores = rng.standard_normal(rng.integers(2, 7))
            ent = lambda a: float(-(a * np.log(a)).sum())
            base = ent(_softmax(scores))
            shifted = ent(_softmax(scores + 500.0))
            assert abs(base - shifted) <= 1e-12


class TestClosedFormGap:
    def test_zero_under_constant_upstream(self):
        g, feats, params = generate_instance(5, 3, 4, seed=23)
        for node in range(5):
            trace = forward_with_trace(params, g, feats, node)
            for scale in (1.0, -2.5):
                gap = closed_form_gap(*gradient_sets(trace, params, scale * np.ones(4)))
                assert gap <= 1e-10

    def test_nonzero_under_generic_upstream(self):
        """Row-scaled closed forms drift once upstream components differ."""
        g, feats, params = generate_instance(5, 3, 4, seed=23)
        upstream = np.array([1.0, -1.0, 2.0, 0.5])
        gaps = []
        for node in range(5):
            trace = forward_with_trace(params, g, feats, node)
            if trace.num_neighbors >= 2:
                gaps.append(closed_form_gap(*gradient_sets(trace, params, upstream)))
        assert max(gaps) > 1e-3

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_gap_rejected(self, value):
        """A closed-form entry beyond the float range, or the NaN of inf * 0, gives
        no gap to report: closed_form_gap raises, as diagnose does for the node."""
        g, feats, params = generate_instance(5, 3, 4, seed=23)
        closed, chain = gradient_sets(forward_with_trace(params, g, feats, 0), params, np.ones(4))
        theta_r = closed.theta_r.copy()
        theta_r[1, 2] = value
        broken = GradientSet(theta_r, closed.theta_l, closed.att, closed.bias)
        with pytest.raises(ValueError, match="^non-finite closed_form_gap$"):
            closed_form_gap(broken, chain)

    def test_reported_via_diagnose_spec(self):
        g, feats, params = generate_instance(5, 3, 4, seed=23)
        upstream = np.array([1.0, -1.0, 2.0, 0.5])
        report = diagnose(params, g, feats, upstream=upstream)
        assert any(e.closed_form_gap > 1e-3 for e in report)


class TestReportJson:
    def test_stable_key_order(self):
        g, feats, params = generate_instance(4, 2, 2, seed=2)
        report = diagnose(params, g, feats)
        for entry in report:
            assert list(entry._asdict()) == [
                "node",
                "num_neighbors",
                "single_neighbor",
                "dead_theta_r",
                "regime_uniformity",
                "attention_entropy",
                "closed_form_gap",
            ]


class TestNodeSelection:
    """Requested ids are checked, never wrapped, and come out as requested."""

    def instance(self):
        graph = Graph(4, ((0, 1), (0, 2), (2, 0), (2, 3), (2, 2), (3, 0)))
        feats = np.array([[0.5], [2.0], [-1.0], [0.3]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        return params, graph, feats

    @pytest.mark.parametrize("node", [-1, 4, -5])
    def test_out_of_range_raises(self, node):
        params, graph, feats = self.instance()
        with pytest.raises(IndexError, match="out of range"):
            diagnose(params, graph, feats, nodes=[0, node])

    def test_non_integer_id_raises(self):
        params, graph, feats = self.instance()
        with pytest.raises(TypeError):
            diagnose(params, graph, feats, nodes=[1.0])

    def test_order_and_duplicates_kept(self):
        params, graph, feats = self.instance()
        report = diagnose(params, graph, feats, nodes=[3, 0, 3, 1, 2, np.int64(0)])
        assert [e.node for e in report] == [3, 0, 3, 1, 2, 0]
        assert [e.num_neighbors for e in report] == [1, 2, 1, 0, 3, 2]
        assert report[0] == report[2] and report[1] == report[5]
        assert type(report[5].node) is int
        assert diagnose(params, graph, feats, nodes=[]) == ()

    def test_isolated_node_values(self):
        params, graph, feats = self.instance()
        for upstream in (-2.0, 1.0, 0.0):
            (entry,) = diagnose(params, graph, feats, nodes=[1], upstream=np.array([upstream]))
            assert entry.num_neighbors == 0 and entry.single_neighbor
            assert entry.dead_theta_r == (True,)
            assert entry.regime_uniformity == 1.0
            # An isolated node is a block of degree 0; repr tells 0.0 from -0.0.
            assert repr((entry.attention_entropy, entry.closed_form_gap)) == "(0.0, 0.0)"


def dead_fraction_and_prediction(seed, num_nodes=4000, degree=4, width=8):
    """diagnose's dead-row fraction on a seeded random graph, the fraction the
    sign condition predicts, and the binomial standard error of the measure.

    Every node has `degree` distinct random neighbors, never itself, and
    features and parameters are standard normal (H = D = width, slope 0.2).
    Row t is dead at a node when all N pre-activations
    T + theta_L[t, 0] + theta_L[t, 1:] . h_j share a sign, where
    T = theta_R[t] . h_aug(i) ~ N(theta_R[t, 0], |theta_R[t, 1:]|^2). Given T,
    the N source terms are i.i.d. N(0, |theta_L[t, 1:]|^2), since the
    neighbors are distinct and none is the target; each pre-activation is
    positive with probability p = Phi((T + theta_L[t, 0]) / |theta_L[t, 1:]|),
    so the row is dead with probability E_T[p^N + (1 - p)^N]. The slope never
    enters, only the signs. The expectation is taken by 80-point
    Gauss-Hermite quadrature, and the prediction is its mean over rows t.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_nodes, width))
    picks = [rng.choice(num_nodes - 1, degree, replace=False) for _ in range(num_nodes)]
    edges = [(i, int(j) + (j >= i)) for i, row in enumerate(picks) for j in row]
    params = LayerParams(
        *(rng.standard_normal((width, width + 1)) for _ in range(2)),
        rng.standard_normal(width), rng.standard_normal(width), 0.2,
    )
    report = diagnose(params, Graph(num_nodes, edges), features)
    measured = np.mean([e.dead_theta_r for e in report])
    x, w = np.polynomial.hermite_e.hermegauss(80)
    t = params.theta_r[:, :1] + np.linalg.norm(params.theta_r[:, 1:], axis=1)[:, None] * x
    z = (t + params.theta_l[:, :1]) / np.linalg.norm(params.theta_l[:, 1:], axis=1)[:, None]
    p = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    predicted = ((p**degree + (1.0 - p) ** degree) @ w / math.sqrt(2.0 * math.pi)).mean()
    return measured, predicted, math.sqrt(measured * (1.0 - measured) / (num_nodes * width))


class TestDeadRowPrediction:
    @pytest.mark.parametrize("degree", [1, 2, 4, 8, 16, 32])
    def test_dead_fraction_matches_the_sign_condition(self, degree):
        """diagnose's dead-row fraction lies within 4 binomial standard errors
        of the fraction dead_fraction_and_prediction derives. Shared neighbors
        correlate the rows, so the binomial error is not the whole spread: at
        degree 4, over seeds 0-19 the deviation reached 2.37 standard errors,
        with a standard deviation of 1.13. Over seeds 0-2, leaving each node's
        last edge out of the dead-row test read +32 standard errors, and
        counting only the all-positive case as dead -98 to -109. At degree 1
        every row is dead and the error is 0, so both sides are 1 up to the
        quadrature's rounding. The README's table holds this degree's row."""
        measured, predicted, se = dead_fraction_and_prediction(seed=0, degree=degree)
        assert abs(measured - predicted) <= max(4 * se, 1e-12)
        row = f"| {degree} | {measured:.4f} | {predicted:.4f} | {se:.4f} |"
        assert row in README.read_text().splitlines()


class TestDeadRowsAreStaticAttention:
    def test_all_dead_nodes_attend_independently_of_the_target(self):
        """Where every theta_R row of a node is dead, each row's neighbors
        share one LeakyReLU slope, so the target's part of every score is one
        shift that the softmax removes: alpha does not depend on the target's
        features (GATv2 falls back to static attention). The complex-step
        derivative of alpha along each target feature, from one _propagate
        call on complex copies of the target row, is then a rounding residue
        of the score scale, while a node with a live row moves alpha far more.
        A large theta_L bias column, +3 in rows 0 and 2 and -3 in rows 1 and
        3, kills most rows, some with every neighbor on the negative branch;
        generate_instance makes no self-loop, so the target is never its own
        source."""
        graph, feats, params = generate_instance(40, 4, 4, seed=0)
        theta_l = params.theta_l.copy()
        theta_l[:, 0] = [3.0, -3.0, 3.0, -3.0]
        params = LayerParams(params.theta_r, theta_l, params.att, params.bias, 0.2)
        scale = (np.abs(params.att) @ np.abs(params.theta_r[:, 1:])).max()
        bound = 4 * np.finfo(float).eps * scale
        dead, live = [], []
        for entry in diagnose(params, graph, feats):
            trace = forward_with_trace(params, graph, feats, entry.node)
            h, n = params.feature_dim, entry.num_neighbors
            targets = trace.h_aug_target + 1j * COMPLEX_STEP * np.eye(h + 1)[1:]
            sources = np.broadcast_to(trace.h_aug_sources, (h, n, h + 1))
            alpha = _propagate(
                params.theta_r, params.theta_l, params.att, params.bias,
                params.negative_slope, targets, sources,
            ).alpha
            derivative = np.abs(alpha.imag / COMPLEX_STEP).max()
            (dead if all(entry.dead_theta_r) else live).append(derivative)
        assert len(dead) == 5 and len(live) == 35
        assert max(dead) <= bound
        assert max(live) >= 1e6 * bound

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_nodes=st.integers(3, 10),
        widths=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        bias=st.floats(1.0, 6.0),
    )
    # Draws whose alpha moved by one ulp of alpha, above 8 eps of their score scale.
    @example(seed=300, num_nodes=7, widths=(1, 1), bias=1.734375)
    @example(seed=6376, num_nodes=3, widths=(1, 1), bias=1.0)
    def test_dead_dimensions_add_nothing_to_the_target_derivative(
        self, seed, num_nodes, widths, bias
    ):
        """Property form, at every node of a seeded instance whose theta_L
        bias column is +-bias, which kills many rows, all-negative ones and
        whole nodes among them. Dimension t adds a[t] * (s[j, t] - s[1, t]) *
        theta_R[t] to d(score_j - score_1)/dh_target, taken here by the
        complex step on the target row: it adds nothing for every j exactly
        where diagnose calls row t dead. At a node with regime_uniformity 1,
        alpha moves only by rounding of the score scale when the target moves
        along a random direction by half its smallest pre-activation margin,
        which keeps every regime, and by the softmax's own rounding: one ulp
        of alpha, which is more than 8 eps of the scale where it is below
        about 0.1."""
        h, d = widths
        graph, feats, params = generate_instance(num_nodes, h, d, seed)
        rng = np.random.default_rng(seed)
        theta_l = params.theta_l.copy()
        theta_l[:, 0] = bias * rng.choice([-1.0, 1.0], d)
        params = LayerParams(params.theta_r, theta_l, params.att, params.bias, 0.2)
        for entry in diagnose(params, graph, feats):
            trace = forward_with_trace(params, graph, feats, entry.node)
            # h complex copies of the target row, one per feature, against its neighbors.
            targets = trace.h_aug_target + 1j * COMPLEX_STEP * np.eye(h + 1)[1:]
            post_act = _propagate(
                params.theta_r, params.theta_l, params.att, params.bias,
                params.negative_slope, targets, trace.h_aug_sources,
            ).post_act.imag
            moved = (params.att * (post_act - post_act[:, :1])).any(axis=(0, 1))
            assert (~moved).tolist() == list(entry.dead_theta_r)
            if entry.regime_uniformity < 1.0:
                continue
            direction = rng.standard_normal(h)
            shift = np.abs(params.theta_r[:, 1:] @ direction).max()
            shifted = feats.copy()
            shifted[entry.node] += 0.5 * np.abs(trace.pre_act).min() / shift * direction
            after = forward_with_trace(params, graph, shifted, entry.node)
            assert np.array_equal(after.pre_act > 0.0, trace.pre_act > 0.0)
            scale = max((np.abs(t.post_act) @ np.abs(params.att)).max() for t in (trace, after))
            ulp = np.spacing(np.maximum(np.abs(after.alpha), np.abs(trace.alpha)))
            assert np.all(
                np.abs(after.alpha - trace.alpha) <= 8 * np.finfo(float).eps * scale + ulp
            )
