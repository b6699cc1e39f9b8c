"""Analytic gradients: pinned hand values, algebraic identities, FD checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatgrad import (
    ForwardTrace,
    Graph,
    LayerParams,
    backward_chain,
    compare_gradients,
    diagnose,
    fd_gradient,
    forward_with_trace,
    generate_instance,
    grad_att,
    grad_bias,
    grad_theta_l,
    grad_theta_r_pairwise,
    grad_theta_r_sum,
    gradient_set_to_json_dict,
    relative_error,
    softmax_jacobian,
)

simplex_sizes = st.integers(min_value=1, max_value=7)


def random_alpha(rng, n):
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


def synthetic_trace(alpha, source_proj, pre_act, h_aug_target, h_aug_sources):
    """Trace with just the fields the gradient routines read, for pinned values."""
    alpha = np.asarray(alpha, dtype=np.float64)
    source_proj = np.asarray(source_proj, dtype=np.float64)
    pre_act = np.asarray(pre_act, dtype=np.float64)
    post_act = np.where(pre_act > 0, pre_act, 0.2 * pre_act)
    return ForwardTrace(
        node=0,
        neighbors=tuple(range(1, 1 + len(alpha))),
        h_aug_target=np.asarray(h_aug_target, dtype=np.float64),
        h_aug_sources=np.asarray(h_aug_sources, dtype=np.float64),
        target_proj=np.zeros(source_proj.shape[1]),
        source_proj=source_proj,
        pre_act=pre_act,
        post_act=post_act,
        scores=np.zeros(len(alpha)),
        alpha=alpha,
        messages=alpha[:, None] * source_proj,
        h_out=source_proj.T @ alpha,
    )


def chain_slopes(first_pre_act):
    """LeakyReLU slopes of a first neighbor with these pre-activations, read
    off backward_chain: two neighbors with unit source rows, alpha [1/2, 1/2]
    and score gradients [-1/2, 1/2] under a unit upstream and attention
    vector give theta_L[t, 0] = -slope[0, t] / 2 + 1/2."""
    d = len(first_pre_act)
    trace = synthetic_trace(
        alpha=[0.5, 0.5],
        source_proj=np.outer([1.0, 3.0], np.eye(d)[0]),
        pre_act=[first_pre_act, [1.0] * d],
        h_aug_target=[1.0, 0.0],
        h_aug_sources=np.eye(2),
    )
    params = LayerParams(np.zeros((d, 2)), np.zeros((d, 2)), np.ones(d), np.zeros(d), 0.2)
    theta_l = backward_chain(trace, params, np.ones(d)).theta_l
    return (1.0 - 2.0 * theta_l[:, 0]).tolist()


class TestSlopes:
    def test_all_positive(self):
        assert chain_slopes([0.5, 2.0]) == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_mixed_signs(self):
        assert chain_slopes([-1.0, 2.0]) == pytest.approx([0.2, 1.0], rel=1e-15)

    def test_routes_of_one_trace_follow_each_params_slope(self):
        """A trace's segments are kept for its next route, keyed on the slope too."""
        trace = synthetic_trace(
            alpha=[0.5, 0.5],
            source_proj=[[1.0], [3.0]],
            pre_act=[[-1.0], [1.0]],
            h_aug_target=[1.0, 0.0],
            h_aug_sources=np.eye(2),
        )
        for slope in (0.2, 0.5, 0.2):
            params = LayerParams(np.zeros((1, 2)), np.zeros((1, 2)), [1.0], [0.0], slope)
            for theta_l in (
                backward_chain(trace, params, np.ones(1)).theta_l,
                grad_theta_l(trace, params, np.ones(1)),
            ):
                assert 1.0 - 2.0 * theta_l[0, 0] == pytest.approx(slope, rel=1e-15)

    def test_boundary_zero_is_negative_branch(self):
        assert chain_slopes([0.0]) == pytest.approx([0.2], rel=1e-15)
        # Through diagnose: pre-activations exactly 0 and -1 share a regime
        # (a dead row), 0 and +1 do not.
        graph = Graph(3, ((0, 1), (0, 2)))
        params = LayerParams([[0.0, 0.0]], [[0.0, 1.0]], [1.0], [0.0])
        for other, dead in ((-1.0, True), (1.0, False)):
            feats = np.array([[0.0], [0.0], [other]])
            trace = forward_with_trace(params, graph, feats, 0)
            assert trace.pre_act[:, 0].tolist() == [0.0, other]
            (entry,) = diagnose(params, graph, feats, [0])
            assert entry.dead_theta_r == (dead,)


class TestSoftmaxJacobian:
    def test_single_neighbor(self):
        assert softmax_jacobian(np.array([1.0])).tolist() == [[0.0]]

    def test_symmetric_half_half(self):
        np.testing.assert_allclose(
            softmax_jacobian(np.array([0.5, 0.5])),
            [[0.25, -0.25], [-0.25, 0.25]],
            rtol=1e-15,
        )

    def test_hand_value(self):
        np.testing.assert_allclose(
            softmax_jacobian(np.array([0.25, 0.75])),
            [[0.1875, -0.1875], [-0.1875, 0.1875]],
            rtol=1e-15,
        )

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            softmax_jacobian(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_jacobian(np.array([bad, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            softmax_jacobian(np.array([bad]))

    @given(simplex_sizes, st.integers(min_value=0, max_value=2**31 - 1))
    def test_structure(self, n, seed):
        alpha = random_alpha(np.random.default_rng(seed), n)
        jac = softmax_jacobian(alpha)
        assert np.array_equal(jac, jac.T)
        assert np.abs(jac.sum(axis=1)).max() <= 1e-12
        assert (np.diag(jac) >= 0.0).all()


class TestProjectionTotals:
    """The per-neighbor totals sum_t (theta_l @ h_aug(k))[t] that the closed
    forms center and weigh: the row sums of the trace's source_proj."""

    def one_neighbor_total(self, theta_l, source_feature):
        """Projection total of the only neighbor of node 0."""
        theta_l = np.asarray(theta_l, dtype=np.float64)
        params = LayerParams(np.zeros_like(theta_l), theta_l, np.zeros(len(theta_l)),
                             np.zeros(len(theta_l)))
        feats = np.array([[0.0], [source_feature]])
        trace = forward_with_trace(params, Graph(2, ((0, 1),)), feats, 0)
        return float(trace.source_proj.sum(axis=1)[0])

    def test_zero_matrix(self):
        assert self.one_neighbor_total(np.zeros((3, 2)), 5.0) == 0.0

    def test_single_row_is_entry(self):
        assert self.one_neighbor_total([[2.0, -1.0]], 3.0) == -1.0

    def test_hand_value(self):
        # rows project [1, 2] to [2, 1]; total 3
        assert self.one_neighbor_total([[0.0, 1.0], [1.0, 0.0]], 2.0) == 3.0

    def test_totals_match_per_neighbor_operation(self):
        g, feats, params = generate_instance(5, 3, 4, seed=42)
        trace = forward_with_trace(params, g, feats, 0)
        totals = trace.source_proj.sum(axis=1)
        for k in range(trace.num_neighbors):
            expect = float((params.theta_l @ trace.h_aug_sources[k]).sum())
            assert totals[k] == pytest.approx(expect, rel=1e-13)


class TestThetaRPinned:
    def pinned_trace(self, h_aug_target):
        # two neighbors: totals [3, 1], alpha [1/4, 3/4], slopes [1, 0.2]
        return synthetic_trace(
            alpha=[0.25, 0.75],
            source_proj=[[3.0], [1.0]],
            pre_act=[[0.5], [-0.5]],
            h_aug_target=h_aug_target,
            h_aug_sources=[[1.0], [1.0]],
        )

    def pinned_params(self, width):
        return LayerParams(
            np.zeros((1, width)), np.zeros((1, width)), [1.0], [0.0], 0.2
        )

    def test_bias_column_hand_value(self):
        # 0.25 * 0.75 * (3 - 1) * (1 - 0.2) = 0.3
        tr = self.pinned_trace([1.0])
        params = self.pinned_params(1)
        for fn in (grad_theta_r_sum, grad_theta_r_pairwise):
            np.testing.assert_allclose(fn(tr, params, [1.0]), [[0.3]], rtol=1e-12)

    def test_weight_column_scales_by_target_feature(self):
        tr = self.pinned_trace([1.0, -2.0])
        params = self.pinned_params(2)
        for fn in (grad_theta_r_sum, grad_theta_r_pairwise):
            np.testing.assert_allclose(
                fn(tr, params, [1.0]), [[0.3, -0.6]], rtol=1e-12
            )

    def test_upstream_scales_rows(self):
        tr = self.pinned_trace([1.0])
        params = self.pinned_params(1)
        np.testing.assert_allclose(
            grad_theta_r_sum(tr, params, [-2.0]), [[-0.6]], rtol=1e-12
        )


class TestAnnihilation:
    def small_instance(self):
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.5, -1.0], [2.0, 0.3]])
        params = LayerParams(
            np.arange(6.0).reshape(2, 3) / 3,
            -np.arange(6.0).reshape(2, 3) / 4,
            [0.7, -1.2],
            [0.1, 0.2],
        )
        return params, graph, feats

    def test_zero_and_single_neighbor_kill_attention_path(self):
        params, graph, feats = self.small_instance()
        upstream = np.array([1.3, -0.4])
        for node in (0, 1):
            trace = forward_with_trace(params, graph, feats, node)
            assert np.all(grad_theta_r_sum(trace, params, upstream) == 0.0)
            assert np.all(grad_theta_r_pairwise(trace, params, upstream) == 0.0)
            assert np.all(grad_att(trace, params, upstream) == 0.0)
            chain = backward_chain(trace, params, upstream)
            assert np.all(chain.theta_r == 0.0)
            assert np.all(chain.att == 0.0)

    def test_identical_neighbors_kill_attention_path(self):
        graph = Graph(3, ((0, 1), (0, 2)))
        feats = np.array([[0.5], [2.0], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        trace = forward_with_trace(params, graph, feats, 0)
        upstream = np.array([2.5])
        assert np.all(grad_att(trace, params, upstream) == 0.0)
        assert np.all(grad_theta_r_pairwise(trace, params, upstream) == 0.0)
        assert np.all(grad_theta_r_sum(trace, params, upstream) == 0.0)

    def test_uniform_regime_rows_exactly_zero(self):
        g, feats, params = generate_instance(5, 3, 3, seed=5)
        th = params.theta_r.copy()
        th[0, 0] = 50.0  # row 0 stays on the positive branch for every neighbor
        params = LayerParams(th, params.theta_l, params.att, params.bias, 0.2)
        upstream = np.random.default_rng(5).standard_normal(3)
        saw_live_row = False
        for node in range(5):
            trace = forward_with_trace(params, g, feats, node)
            positive = trace.pre_act > 0.0
            dead = np.all(positive == positive[0], axis=0)
            assert dead[0]
            for fn in (grad_theta_r_sum, grad_theta_r_pairwise):
                mat = fn(trace, params, upstream)
                for t in range(3):
                    if dead[t]:
                        assert np.all(mat[t] == 0.0)
            chain = backward_chain(trace, params, upstream)
            for t in range(3):
                if dead[t]:
                    assert np.all(chain.theta_r[t] == 0.0)
                else:
                    saw_live_row = True
        assert saw_live_row


class TestPairwiseSumIdentity:
    def test_agreement_over_random_instances(self):
        rng = np.random.default_rng(123)
        for k in range(25):
            n, h, d = 3 + k % 5, 1 + k % 3, 1 + k % 4
            g, feats, params = generate_instance(n, h, d, seed=100 + k)
            upstream = rng.standard_normal(d)
            for node in range(n):
                trace = forward_with_trace(params, g, feats, node)
                s = grad_theta_r_sum(trace, params, upstream)
                p = grad_theta_r_pairwise(trace, params, upstream)
                assert relative_error(s, p).max() <= 1e-12


    def test_matches_double_loop_reference(self):
        """The per-neighbor vectorized pair sum against the plain pair loop."""
        eps = np.finfo(np.float64).eps
        for seed in range(4):
            g, feats, params = generate_instance(40, 3, 4, seed=seed)
            upstream = np.random.default_rng(seed).standard_normal(4)
            for node in range(40):
                trace = forward_with_trace(params, g, feats, node)
                slopes = np.where(trace.pre_act > 0.0, 1.0, params.negative_slope)
                totals = trace.source_proj.sum(axis=1)
                n = trace.num_neighbors
                coeff = np.zeros(4)
                magnitude = np.zeros(4)
                for k in range(n):
                    for j in range(k + 1, n):
                        pair = trace.alpha[k] * trace.alpha[j] * (totals[k] - totals[j])
                        coeff += pair * (slopes[k] - slopes[j])
                        magnitude += np.abs(pair * (slopes[k] - slopes[j]))
                row_scale = upstream * params.att
                want = np.outer(row_scale * coeff, trace.h_aug_target)
                got = grad_theta_r_pairwise(trace, params, upstream)
                bound = 2 * n * eps * np.outer(np.abs(row_scale) * magnitude,
                                               np.abs(trace.h_aug_target))
                assert np.all(np.abs(got - want) <= bound), node


def permuted(graph, feats, perm):
    """The instance with node i renamed perm[i], edges in the same order."""
    edges = tuple((int(perm[i]), int(perm[j])) for i, j in graph.edges)
    out = np.empty_like(feats)
    out[perm] = feats
    return Graph(graph.num_nodes, edges), out


def neighbor_order_reversed(graph):
    edges = tuple(
        (i, j) for i in range(graph.num_nodes) for j in reversed(graph.neighbors(i))
    )
    return Graph(graph.num_nodes, edges)


instance_shapes = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)


class TestMetamorphic:
    @given(instance_shapes)
    def test_node_relabelling_is_bit_identical(self, shape):
        seed, n, h, d = shape
        graph, feats, params = generate_instance(n, h, d, seed=seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        upstream = rng.standard_normal(d)
        graph2, feats2 = permuted(graph, feats, perm)
        for node in range(n):
            a = forward_with_trace(params, graph, feats, node)
            b = forward_with_trace(params, graph2, feats2, int(perm[node]))
            assert b.neighbors == tuple(int(perm[j]) for j in a.neighbors)
            assert a.h_out.tobytes() == b.h_out.tobytes()
            assert a.alpha.tobytes() == b.alpha.tobytes()
            chain_a = backward_chain(a, params, upstream).as_dict()
            chain_b = backward_chain(b, params, upstream).as_dict()
            for key, block in chain_a.items():
                assert block.tobytes() == chain_b[key].tobytes(), key

    @settings(deadline=None, max_examples=40)
    @given(instance_shapes)
    def test_neighbor_order_reversal(self, shape):
        """h_out is order-free to rounding, alpha reverses, the oracle agrees."""
        seed, n, h, d = shape
        graph, feats, params = generate_instance(n, h, d, seed=seed)
        upstream = np.random.default_rng(seed).standard_normal(d)
        graph2 = neighbor_order_reversed(graph)
        for node in range(n):
            a = forward_with_trace(params, graph, feats, node)
            b = forward_with_trace(params, graph2, feats, node)
            assert b.neighbors == a.neighbors[::-1]
            scale = max(1.0, float(np.abs(a.h_out).max()))
            assert np.abs(a.h_out - b.h_out).max() <= 1e-13 * scale
            np.testing.assert_allclose(b.alpha, a.alpha[::-1], rtol=1e-13, atol=0)
            chain = backward_chain(b, params, upstream)
            numeric = fd_gradient(params, graph2, feats, node, upstream)
            report = compare_gradients(chain, numeric, 1e-12)
            assert report.passed, {k: c.max_rel_err for k, c in report.checks.items()}


class TestGradThetaL:
    def test_zero_attention_vector_leaves_direct_path(self):
        # att = 0 makes alpha uniform and kills the score path entirely.
        graph = Graph(4, ((0, 1), (0, 2), (0, 3)))
        feats = np.array([[0.1, 0.2], [1.0, -1.0], [2.0, 0.5], [-0.7, 0.4]])
        params = LayerParams(
            np.ones((2, 3)) / 7, np.ones((2, 3)) / 3, [0.0, 0.0], [0.0, 0.0]
        )
        trace = forward_with_trace(params, graph, feats, 0)
        upstream = np.array([2.0, -1.0])
        expect = np.outer(upstream, trace.h_aug_sources.mean(axis=0))
        np.testing.assert_allclose(
            grad_theta_l(trace, params, upstream), expect, rtol=1e-13
        )

    def test_single_neighbor_is_outer_product(self):
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.5], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        trace = forward_with_trace(params, graph, feats, 0)
        upstream = np.array([3.0])
        np.testing.assert_allclose(
            grad_theta_l(trace, params, upstream),
            np.outer(upstream, trace.h_aug_sources[0]),
            rtol=1e-14,
        )


class TestGradBias:
    def test_zero(self):
        assert grad_bias(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_identity_bitwise(self):
        g = np.array([1.0, 2.0, 3.0])
        out = grad_bias(g)
        assert out.tobytes() == g.tobytes()
        assert out is not g

    def test_upstream_validation(self):
        with pytest.raises(ValueError, match="non-finite upstream gradient"):
            grad_bias(np.array([np.nan, 1.0]))
        for bad in (np.ones((2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="upstream gradient shape"):
                grad_bias(bad)


class TestBackwardChain:
    def test_zero_upstream_zeroes_everything(self):
        g, feats, params = generate_instance(4, 2, 3, seed=8)
        trace = forward_with_trace(params, g, feats, 0)
        out = backward_chain(trace, params, np.zeros(3))
        for arr in (out.theta_r, out.theta_l, out.att, out.bias):
            assert np.all(arr == 0.0)

    def test_bias_component_is_upstream_bitwise(self):
        g, feats, params = generate_instance(4, 2, 3, seed=8)
        trace = forward_with_trace(params, g, feats, 1)
        upstream = np.random.default_rng(1).standard_normal(3)
        out = backward_chain(trace, params, upstream)
        assert out.bias.tobytes() == upstream.tobytes()

    def test_linearity_in_upstream(self):
        g, feats, params = generate_instance(5, 2, 3, seed=21)
        trace = forward_with_trace(params, g, feats, 0)
        rng = np.random.default_rng(2)
        g1, g2 = rng.standard_normal(3), rng.standard_normal(3)
        a, b = backward_chain(trace, params, g1), backward_chain(trace, params, g2)
        both = backward_chain(trace, params, g1 + 2.0 * g2)
        np.testing.assert_allclose(
            both.theta_l, a.theta_l + 2.0 * b.theta_l, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(
            both.att, a.att + 2.0 * b.att, rtol=1e-12, atol=1e-14
        )

    def test_score_path_matches_explicit_jacobian_product(self):
        """The internal softmax backward agrees with the materialized Jacobian."""
        g, feats, params = generate_instance(5, 3, 4, seed=17)
        trace = forward_with_trace(params, g, feats, 0)
        upstream = np.random.default_rng(17).standard_normal(4)
        d_alpha = trace.source_proj @ upstream
        d_score = softmax_jacobian(trace.alpha) @ d_alpha
        expect = trace.post_act.T @ d_score
        np.testing.assert_allclose(
            grad_att(trace, params, upstream), expect, rtol=1e-10, atol=1e-13
        )

    def test_upstream_validation(self):
        g, feats, params = generate_instance(4, 2, 3, seed=8)
        trace = forward_with_trace(params, g, feats, 0)
        with pytest.raises(ValueError):
            backward_chain(trace, params, np.zeros(4))
        with pytest.raises(ValueError):
            backward_chain(trace, params, np.array([np.nan, 0.0, 0.0]))


class TestAgainstFiniteDifferences:
    """Seeded spot checks; the acceptance suite sweeps the full instance set."""

    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)

    def check_node(self, node, upstream):
        trace = forward_with_trace(self.params, self.g, self.feats, node)
        chain = backward_chain(trace, self.params, upstream)
        numeric = fd_gradient(self.params, self.g, self.feats, node, upstream)
        report = compare_gradients(chain, numeric)
        assert report.passed, {k: c.max_rel_err for k, c in report.checks.items()}
        return trace, chain, numeric

    def test_uniform_upstream(self):
        for node in range(4):
            self.check_node(node, np.ones(3))

    def test_random_upstream(self):
        rng = np.random.default_rng(99)
        for node in range(4):
            self.check_node(node, rng.standard_normal(3))

    def test_closed_forms_match_chain_under_uniform_upstream(self):
        upstream = np.ones(3)
        for node in range(4):
            trace = forward_with_trace(self.params, self.g, self.feats, node)
            chain = backward_chain(trace, self.params, upstream)
            assert (
                relative_error(
                    grad_theta_r_sum(trace, self.params, upstream), chain.theta_r
                ).max()
                <= 1e-10
            )
            assert (
                relative_error(
                    grad_theta_l(trace, self.params, upstream), chain.theta_l
                ).max()
                <= 1e-10
            )
            assert np.array_equal(grad_bias(upstream), chain.bias)


class TestGradientSetJson:
    def test_layout_mirrors_params_file(self):
        g, feats, params = generate_instance(4, 2, 3, seed=7)
        trace = forward_with_trace(params, g, feats, 0)
        chain = backward_chain(trace, params, np.ones(3))
        payload = gradient_set_to_json_dict(chain, 0, trace.num_neighbors, "uniform")
        assert list(payload) == ["theta_R", "theta_L", "a", "b", "meta"]
        assert payload["meta"] == {
            "target_node": 0,
            "N": trace.num_neighbors,
            "upstream_mode": "uniform",
        }
        assert np.asarray(payload["theta_R"]).shape == (3, 3)
