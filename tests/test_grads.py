"""Analytic gradients: pinned hand values, algebraic identities, FD checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatgrad import (
    ForwardTrace,
    GradientSet,
    Graph,
    LayerParams,
    backward_chain,
    compare_gradients,
    diagnose,
    fd_gradient,
    forward_with_trace,
    generate_instance,
    grad_bias,
    grad_theta_l,
    grad_theta_r_pairwise,
    grad_theta_r_sum,
)
from gatgrad import layer
from gatgrad.cli import _gradients_json
from gatgrad.fdcheck import _relative_error

simplex_sizes = st.integers(min_value=1, max_value=7)


def softmax_jacobian(alpha):
    """Reference for the softmax backward: the Jacobian of the softmax output
    with respect to the raw scores, entry (l, j) alpha[l] * (delta(l, j) - alpha[j])."""
    return np.diag(alpha) - np.outer(alpha, alpha)


def random_alpha(rng, n):
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


def synthetic_trace(alpha, source_proj, pre_act, h_aug_target, h_aug_sources, slope=0.2):
    """Trace with just the fields the gradient routines read, for pinned values."""
    alpha = np.asarray(alpha, dtype=np.float64)
    source_proj = np.asarray(source_proj, dtype=np.float64)
    pre_act = np.asarray(pre_act, dtype=np.float64)
    slopes = np.where(pre_act > 0, 1.0, slope)
    return ForwardTrace(
        h_aug_target=np.asarray(h_aug_target, dtype=np.float64),
        h_aug_sources=np.asarray(h_aug_sources, dtype=np.float64),
        target_proj=np.zeros(source_proj.shape[1]),
        source_proj=source_proj,
        pre_act=pre_act,
        slopes=slopes,
        post_act=slopes * pre_act,
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

    def test_routes_follow_each_traces_slope(self):
        """A trace's segments are kept for its next route, keyed on the trace:
        traces of one node under alternating slopes each get their own."""
        for slope in (0.2, 0.5, 0.2):
            trace = synthetic_trace(
                alpha=[0.5, 0.5],
                source_proj=[[1.0], [3.0]],
                pre_act=[[-1.0], [1.0]],
                h_aug_target=[1.0, 0.0],
                h_aug_sources=np.eye(2),
                slope=slope,
            )
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
        """An isolated node is the empty segment: with the feature row of a
        single-neighbor node, its theta_R zeros carry the same signs, byte for byte."""
        params, graph, feats = self.small_instance()
        feats = np.array([feats[0], feats[0]])  # node 0 has one neighbor, node 1 none
        upstream = np.array([1.3, -0.4])
        routes = []
        for node in (0, 1):
            trace = forward_with_trace(params, graph, feats, node)
            chain = backward_chain(trace, params, upstream)
            blocks = (
                grad_theta_r_sum(trace, params, upstream),
                grad_theta_r_pairwise(trace, params, upstream),
                chain.theta_r,
            )
            assert all(np.all(block == 0.0) for block in blocks)
            assert np.all(chain.att == 0.0)
            routes.append([block.tobytes() for block in blocks])
        assert routes[0] == routes[1]

    def test_identical_neighbors_kill_attention_path(self):
        graph = Graph(3, ((0, 1), (0, 2)))
        feats = np.array([[0.5], [2.0], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        trace = forward_with_trace(params, graph, feats, 0)
        upstream = np.array([2.5])
        assert np.all(backward_chain(trace, params, upstream).att == 0.0)
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

    def test_identity_activation_kills_theta_r(self):
        """At negative_slope 1 LeakyReLU is the identity on both sides of 0,
        so the target's part of every score is one shift that the softmax
        removes: every theta_R form is exactly zero at every node, diagnose
        calls every row dead (static attention, Brody et al. 2022), and the
        oracle flags no entry, though the pre-activations take both signs."""
        g, feats, params = generate_instance(12, 3, 4, seed=2)
        params = LayerParams(params.theta_r, params.theta_l, params.att, params.bias, 1.0)
        upstream = np.random.default_rng(2).standard_normal(4)
        saw_both_signs = False
        for node in range(12):
            trace = forward_with_trace(params, g, feats, node)
            for mat in (
                grad_theta_r_sum(trace, params, upstream),
                grad_theta_r_pairwise(trace, params, upstream),
                backward_chain(trace, params, upstream).theta_r,
            ):
                assert np.all(mat == 0.0), node
            flags = fd_gradient(trace, params, upstream).kink_flags
            assert not any(mask.any() for mask in flags.values()), node
            positive = trace.pre_act > 0.0
            saw_both_signs |= bool(np.any(positive != positive[:1]))
        assert saw_both_signs
        report = diagnose(params, g, feats)
        assert len(report) == 12
        assert all(all(entry.dead_theta_r) for entry in report)
        assert all(entry.regime_uniformity == 1.0 for entry in report)


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
                assert _relative_error(s, p).max() <= 1e-12

    def test_both_forms_read_the_traces_slopes(self):
        """Traces at slope 0.2 passed with params at slope 0.5: both forms
        take LeakyReLU's regimes and slopes from the trace, so they still
        agree at every node."""
        g, feats, params = generate_instance(30, 3, 4, seed=11)
        other = LayerParams(params.theta_r, params.theta_l, params.att, params.bias, 0.5)
        upstream = np.random.default_rng(11).standard_normal(4)
        saw_live_row = False
        for node in range(30):
            trace = forward_with_trace(params, g, feats, node)
            s = grad_theta_r_sum(trace, other, upstream)
            p = grad_theta_r_pairwise(trace, other, upstream)
            assert _relative_error(s, p).max() <= 1e-12, node
            saw_live_row |= bool(np.any(s != 0.0))
        assert saw_live_row

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


def check_against_pair_loop(trace, params, upstream):
    """grad_theta_r_pairwise against the plain pair loop, within
    test_matches_double_loop_reference's bound; rows whose activation regime
    is one across the neighbors, and every row at negative_slope 1, are
    exactly zero."""
    eps = np.finfo(np.float64).eps
    n, d = trace.num_neighbors, params.out_dim
    slopes = np.where(trace.pre_act > 0.0, 1.0, params.negative_slope)
    totals = trace.source_proj.sum(axis=1)
    coeff = np.zeros(d)
    magnitude = np.zeros(d)
    for k in range(n):
        for j in range(k + 1, n):
            pair = trace.alpha[k] * trace.alpha[j] * (totals[k] - totals[j])
            coeff += pair * (slopes[k] - slopes[j])
            magnitude += np.abs(pair * (slopes[k] - slopes[j]))
    row_scale = upstream * params.att
    want = np.outer(row_scale * coeff, trace.h_aug_target)
    got = grad_theta_r_pairwise(trace, params, upstream)
    bound = 2 * n * eps * np.outer(np.abs(row_scale) * magnitude, np.abs(trace.h_aug_target))
    assert np.all(np.abs(got - want) <= bound)
    positive = trace.pre_act > 0.0
    one_regime = np.all(positive == positive[:1], axis=0)
    assert np.all(got[one_regime] == 0.0)
    if params.negative_slope == 1.0:
        assert np.all(got == 0.0)
    return one_regime


class TestPairBlocks:
    """The pair triangle split over many row blocks by a small edge budget."""

    @pytest.mark.parametrize("budget", [1, 3, 17])
    @pytest.mark.parametrize("slope", [0.2, 1.0])
    def test_blocks_match_pair_loop(self, monkeypatch, budget, slope):
        # At budget 1 and D = 4, every node of degree 3 or more takes one
        # row per block; degrees reach 40.
        monkeypatch.setattr(layer, "EDGE_BUDGET", budget)
        saw = {"one_regime": False, "blocks": False}
        for seed in range(2):
            g, feats, params = generate_instance(41, 3, 4, seed=seed)
            th = params.theta_r.copy()
            th[0, 0] = 80.0  # row 0 sits on the positive branch at every neighbor
            params = LayerParams(th, params.theta_l, params.att, params.bias, slope)
            upstream = np.random.default_rng(seed).standard_normal(4)
            for node in range(41):
                trace = forward_with_trace(params, g, feats, node)
                one_regime = check_against_pair_loop(trace, params, upstream)
                saw["one_regime"] |= bool(one_regime[0])
                saw["blocks"] |= budget * 4 // trace.num_neighbors < trace.num_neighbors - 1
        assert all(saw.values())

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        slope=st.sampled_from([0.01, 0.2, 0.5, 0.99, 1.0]),
        budget=st.sampled_from([1, 2, 5, layer.EDGE_BUDGET]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_blocks_match_pair_loop_property(self, n, d, slope, budget, seed):
        rng = np.random.default_rng(seed)
        pre_act = rng.standard_normal((n, d))
        pre_act[rng.random((n, d)) < 0.1] = 0.0  # the kink, on the negative branch
        pre_act[:, ::3] = -np.abs(pre_act[:, ::3])  # one-regime dimensions
        trace = synthetic_trace(
            alpha=random_alpha(rng, n),
            source_proj=rng.standard_normal((n, d)),
            pre_act=pre_act,
            h_aug_target=np.append(rng.standard_normal(2), 1.0),
            h_aug_sources=np.ones((n, 3)),
            slope=slope,
        )
        params = LayerParams(np.zeros((d, 3)), np.zeros((d, 3)), rng.standard_normal(d),
                             np.zeros(d), slope)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            # For N <= 1 the bound is 0: an exact zero matrix.
            check_against_pair_loop(trace, params, rng.standard_normal(d))

    def test_block_record_rejected(self):
        """A block's record, of one target or many, is refused before any
        product, with its shape named: the pair form takes one node's trace."""
        graph = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 1), (4, 2)))
        feats = np.random.default_rng(3).standard_normal((5, 2))
        params = generate_instance(5, 2, 3, seed=3)[2]
        shapes = set()
        for nodes, _, block in layer._graph_chunks(params, graph, feats):
            message = rf"alpha \({len(nodes)}, {block.num_neighbors}\).*grad_theta_r_sum takes blocks"
            with pytest.raises(ValueError, match=message):
                grad_theta_r_pairwise(block, params, np.ones(3))
            shapes.add(block.alpha.shape)
        assert shapes == {(4, 1), (1, 3)}

    def test_memory_stays_within_the_block_bound(self):
        """A hub of 2,000 neighbors at D = 4: its full pair triangle would
        take 32 MB, one block at most one (EDGE_BUDGET, D) float64 array."""
        rng = np.random.default_rng(0)
        n, d = 2000, 4
        trace = synthetic_trace(
            alpha=random_alpha(rng, n),
            source_proj=rng.standard_normal((n, d)),
            pre_act=rng.standard_normal((n, d)),
            h_aug_target=[0.5, 1.0],
            h_aug_sources=np.ones((n, 2)),
        )
        params = LayerParams(np.zeros((d, 2)), np.zeros((d, 2)), np.ones(d), np.zeros(d), 0.2)
        upstream = np.ones(d)
        tracemalloc.start()
        try:
            got = grad_theta_r_pairwise(trace, params, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * layer.EDGE_BUDGET * d * 8
        want = grad_theta_r_sum(trace, params, upstream)
        assert _relative_error(got, want).max() <= 1e-9


def permuted(graph, feats, perm):
    """The instance with node i renamed perm[i], edges in the same order."""
    edges = tuple((int(perm[i]), int(perm[j])) for i, j in graph.edges)
    out = np.empty_like(feats)
    out[perm] = feats
    return Graph(graph.num_nodes, edges), out


def neighbor_order_reversed(graph):
    s, o = graph.sources, graph.offsets
    edges = tuple((i, int(j)) for i in range(graph.num_nodes) for j in s[o[i] : o[i + 1]][::-1])
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
            s, o, s2, o2 = graph.sources, graph.offsets, graph2.sources, graph2.offsets
            i = perm[node]
            assert s2[o2[i] : o2[i + 1]].tolist() == perm[s[o[node] : o[node + 1]]].tolist()
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
            s, o, s2, o2 = graph.sources, graph.offsets, graph2.sources, graph2.offsets
            assert s2[o2[node] : o2[node + 1]].tolist() == s[o[node] : o[node + 1]][::-1].tolist()
            scale = max(1.0, float(np.abs(a.h_out).max()))
            assert np.abs(a.h_out - b.h_out).max() <= 1e-13 * scale
            np.testing.assert_allclose(b.alpha, a.alpha[::-1], rtol=1e-13, atol=0)
            chain = backward_chain(b, params, upstream)
            numeric = fd_gradient(b, params, upstream)
            checks = compare_gradients(chain, numeric, 1e-12)
            assert all(c["pass"] for c in checks.values()), {
                k: c["max_rel_err"] for k, c in checks.items()
            }


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
            backward_chain(trace, params, upstream).att, expect, rtol=1e-10, atol=1e-13
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
        numeric = fd_gradient(trace, self.params, upstream)
        checks = compare_gradients(chain, numeric)
        assert all(c["pass"] for c in checks.values()), {
            k: c["max_rel_err"] for k, c in checks.items()
        }
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
                _relative_error(
                    grad_theta_r_sum(trace, self.params, upstream), chain.theta_r
                ).max()
                <= 1e-10
            )
            assert (
                _relative_error(
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
        payload = _gradients_json(chain, 0, trace.num_neighbors, "uniform")
        assert list(payload) == ["theta_R", "theta_L", "a", "b", "meta"]
        assert payload["meta"] == {
            "target_node": 0,
            "N": trace.num_neighbors,
            "upstream_mode": "uniform",
        }
        assert np.asarray(payload["theta_R"]).shape == (3, 3)


class TestGradientSetArrays:
    def test_copies_leave_caller_arrays_writable(self):
        """The set freezes its own copies, never the caller's arrays."""
        blocks = [np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), np.zeros(2)]
        grads = GradientSet(*blocks)
        for block, frozen in zip(blocks, grads.as_dict().values()):
            assert block.flags.writeable
            assert not frozen.flags.writeable
            assert not np.shares_memory(block, frozen)
        blocks[0][0, 0] = 1.0
        assert grads.theta_r[0, 0] == 0.0

    @pytest.mark.parametrize("field", ["theta_r", "theta_l", "att", "bias"])
    @pytest.mark.parametrize("bad", ["1.5", True, np.ones(2, dtype=bool), None],
                             ids=["str", "bool", "bool-array", "None"])
    def test_malformed_block_rejected(self, field, bad):
        """Malformed blocks are rejected, never coerced, as LayerParams rejects them."""
        blocks = dict(theta_r=np.zeros((2, 3)), theta_l=np.zeros((2, 3)), att=np.zeros(2),
                      bias=np.zeros(2))
        blocks[field] = bad
        with pytest.raises(TypeError, match=f"{field} must hold integers or floats"):
            GradientSet(**blocks)

    def test_integer_blocks_accepted(self):
        grads = GradientSet([[1, 2]], np.array([[3, 4]], dtype=np.uint8), [5], np.float32([6]))
        assert all(block.dtype == np.float64 for block in grads.as_dict().values())
        assert grads.theta_l.tolist() == [[3.0, 4.0]]
