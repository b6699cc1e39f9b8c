"""Forward pass: scoring, neighbor softmax, aggregation, trace caching."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gatgrad import (
    Graph,
    LayerParams,
    forward_with_trace,
    generate_instance,
    leaky_relu,
    load_params,
    neighbor_softmax,
    save_params,
)
from gatgrad.layer import ForwardTrace, _propagate


def attention_score(params, h_aug_target, h_aug_source):
    """Reference: raw attention score of one target/source pair."""
    pre = params.theta_r @ h_aug_target + params.theta_l @ h_aug_source
    return float(params.att @ leaky_relu(pre, params.negative_slope))


def update_node(params, alpha, source_proj):
    """Reference: bias plus the attention-weighted sum of projected sources."""
    messages = np.asarray(alpha)[:, None] * np.asarray(source_proj)
    return params.bias + messages.sum(axis=0)


def forward_per_neighbor(params, graph, features, node):
    """Reference trace: augmented rows [1, *h] built one neighbor at a time."""
    nbrs = graph.neighbors(node)
    h_aug_target = np.array([1.0, *features[node]])
    if nbrs:
        h_aug_sources = np.stack([np.array([1.0, *features[j]]) for j in nbrs])
    else:
        h_aug_sources = np.zeros((0, params.feature_dim + 1))
    target_proj, *edge_arrays, h_out = _propagate(
        params.theta_r, params.theta_l, params.att, params.bias,
        params.negative_slope, h_aug_target[None, :], h_aug_sources, np.zeros(1, dtype=int),
    )
    return ForwardTrace(
        node, nbrs, h_aug_target, h_aug_sources, target_proj[0], *edge_arrays, h_out[0]
    )


def isolated_and_self_loop(seed, n=6, h=3, d=4):
    """A seeded instance where node 0 has no neighbors and node 1 lists itself."""
    graph, feats, params = generate_instance(n, h, d, seed=seed)
    edges = [e for e in graph.edges if e[0] != 0]
    if (1, 1) not in edges:
        edges.append((1, 1))
    return Graph(n, tuple(edges)), feats, params


score_vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=8
)


def simple_params(**overrides):
    base = dict(
        theta_r=[[0.0, 1.0]],
        theta_l=[[0.0, -1.0]],
        att=[3.0],
        bias=[0.0],
        negative_slope=0.2,
    )
    base.update(overrides)
    return LayerParams(**base)


class TestLayerParams:
    def test_dims(self):
        p = LayerParams(np.zeros((3, 5)), np.zeros((3, 5)), np.zeros(3), np.zeros(3))
        assert p.out_dim == 3 and p.feature_dim == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LayerParams(np.zeros((3, 5)), np.zeros((3, 4)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            LayerParams(np.zeros((3, 5)), np.zeros((3, 5)), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
    def test_slope_range_enforced(self, slope):
        with pytest.raises(ValueError, match="negative_slope"):
            LayerParams(np.zeros((1, 2)), np.zeros((1, 2)), [0.0], [0.0], slope)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="theta_l"):
            LayerParams(np.zeros((1, 2)), [[np.nan, 0.0]], [0.0], [0.0])

    def test_arrays_frozen(self):
        p = simple_params()
        with pytest.raises(ValueError):
            p.theta_r[0, 0] = 5.0


class TestLeakyRelu:
    def test_zero_takes_negative_branch_value(self):
        # Value at 0 is 0 either way; the slope convention shows up in grads.
        assert leaky_relu(np.array([0.0]), 0.2)[0] == 0.0

    def test_branches(self):
        out = leaky_relu(np.array([-2.0, 3.0]), 0.25)
        assert out.tolist() == [-0.5, 3.0]


class TestAttentionScore:
    def test_zero_attention_vector(self):
        p = simple_params(att=[0.0])
        assert attention_score(p, np.array([1.0, 1.0]), np.array([1.0, 2.0])) == 0.0

    def test_zero_weights(self):
        p = simple_params(theta_r=[[0.0, 0.0]], theta_l=[[0.0, 0.0]])
        assert attention_score(p, np.array([1.0, 4.0]), np.array([1.0, -7.0])) == 0.0

    def test_hand_value(self):
        # pre-activation 1 + (-2) = -1, LeakyReLU -> -0.2, dotted with 3.
        p = simple_params()
        score = attention_score(p, np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert score == pytest.approx(-0.6, rel=1e-12)

    def test_shape_mismatch(self):
        p = simple_params()
        with pytest.raises(ValueError):
            attention_score(p, np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0]))


class TestNeighborSoftmax:
    def test_single_score(self):
        assert neighbor_softmax(np.array([5.7])).tolist() == [1.0]

    def test_uniform_scores(self):
        np.testing.assert_allclose(
            neighbor_softmax(np.array([3.3, 3.3, 3.3])), np.full(3, 1 / 3), rtol=1e-15
        )

    def test_hand_value(self):
        np.testing.assert_allclose(
            neighbor_softmax(np.array([0.0, math.log(3.0)])),
            [0.25, 0.75],
            rtol=1e-12,
        )

    def test_integer_scores(self):
        np.testing.assert_allclose(
            neighbor_softmax([0, 0, 1]), np.array([1, 1, math.e]) / (2 + math.e), rtol=1e-15
        )

    def test_empty_input(self):
        assert neighbor_softmax(np.zeros(0)).size == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            neighbor_softmax(np.array([0.0, np.inf]))

    def test_large_scores_do_not_overflow(self):
        out = neighbor_softmax(np.array([1000.0, 990.0]))
        assert np.isfinite(out).all() and abs(out.sum() - 1.0) <= 1e-12

    @given(score_vectors, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_shift_invariance(self, scores, offset):
        base = neighbor_softmax(np.array(scores))
        shifted = neighbor_softmax(np.array(scores) + offset)
        assert np.abs(shifted - base).max() <= 1e-12

    @given(score_vectors)
    def test_normalized_and_positive(self, scores):
        out = neighbor_softmax(np.array(scores))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert ((out > 0.0) & (out <= 1.0)).all()


class TestUpdateNode:
    def test_no_neighbors_yields_bias(self):
        p = simple_params(bias=[4.25])
        out = update_node(p, np.zeros(0), np.zeros((0, 1)))
        assert out.tolist() == [4.25]

    def test_single_neighbor(self):
        p = simple_params(bias=[1.0])
        out = update_node(p, np.array([1.0]), np.array([[2.5]]))
        assert out.tolist() == [3.5]

    def test_hand_value(self):
        # 1 + 0.25 * 2 + 0.75 * 4 = 4.5
        p = simple_params(bias=[1.0])
        out = update_node(p, np.array([0.25, 0.75]), np.array([[2.0], [4.0]]))
        assert out.tolist() == [4.5]


class TestForwardWithTrace:
    def hand_instance(self):
        graph = Graph(3, ((0, 1), (0, 2)))
        feats = np.array([[1.0], [2.0], [4.0]])
        params = LayerParams([[0.0, 1.0]], [[0.0, 1.0]], [1.0], [1.0], 0.2)
        return params, graph, feats

    def test_isolated_node(self):
        params, graph, feats = self.hand_instance()
        trace = forward_with_trace(params, graph, feats, 1)
        assert trace.num_neighbors == 0
        assert trace.h_out.tolist() == params.bias.tolist()

    def test_hand_instance_composition(self):
        params, graph, feats = self.hand_instance()
        trace = forward_with_trace(params, graph, feats, 0)
        # pre-activations 1 + {2, 4}, all positive, scores {3, 5}
        np.testing.assert_allclose(trace.scores, [3.0, 5.0], rtol=1e-15)
        expect_alpha = np.exp([0.0, 2.0]) / np.exp([0.0, 2.0]).sum()
        np.testing.assert_allclose(trace.alpha, expect_alpha, rtol=1e-14)
        expect_out = 1.0 + expect_alpha[0] * 2.0 + expect_alpha[1] * 4.0
        np.testing.assert_allclose(trace.h_out, [expect_out], rtol=1e-14)

    def test_scores_match_pairwise_scoring(self):
        g, feats, params = generate_instance(5, 3, 4, seed=42)
        trace = forward_with_trace(params, g, feats, 0)
        for k, j in enumerate(trace.neighbors):
            expect = attention_score(
                params, np.array([1.0, *feats[0]]), np.array([1.0, *feats[j]])
            )
            assert trace.scores[k] == pytest.approx(expect, rel=1e-13)

    def test_seeded_instance_properties(self):
        g, feats, params = generate_instance(5, 3, 4, seed=42)
        for node in range(5):
            trace = forward_with_trace(params, g, feats, node)
            assert np.isfinite(trace.h_out).all()
            if trace.num_neighbors:
                assert abs(trace.alpha.sum() - 1.0) <= 1e-12
                assert ((trace.alpha > 0) & (trace.alpha <= 1)).all()

    def test_trace_fields_recompute_bitwise(self):
        g, feats, params = generate_instance(6, 2, 3, seed=9)
        trace = forward_with_trace(params, g, feats, 2)
        assert np.array_equal(trace.target_proj, params.theta_r @ trace.h_aug_target)
        assert np.array_equal(trace.source_proj, trace.h_aug_sources @ params.theta_l.T)
        assert np.array_equal(
            trace.pre_act, trace.target_proj[None, :] + trace.source_proj
        )
        assert np.array_equal(
            trace.post_act, leaky_relu(trace.pre_act, params.negative_slope)
        )
        assert np.array_equal(trace.scores, trace.post_act @ params.att)
        assert np.array_equal(trace.alpha, neighbor_softmax(trace.scores))
        assert np.array_equal(trace.messages, trace.alpha[:, None] * trace.source_proj)
        assert np.array_equal(
            trace.h_out, params.bias + trace.messages.sum(axis=0)
        )
        assert np.array_equal(
            trace.h_out, update_node(params, trace.alpha, trace.source_proj)
        )

    def test_pure_function(self):
        g, feats, params = generate_instance(4, 2, 2, seed=3)
        t1 = forward_with_trace(params, g, feats, 1)
        t2 = forward_with_trace(params, g, feats, 1)
        assert np.array_equal(t1.h_out, t2.h_out)
        assert np.array_equal(t1.alpha, t2.alpha)
        assert np.array_equal(t1.pre_act, t2.pre_act)

    def test_output_within_projection_envelope(self):
        """h_out - bias is a convex combination of the projected sources."""
        g, feats, params = generate_instance(6, 3, 4, seed=11)
        for node in range(6):
            trace = forward_with_trace(params, g, feats, node)
            if trace.num_neighbors == 0:
                continue
            pulled = trace.h_out - params.bias
            lo = trace.source_proj.min(axis=0) - 1e-12
            hi = trace.source_proj.max(axis=0) + 1e-12
            assert ((pulled >= lo) & (pulled <= hi)).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_gathered_rows_match_per_neighbor_reference(self, seed):
        """Every trace field equals the one-neighbor-at-a-time build, bit for bit."""
        graph, feats, params = isolated_and_self_loop(seed)
        assert graph.neighbors(0) == () and 1 in graph.neighbors(1)
        for node in range(graph.num_nodes):
            trace = forward_with_trace(params, graph, feats, node)
            expect = forward_per_neighbor(params, graph, feats, node)
            assert trace.node == expect.node and trace.neighbors == expect.neighbors
            for field in dataclasses.fields(ForwardTrace)[2:]:
                got, want = getattr(trace, field.name), getattr(expect, field.name)
                assert got.shape == want.shape, field.name
                assert np.array_equal(got, want), field.name

    def test_feature_dim_mismatch(self):
        g, feats, params = generate_instance(4, 2, 2, seed=3)
        with pytest.raises(ValueError, match="feature dim"):
            forward_with_trace(params, g, feats[:, :1], 0)


class TestParamsFiles:
    def test_roundtrip(self, tmp_path):
        _, _, params = generate_instance(3, 2, 4, seed=1)
        path = tmp_path / "params.json"
        save_params(path, params)
        back = load_params(path)
        assert np.array_equal(back.theta_r, params.theta_r)
        assert np.array_equal(back.theta_l, params.theta_l)
        assert np.array_equal(back.att, params.att)
        assert np.array_equal(back.bias, params.bias)
        assert back.negative_slope == params.negative_slope

    def test_declared_shape_mismatch_rejected(self, tmp_path):
        _, _, params = generate_instance(3, 2, 4, seed=1)
        path = tmp_path / "params.json"
        save_params(path, params)
        raw = json.loads(path.read_text())
        raw["D"] = 5
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="D=5"):
            load_params(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("D", 1.9),
            ("negative_slope", "0.2"),
            ("theta_R", [[True, False]]),
        ],
    )
    def test_coercible_values_rejected(self, tmp_path, key, value):
        raw = {"D": 1, "H": 1, "negative_slope": 0.2, "theta_R": [[0.1, 0.2]],
               "theta_L": [[0.3, 0.4]], "a": [1.0], "b": [2.5]}
        raw[key] = value
        path = tmp_path / "params.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as err:
            load_params(path)
        assert str(path) in str(err.value) and key in str(err.value)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"D": 1, "H": 1}')
        with pytest.raises(ValueError, match="malformed"):
            load_params(path)


# _propagate's results in order, and the parameter blocks (theta_R, theta_L,
# a, b by position) each one depends on.
CORE_RESULTS = (
    ("target_proj", {0}),
    ("source_proj", {1}),
    ("pre_act", {0, 1}),
    ("post_act", {0, 1}),
    ("scores", {0, 1, 2}),
    ("alpha", {0, 1, 2}),
    ("messages", {0, 1, 2}),
    ("h_out", {0, 1, 2, 3}),
)


class TestBatchAxis:
    """A parameter block with a leading batch axis broadcasts through the core."""

    @pytest.mark.parametrize("counts", [(5,), (0,), (1,), (3, 1, 4, 2)])
    @pytest.mark.parametrize("stacked", [(0,), (1,), (2,), (3,), (0, 1, 2, 3)])
    def test_stacked_copies_equal_unbatched_bitwise(self, counts, stacked):
        """B stacked copies of the same float64 blocks give B copies of the
        unbatched result, bit for bit, for a lone segment (empty, single
        neighbor or several) and for several segments."""
        rng = np.random.default_rng(len(counts) * 10 + sum(counts))
        _, _, params = generate_instance(4, 3, 5, seed=sum(counts))
        targets = np.column_stack([np.ones(len(counts)), rng.standard_normal((len(counts), 3))])
        sources = np.column_stack([np.ones(sum(counts)), rng.standard_normal((sum(counts), 3))])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)
        blocks = [params.theta_r, params.theta_l, params.att, params.bias]
        rest = (params.negative_slope, targets, sources, starts)
        single = _propagate(*blocks, *rest)
        batch = [np.stack([b] * 3) if pos in stacked else b for pos, b in enumerate(blocks)]
        batched = _propagate(*batch, *rest)
        for (name, depends), one, many in zip(CORE_RESULTS, single, batched):
            want = (3, *one.shape) if depends & set(stacked) else one.shape
            assert many.shape == want, name
            assert np.array_equal(np.broadcast_to(one, want), many), name
