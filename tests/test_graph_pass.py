"""The edge-parallel whole-graph pass against the per-node path.

forward_graph and diagnose evaluate every node at once, by segment
reductions over the edges grouped by target; forward_with_trace and the
per-node gradient functions are the reference. Instances cover isolated
nodes, self-loops, single neighbors, huge scores (exact integer arithmetic
scaled so that most attention weights underflow to zero) and, with
layer.EDGE_BUDGET patched small, passes split into many chunks.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatgrad import (
    Graph,
    LayerParams,
    backward_chain,
    closed_form_gap,
    diagnose,
    forward_graph,
    forward_with_trace,
    generate_instance,
    grad_theta_r_pairwise,
)
from gatgrad import grads, layer
from gatgrad.grads import REL_ERR_FLOOR, grad_bias, grad_theta_l, grad_theta_r_sum

# Kink band of the dead-row comparison: a pre-activation this close to 0 may
# land on either LeakyReLU branch once a sum is reassociated.
KINK_BAND = 1e-9
TOL = 1e-13


@st.composite
def instances(draw):
    """(graph, features, params): random topology, self-loops allowed, edges
    listed in shuffled order. `huge` instances use small integers and a slope
    of 1/4, so every score is computed exactly, and scale the attention
    vector by 64, so scores reach the thousands."""
    n = draw(st.integers(1, 7))
    h, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.8, 1.0]))
    huge = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = np.argwhere(rng.random((n, n)) < density)
    edges = tuple((int(i), int(j)) for i, j in rng.permutation(pairs))
    if huge:
        draw_block = lambda *shape: rng.integers(-3, 4, size=shape).astype(float)
        slope = 0.25
    else:
        draw_block = lambda *shape: rng.standard_normal(shape)
        slope = 0.2
    features = draw_block(n, h)
    params = LayerParams(
        draw_block(d, h + 1), draw_block(d, h + 1), draw_block(d) * (64 if huge else 1),
        draw_block(d), slope,
    )
    return Graph(n, edges), features, params


budgets = st.sampled_from([1, 2, 3, 5, layer.EDGE_BUDGET])


def requested_nodes(n):
    """Node lists in any order, with repeats and isolated nodes."""
    return st.lists(st.integers(0, n - 1), max_size=2 * n)


def term_scale(params, trace):
    """Magnitude of the terms summed into h_out: the scale of its rounding."""
    return np.abs(params.bias) + trace.alpha @ np.abs(trace.source_proj)


def backward_scale(params, trace, upstream):
    """Magnitude of the terms the backward formulas sum for one node, the
    scale of their rounding. Where one weight dominates a segment, the score
    gradients (and centered totals) cancel far below it."""
    totals = np.abs(trace.source_proj).sum(axis=1).max()
    rows = max(np.abs(trace.h_aug_sources).max(), np.abs(trace.h_aug_target).max())
    return max(1.0, np.abs(params.att).max()) * max(1.0, totals) * np.abs(upstream).max() * rows


def check_forward(graph, features, params):
    alpha, h_out = forward_graph(params, graph, features)
    assert alpha.shape == (len(graph.edges),)
    assert h_out.shape == (graph.num_nodes, params.out_dim)
    for node in range(graph.num_nodes):
        trace = forward_with_trace(params, graph, features, node)
        got = alpha[graph.offsets[node] : graph.offsets[node + 1]]
        assert got.shape == trace.alpha.shape
        if trace.num_neighbors:
            assert np.abs(got - trace.alpha).max() <= TOL * trace.alpha.max()
        assert np.all(np.abs(h_out[node] - trace.h_out) <= TOL * term_scale(params, trace))


def reference_diagnosis(params, graph, features, node, upstream):
    """Per-node indicators from one trace: the definitions diagnose must meet."""
    trace = forward_with_trace(params, graph, features, node)
    if trace.num_neighbors == 0:
        return trace, np.ones(params.out_dim, dtype=bool), 0.0, 0.0
    slopes = np.where(trace.pre_act > 0.0, 1.0, params.negative_slope)
    dead = np.all(slopes == slopes[0], axis=0)
    alpha = trace.alpha[trace.alpha > 0.0]
    entropy = float(-(alpha * np.log(alpha)).sum())
    return trace, dead, entropy, closed_form_gap(trace, params, upstream)


def check_diagnose(graph, features, params, nodes, upstream):
    report = diagnose(params, graph, features, nodes, upstream)
    assert [e.node for e in report] == list(nodes)
    for entry in report:
        trace, dead, entropy, gap = reference_diagnosis(
            params, graph, features, entry.node, upstream
        )
        assert entry.num_neighbors == trace.num_neighbors
        assert entry.single_neighbor == (trace.num_neighbors <= 1)
        near_kink = (np.abs(trace.pre_act) <= KINK_BAND).any(axis=0)
        got = np.array(entry.dead_theta_r)
        assert np.all((got == dead) | near_kink)
        assert entry.regime_uniformity == got.mean()
        assert abs(entry.attention_entropy - entropy) <= TOL
        assert abs(entry.closed_form_gap - gap) <= TOL
    return report


class TestForwardGraph:
    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets)
    def test_matches_per_node_traces(self, instance, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            check_forward(*instance)

    def test_isolated_node_outputs_bias(self):
        graph = Graph(3, ((0, 1), (0, 0)))
        feats = np.array([[0.5], [2.0], [-1.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.25])
        alpha, h_out = forward_graph(params, graph, feats)
        assert h_out[1].tolist() == h_out[2].tolist() == [0.25]
        assert alpha.size == 2 and alpha.sum() == pytest.approx(1.0, rel=1e-15)

    def test_chunks_never_split_a_node(self, monkeypatch):
        graph, feats, params = generate_instance(9, 2, 3, seed=4, min_degree=1)
        monkeypatch.setattr(layer, "EDGE_BUDGET", 4)
        nodes = np.flatnonzero(np.diff(graph.offsets))
        chunks = list(layer._graph_chunks(params, graph, feats, nodes))
        assert len(chunks) >= 3
        assert np.concatenate([run for run, *_ in chunks]).tolist() == nodes.tolist()
        edges = np.concatenate([e for _, e, *_ in chunks])
        assert edges.tolist() == list(range(len(graph.edges)))
        for run, edges, starts, *_ in chunks:
            degrees = np.diff(graph.offsets)[run]
            assert len(edges) <= 4 or len(run) == 1
            assert starts.tolist() == np.concatenate(([0], np.cumsum(degrees)[:-1])).tolist()

    def test_non_finite_feature_names_node_and_index(self):
        graph = Graph(3, ((0, 1),))
        feats = np.array([[0.5, 1.0], [2.0, 3.0], [1.0, np.inf]])
        params = LayerParams(np.ones((1, 3)), np.ones((1, 3)), [1.0], [0.0])
        with pytest.raises(ValueError, match="index 1 of node 2"):
            forward_graph(params, graph, feats)

    def test_feature_shape_checked(self):
        graph, feats, params = generate_instance(4, 2, 2, seed=3)
        with pytest.raises(ValueError, match="feature dim"):
            forward_graph(params, graph, feats[:, :1])
        with pytest.raises(ValueError, match="does not cover"):
            forward_graph(params, graph, feats[:3])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_scores_rejected(self):
        graph = Graph(2, ((0, 1), (0, 0)))
        feats = np.array([[1e300], [-1e300]])
        params = LayerParams([[0.0, 1e10]], [[0.0, 1.0]], [1.0], [0.0])
        with pytest.raises(ValueError, match="non-finite attention score"):
            forward_graph(params, graph, feats)


class TestDiagnoseGraphPass:
    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets, st.data())
    def test_matches_per_node_reference(self, instance, budget, data):
        graph, features, params = instance
        nodes = data.draw(requested_nodes(graph.num_nodes))
        uniform = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upstream = np.ones(params.out_dim) if uniform else rng.standard_normal(params.out_dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            check_diagnose(graph, features, params, nodes, upstream)
            default = diagnose(params, graph, features, upstream=upstream)
        connected = [i for i in range(graph.num_nodes) if graph.neighbors(i)]
        assert [e.node for e in default] == connected

    @pytest.mark.parametrize("seed", range(3))
    def test_gap_vanishes_under_constant_upstream(self, seed):
        graph, feats, params = generate_instance(40, 16, 16, seed=seed)
        for scale in (1.0, -3.0):
            upstream = np.full(16, scale)
            report = check_diagnose(graph, feats, params, range(40), upstream)
            assert max(e.closed_form_gap for e in report) <= 1e-13


class TestSegmentBackward:
    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets, st.data())
    def test_chunk_stacks_match_per_node_routes(self, instance, budget, data):
        """grads.py's segment functions over chunks of many segments give
        every node's backward_chain and closed forms, as their one-segment
        case does."""
        graph, features, params = instance
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upstream = rng.standard_normal(params.out_dim)
        connected = np.flatnonzero(np.diff(graph.offsets))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            chunks = list(layer._graph_chunks(params, graph, features, connected))
        for run, _, starts, targets, sources, arrays in chunks:
            _, source_proj, pre_act, post_act, _, alpha, _, _ = arrays
            segs = grads._segments(
                starts, targets, sources, source_proj, pre_act, post_act, alpha,
                params.negative_slope,
            )
            weights = grads._closed_weights(segs)
            chain_r, chain_l, d_score = grads._segment_chain(segs, params, upstream)
            stacks = (
                chain_r,
                chain_l,
                layer._segment_dot(d_score, segs.post_act, starts),
                grads._segment_theta_r_sum(segs, params, upstream, weights),
                grads._segment_theta_l(segs, params, upstream, weights),
            )
            for k, node in enumerate(run):
                trace = forward_with_trace(params, graph, features, node)
                chain = backward_chain(trace, params, upstream)
                want = (
                    chain.theta_r,
                    chain.theta_l,
                    chain.att,
                    grad_theta_r_sum(trace, params, upstream),
                    grad_theta_l(trace, params, upstream),
                )
                scale = backward_scale(params, trace, upstream)
                for stack, block in zip(stacks, want):
                    assert np.abs(stack[k] - block).max() <= TOL * scale


class TestScoreShift:
    """Adding c to theta_R[t, 0] moves pre-activation t of every edge of a
    node by c. Where they all sit on one LeakyReLU branch with a margin above
    |c|, every score of the node's segment moves by one constant, which the
    softmax absorbs: the paper's dead-row case."""

    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets, st.data())
    def test_uniform_regime_shift_changes_nothing(self, instance, budget, data):
        graph, features, params = instance
        connected = [i for i in range(graph.num_nodes) if graph.neighbors(i)]
        assume(connected)
        node = data.draw(st.sampled_from(connected))
        t = data.draw(st.integers(0, params.out_dim - 1))
        c = data.draw(st.sampled_from([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upstream = rng.standard_normal(params.out_dim)
        # Move pre-activation t of every edge of the node 1 clear of the kink.
        pre = forward_with_trace(params, graph, features, node).pre_act[:, t]
        theta_r = params.theta_r.copy()
        theta_r[t, 0] += 1.0 - pre.min() if data.draw(st.booleans()) else -1.0 - pre.max()
        base = LayerParams(theta_r, params.theta_l, params.att, params.bias, params.negative_slope)
        theta_r[t, 0] += c
        moved = LayerParams(theta_r, params.theta_l, params.att, params.bias, params.negative_slope)
        before = forward_with_trace(base, graph, features, node)
        after = forward_with_trace(moved, graph, features, node)
        assert np.all(np.abs(after.pre_act[:, t] - before.pre_act[:, t] - c) <= 1e-12)
        assert np.all(np.abs(after.alpha - before.alpha) <= TOL)
        assert np.all(np.abs(after.h_out - before.h_out) <= TOL * term_scale(base, before))
        old = backward_chain(before, base, upstream).as_dict()
        new = backward_chain(after, moved, upstream).as_dict()
        scale = backward_scale(base, before, upstream)
        for key in old:
            assert np.abs(new[key] - old[key]).max() <= TOL * scale, key
        for p, trace in ((base, before), (moved, after)):
            assert np.all(grad_theta_r_sum(trace, p, upstream)[t] == 0.0)
            assert np.all(grad_theta_r_pairwise(trace, p, upstream)[t] == 0.0)
            assert np.all(backward_chain(trace, p, upstream).theta_r[t] == 0.0)
        # Through the whole-graph pass, in chunks that split the graph.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            (old_entry,), (new_entry,) = (
                [e for e in diagnose(p, graph, features, upstream=upstream) if e.node == node]
                for p in (base, moved)
            )
            lo, hi = graph.offsets[node], graph.offsets[node + 1]
            old_alpha, new_alpha = (
                forward_graph(p, graph, features)[0][lo:hi] for p in (base, moved)
            )
        assert old_entry.dead_theta_r[t] and new_entry.dead_theta_r[t]
        assert abs(new_entry.attention_entropy - old_entry.attention_entropy) <= TOL
        assert np.all(np.abs(new_alpha - old_alpha) <= TOL)


class TestRelabelling:
    @settings(deadline=None, max_examples=100)
    @given(instances(), budgets, st.data())
    def test_outputs_permute_with_the_nodes(self, instance, budget, data):
        graph, features, params = instance
        n = graph.num_nodes
        perm = np.array(data.draw(st.permutations(range(n))))
        moved = Graph(n, tuple((int(perm[i]), int(perm[j])) for i, j in graph.edges))
        moved_features = np.empty_like(features)
        moved_features[perm] = features
        nodes = data.draw(requested_nodes(n))
        upstream = np.ones(params.out_dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            alpha, h_out = forward_graph(params, graph, features)
            moved_alpha, moved_h_out = forward_graph(params, moved, moved_features)
            report = diagnose(params, graph, features, nodes, upstream)
            moved_report = diagnose(params, moved, moved_features, perm[nodes].tolist(), upstream)
        scale = np.abs(params.bias) + np.abs(params.theta_l).sum(axis=1) * max(
            1.0, np.abs(features).max()
        )
        assert np.all(np.abs(moved_h_out[perm] - h_out) <= TOL * scale)
        for i in range(n):
            want = alpha[graph.offsets[i] : graph.offsets[i + 1]]
            got = moved_alpha[moved.offsets[perm[i]] : moved.offsets[perm[i] + 1]]
            assert np.all(np.abs(got - want) <= TOL)
        for entry, moved_entry in zip(report, moved_report):
            assert moved_entry.node == perm[entry.node]
            assert moved_entry.num_neighbors == entry.num_neighbors
            trace = forward_with_trace(params, graph, features, entry.node)
            near_kink = (np.abs(trace.pre_act) <= KINK_BAND).any(axis=0)
            same = np.array(moved_entry.dead_theta_r) == np.array(entry.dead_theta_r)
            assert np.all(same | near_kink)
            assert abs(moved_entry.attention_entropy - entry.attention_entropy) <= TOL
            assert abs(moved_entry.closed_form_gap - entry.closed_form_gap) <= TOL


class TestNeighborOrder:
    @settings(deadline=None, max_examples=100)
    @given(instances(), budgets, st.data())
    def test_reordering_edges_permutes_alpha_and_keeps_h_out(self, instance, budget, data):
        graph, features, params = instance
        order = data.draw(st.permutations(range(len(graph.edges))))
        shuffled = Graph(graph.num_nodes, tuple(graph.edges[k] for k in order))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            alpha, h_out = forward_graph(params, graph, features)
            new_alpha, new_h_out = forward_graph(params, shuffled, features)
        for node in range(graph.num_nodes):
            trace = forward_with_trace(params, graph, features, node)
            assert np.all(np.abs(new_h_out[node] - h_out[node]) <= TOL * term_scale(params, trace))
            lo, hi = graph.offsets[node], graph.offsets[node + 1]
            weight = dict(zip(graph.sources[lo:hi].tolist(), alpha[lo:hi]))
            lo, hi = shuffled.offsets[node], shuffled.offsets[node + 1]
            for j, a in zip(shuffled.sources[lo:hi].tolist(), new_alpha[lo:hi]):
                assert abs(a - weight[j]) <= TOL


class TestClosedFormGapDefinition:
    def test_largest_difference_over_largest_entry(self):
        graph, feats, params = generate_instance(6, 3, 4, seed=23)
        upstream = np.array([1.0, -1.0, 2.0, 0.5])
        for node in range(6):
            trace = forward_with_trace(params, graph, feats, node)
            chain = backward_chain(trace, params, upstream)
            closed = (
                grad_theta_r_sum(trace, params, upstream),
                grad_theta_l(trace, params, upstream),
                grad_bias(upstream),
            )
            exact = (chain.theta_r, chain.theta_l, chain.bias)
            diff = max(np.abs(c - e).max() for c, e in zip(closed, exact))
            scale = max(np.abs(b).max() for b in (*closed, *exact))
            want = diff / max(scale, REL_ERR_FLOOR)
            assert closed_form_gap(trace, params, upstream) == pytest.approx(want, rel=1e-15)

    def test_zero_upstream_gives_zero_gap(self):
        graph, feats, params = generate_instance(5, 2, 3, seed=8)
        (entry,) = diagnose(params, graph, feats, [0], np.zeros(3))
        assert entry.closed_form_gap == 0.0
        trace = forward_with_trace(params, graph, feats, 0)
        assert closed_form_gap(trace, params, np.zeros(3)) == 0.0


def test_underflowed_weight_adds_nothing_to_entropy():
    """A score gap of 2e4 underflows one weight to exactly 0 (0 log 0 = 0)."""
    graph = Graph(3, ((0, 1), (0, 2)))
    feats = np.array([[0.0], [1.0], [-1.0]])
    params = LayerParams([[0.0, 0.0]], [[0.0, 1.0]], [1e4], [0.0], 1.0)
    alpha, _ = forward_graph(params, graph, feats)
    assert alpha.tolist() == [1.0, 0.0]
    (entry,) = diagnose(params, graph, feats, [0])
    assert entry.attention_entropy == 0.0
    assert all(entry.dead_theta_r)  # slope 1: one regime, the layer is linear
