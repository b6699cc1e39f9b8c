"""The whole-graph pass against the per-node path.

forward_graph and diagnose evaluate every node in blocks of nodes of one
degree; forward_with_trace and the per-node gradient functions are the
reference, which a node's row must equal bit for bit. Instances cover
isolated nodes, self-loops, single neighbors, huge scores (exact integer
arithmetic scaled so that most attention weights underflow to zero) and,
with layer.EDGE_BUDGET patched small, degrees split into many blocks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatgrad import (
    GradientSet,
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
from gatgrad.diagnostics import NodeDiagnosis
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
        assert np.array_equal(got, trace.alpha)
        assert repr(h_out[node].tolist()) == repr(trace.h_out.tolist())  # zeros' signs too


def reference_diagnosis(params, graph, features, node, upstream):
    """Per-node indicators from one trace: the definitions diagnose must meet.

    The gap is closed_form_gap's definition over the per-node routes."""
    trace = forward_with_trace(params, graph, features, node)
    if trace.num_neighbors == 0:
        return trace, np.ones(params.out_dim, dtype=bool), 0.0, 0.0
    slopes = np.where(trace.pre_act > 0.0, 1.0, params.negative_slope)
    dead = np.all(slopes == slopes[0], axis=0)
    alpha = trace.alpha[trace.alpha > 0.0]
    entropy = float(-(alpha * np.log(alpha)).sum())
    chain = backward_chain(trace, params, upstream)
    closed = (
        grad_theta_r_sum(trace, params, upstream),
        grad_theta_l(trace, params, upstream),
        grad_bias(upstream),
    )
    exact = (chain.theta_r, chain.theta_l, chain.bias)
    diff = max(np.abs(c - e).max() for c, e in zip(closed, exact))
    scale = max(max(np.abs(b).max() for b in (*closed, *exact)), REL_ERR_FLOOR)
    return trace, dead, entropy, diff / scale


def check_diagnose(graph, features, params, nodes, upstream):
    """diagnose's entries against reference_diagnosis.

    diagnose takes a node's pre-activations, closed forms and chain in a
    block of nodes of its degree, the reference from the node alone; each is
    taken per target, so the dead rows and the gap are equal bit for bit. The
    entropy sums the zero weights the reference leaves out, so its
    pairwise summation may group differently.
    """
    report = diagnose(params, graph, features, nodes, upstream)
    assert [e.node for e in report] == list(nodes)
    for entry in report:
        trace, dead, entropy, gap = reference_diagnosis(
            params, graph, features, entry.node, upstream
        )
        assert entry.num_neighbors == trace.num_neighbors
        assert entry.single_neighbor == (trace.num_neighbors <= 1)
        assert entry.dead_theta_r == tuple(dead)
        assert entry.regime_uniformity == dead.mean()
        assert abs(entry.attention_entropy - entropy) <= TOL
        assert entry.closed_form_gap == gap
    return report


class TestForwardGraph:
    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets)
    def test_matches_per_node_traces(self, instance, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            check_forward(*instance)

    def test_isolated_node_outputs_bias(self):
        """An isolated node is a block of degree 0: its h_out is the bias plus
        an empty sum, bit for bit as forward_with_trace gives it, so a bias
        entry of -0.0 comes out 0.0."""
        graph = Graph(3, ((0, 1), (0, 0)))
        feats = np.array([[0.5], [2.0], [-1.0]])
        params = LayerParams([[0.3, 1.1], [0.2, 0.0]], [[-0.4, 0.9], [1.0, 0.5]],
                             [1.7, 0.5], [0.25, -0.0])
        alpha, h_out = forward_graph(params, graph, feats)
        for node in (1, 2):
            trace = forward_with_trace(params, graph, feats, node)
            assert repr(h_out[node].tolist()) == repr(trace.h_out.tolist()) == "[0.25, 0.0]"
        assert alpha.size == 2 and alpha.sum() == pytest.approx(1.0, rel=1e-15)

    def test_chunks_never_split_a_node(self):
        """Every node and every edge is in exactly one block; a block holds
        nodes of one degree n, at most EDGE_BUDGET // max(n, 1) of them or a
        single node (so at most EDGE_BUDGET edges and EDGE_BUDGET nodes,
        isolated nodes too), and its edges are each node's CSR range."""
        graph, feats, params = generate_instance(9, 2, 3, seed=4, min_degree=1)
        graph = Graph(11, graph.edges)  # nodes 9 and 10 isolated
        feats = np.vstack([feats, np.ones((2, 2))])
        degrees = np.diff(graph.offsets)
        for budget in (1, 3, 4, layer.EDGE_BUDGET):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(layer, "EDGE_BUDGET", budget)
                blocks = list(layer._graph_chunks(params, graph, feats))
            every_node = np.concatenate([nodes for nodes, _, _ in blocks])
            assert sorted(every_node.tolist()) == list(range(11))
            every_edge = np.concatenate([edges.ravel() for _, edges, _ in blocks])
            assert sorted(every_edge.tolist()) == list(range(len(graph.edges)))
            for nodes, edges, block in blocks:
                (n,) = set(degrees[nodes].tolist())
                assert len(nodes) <= max(1, budget // max(n, 1))
                assert edges.size <= budget or len(nodes) == 1
                assert np.array_equal(edges, graph.offsets[nodes][:, None] + np.arange(n))
                assert block.h_aug_target.shape == (len(nodes), 3)
                assert block.h_aug_sources.shape == (len(nodes), n, 3)
                assert block.alpha.shape == (len(nodes), n)

    def test_isolated_nodes_come_in_budget_blocks(self):
        """Ten isolated nodes at a budget of 3 take four blocks of degree 0,
        of 3, 3, 3 and 1 nodes, and each node's forward row and diagnose gap
        are still its own, bit for bit."""
        graph, feats, params = generate_instance(4, 2, 3, seed=5, min_degree=1)
        graph = Graph(14, graph.edges)  # nodes 4 to 13 isolated
        feats = np.vstack([feats, np.random.default_rng(5).standard_normal((10, 2))])
        upstream = np.random.default_rng(6).standard_normal(3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", 3)
            blocks = [nodes for nodes, edges, _ in layer._graph_chunks(params, graph, feats)
                      if edges.shape[1] == 0]
            check_forward(graph, feats, params)
            report = diagnose(params, graph, feats, range(14), upstream)
        assert [b.tolist() for b in blocks] == [[4, 5, 6], [7, 8, 9], [10, 11, 12], [13]]
        for entry in report:
            trace = forward_with_trace(params, graph, feats, entry.node)
            chain = backward_chain(trace, params, upstream)
            closed = GradientSet(
                grad_theta_r_sum(trace, params, upstream), grad_theta_l(trace, params, upstream),
                chain.att, grad_bias(upstream),
            )
            assert entry.closed_form_gap == closed_form_gap(closed, chain)

    def test_augmented_rows_hold_the_features_once(self, monkeypatch):
        """_graph_chunks' augmented rows of every node peak, under tracemalloc,
        within a quarter of the array returned: the feature rows are copied
        into it once, not gathered into a second copy first (1.9x of it)."""
        graph = Graph(20_000, ((0, 1), (1, 0), (2, 2)))
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((20_000, 16))
        params = LayerParams(*rng.standard_normal((2, 16, 17)), *rng.standard_normal((2, 16)))
        augmented, measured = layer._augmented, []

        def traced(*args):
            tracemalloc.start()
            try:
                rows = augmented(*args)
                measured.append((tracemalloc.get_traced_memory()[1], rows.nbytes))
            finally:
                tracemalloc.stop()
            return rows

        monkeypatch.setattr(layer, "_augmented", traced)
        forward_graph(params, graph, feats)
        ((peak, size),) = measured
        assert size == 20_000 * 17 * 8 and peak <= 1.25 * size

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

    def test_gap_of_a_node_in_a_shared_chunk(self):
        """Node 0 puts almost all its attention on one edge, so its gap
        (2.87e-14 alone) moves with the order of any sum. Its block holds all
        four nodes, of degree 4 each, and must give it the same gap."""
        order = {0: (3, 0, 1, 2), 1: (0, 1, 2, 3), 2: (0, 1, 2, 3), 3: (0, 1, 2, 3)}
        graph = Graph(4, tuple((i, j) for i, row in order.items() for j in row))
        features = np.array([[1, -3, 2], [0, -2, 1], [1, -3, 1], [3, 1, 0]], dtype=float)
        params = LayerParams(
            [[1, 1, -3, -1], [-2, 0, 0, -1], [-2, 1, 1, 1]],
            [[1, 1, -2, -1], [3, -3, 3, 0], [-1, 2, 1, 2]],
            [-64, -128, -128], [1, 1, 1], 0.25,
        )
        check_diagnose(graph, features, params, [0, 1], np.ones(3))

    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets, st.data())
    def test_requested_entries_are_rows_of_the_full_report(self, instance, budget, data):
        """Each entry of diagnose(..., nodes) is, bit for bit, its node's entry of
        diagnose(..., None), whether requested with others or alone; an
        isolated node keeps its vacuous values."""
        graph, features, params = instance
        nodes = data.draw(requested_nodes(graph.num_nodes))
        uniform = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upstream = np.ones(params.out_dim) if uniform else rng.standard_normal(params.out_dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            report = [
                entry
                for request in (nodes, *([i] for i in nodes))
                for entry in diagnose(params, graph, features, request, upstream)
            ]
            full = {e.node: e for e in diagnose(params, graph, features, None, upstream)}
        vacuous = NodeDiagnosis(0, 0, True, (True,) * params.out_dim, 1.0, 0.0, 0.0)
        for entry in report:
            want = full.get(entry.node, vacuous._replace(node=entry.node))
            assert repr(entry) == repr(want)  # repr round-trips every float exactly

    @pytest.mark.parametrize("seed", range(3))
    def test_lone_requests_are_rows_of_the_full_report(self, seed):
        """At H = D = 16 a node requested alone is its row of the full report."""
        graph, feats, params = generate_instance(12, 16, 16, seed=seed)
        upstream = np.random.default_rng(seed).standard_normal(16)
        full = diagnose(params, graph, feats, None, upstream)
        for entry in full:
            assert repr(diagnose(params, graph, feats, [entry.node], upstream)) == repr((entry,))

    @pytest.mark.parametrize("seed", range(3))
    def test_gap_vanishes_under_constant_upstream(self, seed):
        graph, feats, params = generate_instance(40, 16, 16, seed=seed)
        for scale in (1.0, -3.0):
            upstream = np.full(16, scale)
            report = check_diagnose(graph, feats, params, range(40), upstream)
            assert max(e.closed_form_gap for e in report) <= 1e-13


def block_routes(block, params, upstream):
    """The chain's theta_R, theta_L and att, from grads._segment_chain, and
    the two public closed forms, each run on the record `block` as it is."""
    chain_r, chain_l, d_score = grads._segment_chain(block, params, upstream)
    return (
        chain_r,
        chain_l,
        layer._dot(d_score, block.post_act),
        grad_theta_r_sum(block, params, upstream),
        grad_theta_l(block, params, upstream),
    )


class TestSegmentBackward:
    @settings(deadline=None, max_examples=150)
    @given(instances(), budgets, st.data())
    def test_chunk_stacks_match_per_node_routes(self, instance, budget, data):
        """grad_theta_r_sum, grad_theta_l and the chain's raw form run on blocks
        of many targets give every node's backward_chain and closed forms bit for
        bit, as the node alone, with no leading axis, does; and so do the same
        functions run on the node's ForwardTrace itself, the record a block's is
        with no leading axis."""
        graph, features, params = instance
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upstream = rng.standard_normal(params.out_dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layer, "EDGE_BUDGET", budget)
            chunks = list(layer._graph_chunks(params, graph, features))
        for nodes, _, block in chunks:
            stacks = block_routes(block, params, upstream)
            for k, node in enumerate(nodes):
                trace = forward_with_trace(params, graph, features, node)
                chain = backward_chain(trace, params, upstream)
                want = (
                    chain.theta_r,
                    chain.theta_l,
                    chain.att,
                    grad_theta_r_sum(trace, params, upstream),
                    grad_theta_l(trace, params, upstream),
                )
                for stack, *gots in zip(stacks, want, block_routes(trace, params, upstream)):
                    for got in gots:
                        assert np.array_equal(stack[k], got)
                        assert np.array_equal(np.signbit(stack[k]), np.signbit(got))


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
            closed_set = GradientSet(*closed[:2], chain.att, closed[2])
            assert closed_form_gap(closed_set, chain) == pytest.approx(want, rel=1e-15)

    def test_zero_upstream_gives_zero_gap(self):
        graph, feats, params = generate_instance(5, 2, 3, seed=8)
        (entry,) = diagnose(params, graph, feats, [0], np.zeros(3))
        assert entry.closed_form_gap == 0.0
        trace = forward_with_trace(params, graph, feats, 0)
        chain = backward_chain(trace, params, np.zeros(3))
        closed = GradientSet(
            grad_theta_r_sum(trace, params, np.zeros(3)),
            grad_theta_l(trace, params, np.zeros(3)),
            chain.att,
            grad_bias(np.zeros(3)),
        )
        assert closed_form_gap(closed, chain) == 0.0


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
