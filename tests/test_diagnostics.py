"""Pathology reporting: dead rows, entropy, closed-form discrepancy."""

import math

import numpy as np
import pytest

from gatgrad import (
    Graph,
    LayerParams,
    closed_form_gap,
    diagnose,
    forward_with_trace,
    generate_instance,
    grad_theta_r_pairwise,
    neighbor_softmax,
)


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
            base = ent(neighbor_softmax(scores))
            shifted = ent(neighbor_softmax(scores + 500.0))
            assert abs(base - shifted) <= 1e-12


class TestClosedFormGap:
    def test_zero_under_constant_upstream(self):
        g, feats, params = generate_instance(5, 3, 4, seed=23)
        for node in range(5):
            trace = forward_with_trace(params, g, feats, node)
            for scale in (1.0, -2.5):
                gap = closed_form_gap(trace, params, scale * np.ones(4))
                assert gap <= 1e-10

    def test_nonzero_under_generic_upstream(self):
        """Row-scaled closed forms drift once upstream components differ."""
        g, feats, params = generate_instance(5, 3, 4, seed=23)
        upstream = np.array([1.0, -1.0, 2.0, 0.5])
        gaps = []
        for node in range(5):
            trace = forward_with_trace(params, g, feats, node)
            if trace.num_neighbors >= 2:
                gaps.append(closed_form_gap(trace, params, upstream))
        assert max(gaps) > 1e-3

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
            assert list(entry.to_json_dict()) == [
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
        (entry,) = diagnose(params, graph, feats, nodes=[1], upstream=np.array([-2.0]))
        assert entry.num_neighbors == 0 and entry.single_neighbor
        assert entry.dead_theta_r == (True,)
        assert entry.regime_uniformity == 1.0
        assert entry.attention_entropy == 0.0
        assert entry.closed_form_gap == 0.0
