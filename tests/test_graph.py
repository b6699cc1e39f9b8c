"""Topology, feature augmentation, and graph file round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gatgrad import Graph, LayerParams, forward_with_trace, load_graph, save_graph

finite_features = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=0, max_size=8
)


def augmented_trace(features, edges=((0, 0),), node=0):
    """Trace of one node of a graph over `features`, with all-zero weights."""
    features = np.array(features, dtype=np.float64)
    n, h = features.shape
    zeros = np.zeros((1, h + 1))
    params = LayerParams(zeros, zeros, [1.0], [0.0])
    return forward_with_trace(params, Graph(n, tuple(edges)), features, node)


class TestAugment:
    """The layer gathers augmented rows [1, h] of a node and its neighbors."""

    @pytest.mark.parametrize(
        "h, expected",
        [
            ([], [1.0]),
            ([2.0], [1.0, 2.0]),
            ([-1.5, 3.0], [1.0, -1.5, 3.0]),
        ],
    )
    def test_prefixes_constant_one(self, h, expected):
        trace = augmented_trace([h])
        assert trace.h_aug_target.tolist() == expected
        assert trace.h_aug_sources.tolist() == [expected]

    def test_rejects_non_finite_with_index(self):
        edges = ((0, 1), (0, 2))
        with pytest.raises(ValueError, match="index 1 of node 0"):
            augmented_trace([[0.0, np.nan], [1.0, 2.0], [3.0, 4.0]], edges)
        with pytest.raises(ValueError, match="index 0 of node 2"):
            augmented_trace([[0.0, 1.0], [1.0, 2.0], [np.inf, 4.0]], edges)

    def test_rejects_matrix_input(self):
        """The feature matrix must be 2-D, one row per node."""
        params = LayerParams([[0.0, 0.0]], [[0.0, 0.0]], [1.0], [0.0])
        graph = Graph(1, ((0, 0),))
        for features in (np.zeros((1, 1, 1)), np.zeros(1)):
            with pytest.raises(ValueError, match="does not cover"):
                forward_with_trace(params, graph, features, 0)

    @given(finite_features)
    def test_leading_one_and_exact_roundtrip(self, h):
        """Augmenting is injective: the original row is recoverable exactly."""
        trace = augmented_trace([h, [0.5] * len(h)], ((0, 1), (0, 0)))
        assert trace.h_aug_target[0] == 1.0
        assert trace.h_aug_target[1:].tolist() == h
        assert trace.h_aug_sources[:, 0].tolist() == [1.0, 1.0]
        assert trace.h_aug_sources[1, 1:].tolist() == h

    def test_result_is_read_only(self):
        trace = augmented_trace([[1.0]])
        with pytest.raises(ValueError):
            trace.h_aug_target[0] = 2.0
        with pytest.raises(ValueError):
            trace.h_aug_sources[0, 1] = 2.0


class TestGraph:
    def test_neighbors_in_insertion_order(self):
        g = Graph(3, ((0, 2), (0, 1)))
        assert g.neighbors(0) == (2, 1)

    def test_no_incoming_edges(self):
        g = Graph(2, ((0, 1),))
        assert g.neighbors(1) == ()

    def test_explicit_self_loop_kept(self):
        g = Graph(3, ((2, 0), (2, 2)))
        assert g.neighbors(2) == (0, 2)

    def test_node_out_of_range(self):
        g = Graph(2, ())
        with pytest.raises(IndexError):
            g.neighbors(2)
        with pytest.raises(IndexError):
            g.neighbors(-1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (0, 1)))

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((-1, 0),))

    def test_nonpositive_node_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_float_endpoint_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Graph(2, ((0, 1.9),))

    def test_numpy_integers_accepted(self):
        g = Graph(np.int64(3), ((np.int64(0), np.int32(2)),))
        assert g.num_nodes == 3 and g.edges == ((0, 2),)
        assert type(g.edges[0][1]) is int

    def test_neighbor_sets_match_edges(self):
        rng = np.random.default_rng(0)
        n = 6
        edges = []
        for i in range(n):
            for j in rng.permutation(n)[:3]:
                if (i, int(j)) not in edges:
                    edges.append((i, int(j)))
        g = Graph(n, tuple(edges))
        for i in range(n):
            assert sorted(g.neighbors(i)) == sorted(j for (t, j) in edges if t == i)


class TestCsrView:
    def test_groups_neighbors_by_target_in_insertion_order(self):
        g = Graph(4, ((2, 0), (0, 3), (2, 2), (0, 1), (2, 1)))
        assert g.offsets.tolist() == [0, 2, 2, 5, 5]
        assert g.sources.tolist() == [3, 1, 0, 2, 1]
        for i in range(4):
            assert g.sources[g.offsets[i] : g.offsets[i + 1]].tolist() == list(g.neighbors(i))
        assert g.sources.dtype == g.offsets.dtype == np.int64

    def test_no_edges(self):
        g = Graph(3, ())
        assert g.sources.shape == (0,) and g.offsets.tolist() == [0, 0, 0, 0]

    def test_read_only(self):
        g = Graph(2, ((0, 1),))
        for arr in (g.sources, g.offsets):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_equality_and_hash_ignore_the_view(self):
        a, b = Graph(2, ((0, 1), (1, 0))), Graph(2, ((0, 1), (1, 0)))
        assert a == b and hash(a) == hash(b)
        assert a != Graph(2, ((1, 0), (0, 1)))


class TestGraphFiles:
    def _sample(self):
        g = Graph(3, ((0, 2), (0, 1), (2, 2)))
        feats = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 3.5]])
        return g, feats

    def test_roundtrip_preserves_order_and_values(self, tmp_path):
        g, feats = self._sample()
        path = tmp_path / "graph.json"
        save_graph(path, g, feats)
        g2, feats2 = load_graph(path)
        assert g2.edges == g.edges
        assert g2.neighbor_lists == g.neighbor_lists
        assert np.array_equal(feats2, feats)

    def test_resave_is_byte_identical(self, tmp_path):
        g, feats = self._sample()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(p1, g, feats)
        save_graph(p2, *load_graph(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_width_features(self, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(path, Graph(2, ((0, 1),)), np.zeros((2, 0)))
        g2, feats2 = load_graph(path)
        assert feats2.shape == (2, 0)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_nodes": 2, "edges": []}))
        with pytest.raises(ValueError, match="malformed"):
            load_graph(path)

    def test_feature_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "num_nodes": 2,
                    "feature_dim": 2,
                    "features": [[1.0, 2.0]],
                    "edges": [],
                }
            )
        )
        with pytest.raises(ValueError):
            load_graph(path)

    @pytest.mark.parametrize(
        "key, override",
        [
            ("num_nodes", {"num_nodes": 3.7}),
            ("num_nodes", {"num_nodes": "3"}),
            ("edges", {"edges": [[0, 1.9]]}),
            ("features", {"features": [[1.0], [True], [0.0]]}),
            ("features", {"features": [[1.0], ["1"], [0.0]]}),
        ],
    )
    def test_coercible_values_rejected(self, tmp_path, key, override):
        raw = {"num_nodes": 3, "feature_dim": 1, "features": [[1.0], [2.0], [0.0]],
               "edges": [[0, 1]]}
        raw.update(override)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as err:
            load_graph(path)
        assert str(path) in str(err.value) and key in str(err.value)

    def test_non_finite_features_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "num_nodes": 1,
                    "feature_dim": 1,
                    "features": [[1e999]],
                    "edges": [],
                }
            )
        )
        with pytest.raises(ValueError, match="finite"):
            load_graph(path)
