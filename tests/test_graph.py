"""Topology, feature augmentation, and graph file round-trips."""

import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gatgrad.graph
from gatgrad import (
    Graph,
    LayerParams,
    diagnose,
    forward_with_trace,
    generate_instance,
    load_graph,
    save_graph,
)

# Edge lists a 3-node graph rejects, each with the start of its message.
BAD_EDGES = [
    ([[0, 1], [0, True]], "edges[1] [0, True] is not a pair"),
    ([[0, "1"]], "edges[0] [0, '1'] is not a pair"),
    ([[0, 1], [1, 2, 0]], "edges[1] [1, 2, 0] is not a pair"),
    ([[0, 1, 2], [1, 2, 0]], "edges[0] [0, 1, 2] is not a pair"),
    ([[0, 1], [1]], "edges[1] [1] is not a pair"),
    ([[0, 1], 2], "edges[1] 2 is not a pair"),
    ([[0, 1], [-1, 0]], "edges[1] (-1, 0) is out of range"),
    ([[0, 1], [2, 3]], "edges[1] (2, 3) is out of range"),
    ([[0, 2 ** 70]], "edges[0] (0, 1180591620717411303424) is out of range"),
    ([[0, 1], [1, 0], [1, 1], [1, 0], [0, 1]], "edges[3] (1, 0) is a duplicate"),
]

# Empty edge arrays a graph rejects: an array is (E, 2) and integer even with no rows.
BAD_EMPTY_ARRAYS = [
    np.zeros((0, 5), dtype=np.int64),
    np.zeros((0, 2)),
    np.zeros((0, 2), dtype=bool),
    np.zeros(0, dtype=np.int64),
]

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

    @pytest.mark.parametrize("node", [True, False, 1.0, np.float64(0.0), "1"])
    def test_non_integer_node_id_rejected_by_every_entry_point(self, node):
        """One check serves the neighbor lookup and every caller of it."""
        graph, feats, params = generate_instance(4, 2, 3, seed=1)
        calls = [
            lambda: graph.neighbors(node),
            lambda: forward_with_trace(params, graph, feats, node),
            lambda: diagnose(params, graph, feats, nodes=[0, node]),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="node id must be an integer"):
                call()

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
        assert g.num_nodes == 3 and g.edges.tolist() == [[0, 2]]
        assert g.edges.dtype == np.int64 and type(g.neighbors(0)[0]) is int

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_integer_array_accepted(self, dtype):
        g = Graph(3, np.array([[0, 2], [2, 2], [0, 1]], dtype=dtype))
        assert g.edges.tolist() == [[0, 2], [2, 2], [0, 1]] and g.edges.dtype == np.int64
        assert g.neighbors(0) == (2, 1) and g.neighbors(2) == (2,)

    def test_edge_array_is_a_read_only_copy(self):
        edges = np.array([[0, 1]])
        g = Graph(2, edges)
        edges[0, 1] = 0
        assert g.edges.tolist() == [[0, 1]]
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    @pytest.mark.parametrize("edges, message", BAD_EDGES)
    def test_bad_edge_named_by_index_and_value(self, edges, message):
        with pytest.raises(ValueError) as err:
            Graph(3, edges)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "edges",
        [[[0, 2], [2, 2], [0, 1]], ((0, 2), (2, 2), (0, 1)), [(0, 2), [2, 2], (0, 1)],
         [(0, np.int64(2)), (2, 2), (0, 1)], [np.array([0, 2]), (2, 2), (0, 1)]],
    )
    def test_pairs_in_lists_tuples_or_arrays_accepted(self, edges):
        g = Graph(3, edges)
        assert g.edges.tolist() == [[0, 2], [2, 2], [0, 1]] and g.edges.dtype == np.int64

    @pytest.mark.parametrize(
        "pair, shown", [({0: 1, 1: 2}, "{0: 1, 1: 2}"), ({0, 1}, "{0, 1}"), ("01", "'01'")]
    )
    def test_two_item_non_pair_rejected(self, pair, shown):
        """A dict, set or string of length 2 is not a pair, even of int items."""
        with pytest.raises(ValueError, match=f"edges\\[1\\] {re.escape(shown)} is not a pair"):
            Graph(3, [[0, 1], pair])

    @pytest.mark.parametrize(
        "edges",
        [np.array([[0, 1.0]]), np.array([[0, 1]], dtype=bool), np.array([[0, 1, 2]]),
         np.array([0, 1]), np.array([["0", "1"]])],
    )
    def test_non_integer_or_misshapen_array_rejected(self, edges):
        with pytest.raises(ValueError, match=r"edges\[0\] .* is not a pair of integer node ids"):
            Graph(3, edges)

    @pytest.mark.parametrize("edges", BAD_EMPTY_ARRAYS)
    def test_misshapen_or_non_integer_empty_array_rejected(self, edges):
        with pytest.raises(ValueError, match=r"edges must be \(E, 2\) integer ids"):
            Graph(3, edges)

    @pytest.mark.parametrize("edges", [[], (), np.zeros((0, 2), dtype=np.int32)])
    def test_empty_list_or_integer_array_is_no_edges(self, edges):
        g = Graph(3, edges)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64

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

    def test_equal_whether_built_from_tuples_or_an_array(self):
        edges = ((0, 1), (2, 0), (2, 2))
        for array in (np.array(edges), np.array(edges, dtype=np.int32)):
            a, b = Graph(3, edges), Graph(3, array)
            assert a == b and hash(a) == hash(b)
        assert Graph(3, ()) == Graph(3, np.empty((0, 2), dtype=np.int64))
        assert Graph(3, edges) != Graph(4, edges)
        assert Graph(3, edges) != Graph(3, edges[:2])


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
        assert np.array_equal(g2.edges, g.edges)
        assert [g2.neighbors(i) for i in range(3)] == [g.neighbors(i) for i in range(3)]
        assert np.array_equal(feats2, feats)

    def test_resave_is_byte_identical(self, tmp_path):
        """Also for features and edges that each span several writer blocks."""
        g, feats, _ = generate_instance(250, 40, 1, seed=0)
        assert min(feats.size, g.edges.size) > 2 * gatgrad.graph._BULK_NUMBERS
        for k, (g, feats) in enumerate([self._sample(), (g, feats)]):
            p1, p2 = tmp_path / f"a{k}.json", tmp_path / f"b{k}.json"
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

    def test_truncated_file_rejected_with_the_collector_left_on(self, tmp_path):
        """The parse runs with the cyclic collector paused, and a failed parse resumes it."""
        path = tmp_path / "graph.json"
        save_graph(path, *self._sample())
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match="malformed graph file"):
            load_graph(path)
        assert gc.isenabled()

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
            *((message, {"edges": edges}) for edges, message in BAD_EDGES),
            ("edges", {"edges": 5}),
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
                    "num_nodes": 2,
                    "feature_dim": 1,
                    "features": [[1.0], [1e999]],
                    "edges": [],
                }
            )
        )
        with pytest.raises(ValueError, match="finite") as err:
            load_graph(path)
        assert str(path) in str(err.value) and "features entry at index (1, 0)" in str(err.value)

    def test_save_rejects_wrong_feature_row_count(self, tmp_path):
        with pytest.raises(ValueError, match="2 rows for 3 nodes"):
            save_graph(tmp_path / "graph.json", Graph(3, ()), np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "features, message",
        [
            ([[1.0, np.nan], [0.0, 1.0], [2.0, 3.0]], "non-finite features entry at index (0, 1)"),
            ([[1.0], [np.inf], [0.0]], "non-finite features entry at index (1, 0)"),
            ([[1.0], [2.0], [-np.inf]], "non-finite features entry at index (2, 0)"),
            (np.zeros((3, 2, 1)), "features must be a matrix, got shape (3, 2, 1)"),
            (np.zeros(3), "features must be a matrix, got shape (3,)"),
            (0.0, "features must be a matrix, got shape ()"),
        ],
    )
    def test_save_refuses_features_load_would_reject(self, tmp_path, features, message):
        path = tmp_path / "graph.json"
        with pytest.raises(ValueError) as err:
            save_graph(path, Graph(3, ((0, 1),)), features)
        assert message in str(err.value) and not path.exists()
