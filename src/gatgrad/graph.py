"""Directed graph topology and node feature storage.

An edge (i, j) makes node j a message source for target node i. Neighbor
lists keep the edge-file insertion order; gradient code indexes neighbors
positionally, so that order must be reproducible across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Graph", "augment", "load_graph", "save_graph"]


def augment(h: np.ndarray) -> np.ndarray:
    """Prefix a feature vector with a constant 1.

    The leading 1 lets the first column of a weight matrix act as an
    additive bias. Non-finite entries are rejected with their index.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError(f"expected a 1-D feature vector, got shape {h.shape}")
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        raise ValueError(f"non-finite feature entry at index {int(bad[0])}")
    out = np.empty(h.size + 1)
    out[0] = 1.0
    out[1:] = h
    out.setflags(write=False)
    return out


def _index(value, key: str) -> int:
    """A count or node id as a Python int; bools, floats and strings are rejected."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _numbers(value, key: str, ndim: int) -> np.ndarray:
    """A JSON number (ndim 0), list (1) or matrix (2) of numbers as float64.

    One pass over the entries checks that each is an int or a float, so
    bools and numeric strings are rejected, never coerced.
    """
    arr = np.array(value, dtype=object)
    if arr.ndim != ndim or not set(map(type, arr.flat)) <= {int, float}:
        shape = ("a number", "a list of numbers", "a list of equal-length rows of numbers")[ndim]
        raise ValueError(f"{key} must be {shape}")
    try:
        return arr.astype(np.float64)
    except OverflowError:
        raise ValueError(f"{key} holds an integer too large for a float") from None


def _write_json(path, payload: dict) -> None:
    """Write payload as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph on nodes 0..num_nodes-1.

    The node count and edge endpoints must be integers, never bools, floats
    or strings. Duplicate edges are rejected outright: a duplicated neighbor
    would be double-counted by the aggregation step. Self-loops are honored
    only if they appear explicitly in the edge list.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    neighbor_lists: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = _index(self.num_nodes, "num_nodes")
        if n <= 0:
            raise ValueError("num_nodes must be positive")
        object.__setattr__(self, "num_nodes", n)
        edges: list[tuple[int, int]] = []
        lists: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of node ids") from None
            if type(i) is not int or type(j) is not int:
                i, j = _index(i, f"edges entry {edge!r}"), _index(j, f"edges entry {edge!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            edges.append((i, j))
            lists[i].append(j)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "neighbor_lists", tuple(tuple(l) for l in lists))

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Message sources of node i, in edge insertion order."""
        if not 0 <= i < self.num_nodes:
            raise IndexError(f"node {i} out of range for {self.num_nodes} nodes")
        return self.neighbor_lists[i]


def load_graph(path) -> tuple[Graph, np.ndarray]:
    """Read a graph JSON file; return the topology and the (n, H) feature matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        n = _index(raw["num_nodes"], "num_nodes")
        dim = _index(raw["feature_dim"], "feature_dim")
        features = _numbers(raw["features"], "features", 2)
        if features.shape != (n, dim):
            raise ValueError(f"features has shape {features.shape}, expected ({n}, {dim})")
        if not np.isfinite(features).all():
            raise ValueError("non-finite entries in features")
        graph = Graph(n, raw["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph file {path}: {exc}") from None
    features.setflags(write=False)
    return graph, features


def save_graph(path, graph: Graph, features: np.ndarray) -> None:
    """Write the graph JSON file consumed by load_graph."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"feature matrix has {features.shape[0]} rows for {graph.num_nodes} nodes"
        )
    payload = {
        "num_nodes": graph.num_nodes,
        "feature_dim": int(features.shape[1]),
        "features": features.tolist(),
        "edges": [list(e) for e in graph.edges],
    }
    _write_json(path, payload)
