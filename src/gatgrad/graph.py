"""Directed graph topology and node feature storage.

An edge (i, j) makes node j a message source for target node i. Neighbor
lists keep the edge-file insertion order; gradient code indexes neighbors
positionally, so that order must be reproducible across runs.

Each graph also carries a compressed sparse row (CSR) view of the same
lists for the whole-graph passes: `sources` holds every neighbor list, one
after another in node order, and node i's neighbors are
`sources[offsets[i]:offsets[i + 1]]`. Edge k of that order is edge k of
the attention weights `layer.forward_graph` returns.

Features are stored as given, one row per node. The layer prefixes the
constant 1 of the augmented row h_aug = [1, h] itself, when it gathers a
target node's row and its neighbors' rows in one indexing step.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Graph", "load_graph", "save_graph"]


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
    only if they appear explicitly in the edge list. `sources` and `offsets`
    are the read-only int64 CSR view of `neighbor_lists`, shapes (E,) and
    (num_nodes + 1,).
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    neighbor_lists: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    sources: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

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
            pair = (i, j)
            if pair in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(pair)
            edges.append(pair)
            lists[i].append(j)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "neighbor_lists", tuple(tuple(l) for l in lists))
        sources = np.fromiter(itertools.chain.from_iterable(lists), np.int64, len(edges))
        offsets = np.fromiter(itertools.accumulate(map(len, lists), initial=0), np.int64, n + 1)
        for name, arr in (("sources", sources), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
