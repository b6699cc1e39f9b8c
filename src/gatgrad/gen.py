"""Seeded random instance generation.

Everything is drawn from one numpy Generator in a fixed order (features,
edges, then parameters), so a seed fully determines the instance.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .layer import LayerParams

__all__ = ["generate_instance"]

# The most edges a request may expect: its time, memory and graph file grow with them.
MAX_EDGES = 10**7


def generate_instance(
    num_nodes: int,
    feature_dim: int,
    out_dim: int,
    seed: int,
    min_degree: int = 2,
) -> tuple[Graph, np.ndarray, LayerParams]:
    """Random graph, features, and parameters, all standard normal (slope 0.2).

    Every node receives between min_degree and num_nodes - 1 distinct
    neighbors, never itself. Neighbor order within a node is the draw order.
    A request expecting more than MAX_EDGES edges raises ValueError before any draw.
    """
    if num_nodes < 1 or feature_dim < 1 or out_dim < 1:
        raise ValueError("num_nodes, feature_dim and out_dim must be positive")
    if min_degree < 0:
        raise ValueError("min_degree must be nonnegative")
    if min_degree > num_nodes - 1:
        raise ValueError(
            f"min_degree {min_degree} impossible with {num_nodes} nodes"
        )
    if (expected := num_nodes * (min_degree + num_nodes - 1) // 2) > MAX_EDGES:
        raise ValueError(f"{num_nodes} nodes of degree {min_degree} to {num_nodes - 1} expect "
                         f"{expected:,} edges, over the cap of {MAX_EDGES:,}")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_nodes, feature_dim))
    others = num_nodes - 1
    picks = []
    for _ in range(num_nodes):
        degree = min_degree if others == min_degree else int(rng.integers(min_degree, others + 1))
        picks.append(rng.choice(others, size=degree, replace=False))
    targets = np.repeat(np.arange(num_nodes), [len(p) for p in picks])
    sources = np.concatenate(picks)
    # Pick p is the p-th node other than the target: the target is skipped.
    graph = Graph(num_nodes, np.column_stack((targets, sources + (sources >= targets))))
    params = LayerParams(
        theta_r=rng.standard_normal((out_dim, feature_dim + 1)),
        theta_l=rng.standard_normal((out_dim, feature_dim + 1)),
        att=rng.standard_normal(out_dim),
        bias=rng.standard_normal(out_dim),
    )
    return graph, features, params
