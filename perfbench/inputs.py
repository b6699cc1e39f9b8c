"""Seeded workload inputs, generated by the benchmark itself.

Each instance function draws everything from one numpy Generator, seeded with an int
or a sequence of ints such as (run seed, instance index), in a fixed order
(features, edges, then parameters), so the same seed gives byte-identical
input files. Features and parameters are standard
normal and the LeakyReLU slope is 0.2. The program only ever receives the
files written by `write`, so a change to `gatgrad gen` cannot change what is
measured.

Edges are stored grouped by target node, in file order: edge k makes
`sources[k]` a message source of `targets[k]`, and the neighbors of node i
are `sources[offsets[i]:offsets[i + 1]]`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SLOPE = 0.2


@dataclass(frozen=True)
class Instance:
    """One graph attention instance: features, edges and layer parameters."""

    features: np.ndarray
    targets: np.ndarray
    sources: np.ndarray
    theta_r: np.ndarray
    theta_l: np.ndarray
    att: np.ndarray
    bias: np.ndarray
    slope: float = SLOPE

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.targets.size

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.targets, minlength=self.num_nodes)

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.degrees)))

    @property
    def num_param_entries(self) -> int:
        return 2 * self.theta_r.size + self.att.size + self.bias.size


def _layer(rng: np.random.Generator, feature_dim: int, out_dim: int) -> dict:
    return {
        "theta_r": rng.standard_normal((out_dim, feature_dim + 1)),
        "theta_l": rng.standard_normal((out_dim, feature_dim + 1)),
        "att": rng.standard_normal(out_dim),
        "bias": rng.standard_normal(out_dim),
    }


def _pick_others(rng: np.random.Generator, n: int, node: int, count: int) -> np.ndarray:
    """`count` distinct nodes other than `node`, in draw order."""
    picks = rng.choice(n - 1, size=count, replace=False)
    return picks + (picks >= node)


def random_degree(
    seed, num_nodes: int, feature_dim: int, out_dim: int, min_degree: int = 2
) -> Instance:
    """Out-degree uniform on [min_degree, num_nodes - 1], as `gatgrad gen` draws it."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_nodes, feature_dim))
    rows = []
    for node in range(num_nodes):
        degree = int(rng.integers(min_degree, num_nodes))
        rows.append(_pick_others(rng, num_nodes, node, degree))
    sources = np.concatenate(rows)
    targets = np.repeat(np.arange(num_nodes), [r.size for r in rows])
    return Instance(features, targets, sources, **_layer(rng, feature_dim, out_dim))


def spread_degree(
    seed, num_nodes: int, feature_dim: int, out_dim: int, min_degree: int = 2
) -> Instance:
    """Out-degrees spread evenly over [min_degree, num_nodes - 1], in random order.

    Each node's degree is uniform on the range, as `gatgrad gen` draws it, but
    every seed gets the same set of degrees. Per-node work grows with the
    degree and its square, so i.i.d. degrees would move a run's total work by
    several percent from seed to seed.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_nodes, feature_dim))
    grid = np.linspace(min_degree, num_nodes - 1, num_nodes).round().astype(int)
    degrees = rng.permutation(grid)
    rows = [_pick_others(rng, num_nodes, node, int(d)) for node, d in enumerate(degrees)]
    sources = np.concatenate(rows)
    targets = np.repeat(np.arange(num_nodes), degrees)
    return Instance(features, targets, sources, **_layer(rng, feature_dim, out_dim))


def fixed_degree(
    seed, num_nodes: int, degree: int, feature_dim: int, out_dim: int
) -> Instance:
    """Every node gets exactly `degree` distinct non-self neighbors."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_nodes, feature_dim))
    picks = rng.integers(0, num_nodes - 1, size=(num_nodes, degree))
    # Rows with a repeated pick are redrawn until every row is distinct.
    while True:
        ordered = np.sort(picks, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if bad.size == 0:
            break
        picks[bad] = rng.integers(0, num_nodes - 1, size=(bad.size, degree))
    node_ids = np.arange(num_nodes)[:, None]
    sources = (picks + (picks >= node_ids)).reshape(-1)
    targets = np.repeat(np.arange(num_nodes), degree)
    return Instance(features, targets, sources, **_layer(rng, feature_dim, out_dim))


def sparse_many(seed) -> Instance:
    """12,500 nodes of out-degree 8 (100,000 edges), H = D = 8."""
    return fixed_degree(seed, num_nodes=12_500, degree=8, feature_dim=8, out_dim=8)


def dense_hub(seed) -> Instance:
    """200 nodes, out-degrees spread over [2, 199] (20,100 edges), H = D = 16."""
    return spread_degree(seed, num_nodes=200, feature_dim=16, out_dim=16)


def oracle(seed) -> Instance:
    """12 nodes, out-degree uniform on [2, 11], H = D = 16."""
    return random_degree(seed, num_nodes=12, feature_dim=16, out_dim=16)


def write(inst: Instance, graph_path, params_path, gatgrad) -> None:
    """Write the instance with the program's own writers."""
    edges = tuple(zip(inst.targets.tolist(), inst.sources.tolist()))
    gatgrad.save_graph(graph_path, gatgrad.Graph(inst.num_nodes, edges), inst.features)
    gatgrad.save_params(
        params_path,
        gatgrad.LayerParams(
            theta_r=inst.theta_r,
            theta_l=inst.theta_l,
            att=inst.att,
            bias=inst.bias,
            negative_slope=inst.slope,
        ),
    )
