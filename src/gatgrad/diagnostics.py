"""Structural gradient pathologies readable off the closed forms.

A target-side weight row goes dead when every neighbor shares the same
LeakyReLU regime in that output dimension: the slope differences that feed
the row vanish identically, so no step size revives it from within that
regime. Single-neighbor nodes lose the whole attention path (a softmax over
one score is constant). The attention entropy measures how concentrated the
attention weights are, and closed_form_gap quantifies how far the row-scaled
closed forms drift from the full backward chain under a given upstream
gradient: the largest entry difference over the theta_R, theta_L and b
blocks, relative to the largest entry of either side (a rounding residue
when the upstream is a constant vector).

diagnose computes every indicator for all requested nodes in one
edge-parallel pass over the layer's segment core (layer._graph_chunks): the
per-node formulas of grads.py become segment reductions, and the theta_L
blocks per-segment matrix products batched by degree. closed_form_gap on a
single trace stays the per-node definition, which gradcheck reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grads import (
    REL_ERR_FLOOR,
    GradientSet,
    _check_upstream,
    backward_chain,
    grad_bias,
    grad_theta_l,
    grad_theta_r_sum,
)
from .graph import Graph
from .layer import (
    ForwardTrace,
    LayerParams,
    _graph_chunks,
    _segment_ids,
    _segment_sum,
    forward_with_trace,  # noqa: F401  (perfbench/spans.py wraps it by this module's name)
)

__all__ = ["closed_form_gap", "diagnose"]


@dataclass(frozen=True)
class NodeDiagnosis:
    """Pathology indicators for one target node."""

    node: int
    num_neighbors: int
    single_neighbor: bool
    dead_theta_r: tuple[bool, ...]
    regime_uniformity: float
    attention_entropy: float
    closed_form_gap: float

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "num_neighbors": self.num_neighbors,
            "single_neighbor": self.single_neighbor,
            "dead_theta_r": list(self.dead_theta_r),
            "regime_uniformity": self.regime_uniformity,
            "attention_entropy": self.attention_entropy,
            "closed_form_gap": self.closed_form_gap,
        }


def closed_form_gap(
    trace: ForwardTrace,
    params: LayerParams,
    upstream: np.ndarray,
    chain: GradientSet | None = None,
) -> float:
    """Largest discrepancy between the closed forms and backward_chain.

    The largest |closed - chain| over the theta_R, theta_L and b blocks,
    relative to the largest |entry| of either side over all three blocks
    (floored at REL_ERR_FLOOR): one scale per node, so rounding residues of
    small entries do not count as drift.
    """
    if chain is None:
        chain = backward_chain(trace, params, upstream)
    pairs = (
        (grad_theta_r_sum(trace, params, upstream), chain.theta_r),
        (grad_theta_l(trace, params, upstream), chain.theta_l),
        (grad_bias(upstream), chain.bias),
    )
    diff = max(np.abs(closed - exact).max() for closed, exact in pairs)
    scale = max(max(np.abs(closed).max(), np.abs(exact).max()) for closed, exact in pairs)
    return float(diff / max(scale, REL_ERR_FLOOR))


def _segment_products(left: np.ndarray, right: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """left[s].T @ right[s] for each segment s of the edge axis, (m, D, K).

    Segments of equal length are stacked into one batched product, so no
    (E, D, K) outer product is formed.
    """
    counts = np.diff(starts, append=len(left))
    out = np.empty((len(starts), left.shape[1], right.shape[1]))
    for count in np.flatnonzero(np.bincount(counts)):
        which = np.flatnonzero(counts == count)
        rows = starts[which][:, None] + np.arange(count)
        out[which] = left[rows].transpose(0, 2, 1) @ right[rows]
    return out


def _chunk_indicators(params, upstream, starts, h_aug_targets, h_aug_sources, arrays) -> tuple:
    """Dead theta_R rows (m, D), attention entropy (m,) and closed_form_gap
    (m,) of one chunk of the whole-graph pass, by segment reductions.

    The formulas are grads.py's per-node ones over every segment at once:
    slopes are compared with, and the theta_R sums taken against, each
    segment's first neighbor, and the theta_L blocks are per-segment
    products.
    """
    g, att = upstream, params.att
    _, source_proj, pre_act, _, _, alpha, _, _ = arrays
    seg = _segment_ids(starts, len(alpha))
    slopes = np.where(pre_act > 0.0, 1.0, params.negative_slope)
    spread = slopes - slopes[starts][seg]
    dead = ~np.logical_or.reduceat(spread != 0.0, starts, axis=0)
    plogp = alpha * np.log(np.where(alpha > 0.0, alpha, 1.0))
    entropy = -_segment_sum(plogp, starts)
    # Closed forms, as grad_theta_r_sum and grad_theta_l.
    totals = source_proj.sum(axis=1)
    weights = alpha * (totals - _segment_sum(alpha * totals, starts)[seg])
    coeff = _segment_sum(spread * weights[:, None], starts)
    bracket = att * slopes * weights[:, None] + alpha[:, None]
    closed_r = (g * att * coeff)[:, :, None] * h_aug_targets[:, None, :]
    closed_l = g[:, None] * _segment_products(bracket, h_aug_sources, starts)
    # backward_chain.
    d_alpha = source_proj @ g
    d_alpha = d_alpha - d_alpha[starts][seg]
    d_score = alpha * (d_alpha - _segment_sum(alpha * d_alpha, starts)[seg])
    d_target = att * _segment_sum(spread * d_score[:, None], starts)
    chain_r = d_target[:, :, None] * h_aug_targets[:, None, :]
    mean_source = _segment_sum(alpha[:, None] * h_aug_sources, starts)
    chain_l = _segment_products(d_score[:, None] * att * slopes, h_aug_sources, starts)
    chain_l += g[:, None] * mean_source[:, None, :]
    # The b blocks are the upstream on both sides: no gap, scale max |g|.
    blocks = (closed_r, chain_r, closed_l, chain_l)
    diff = np.maximum(
        np.abs(closed_r - chain_r).max(axis=(1, 2)), np.abs(closed_l - chain_l).max(axis=(1, 2))
    )
    scale = np.max([np.abs(b).max(axis=(1, 2)) for b in blocks], axis=0)
    gap = diff / np.maximum(np.maximum(scale, np.abs(g).max()), REL_ERR_FLOOR)
    return dead, entropy, gap


def _node_ids(graph: Graph, nodes) -> np.ndarray:
    """Requested node ids as int64, each checked against the graph."""
    ids = [operator.index(i) for i in nodes]
    for i in ids:
        if not 0 <= i < graph.num_nodes:
            raise IndexError(f"node {i} out of range for {graph.num_nodes} nodes")
    return np.array(ids, dtype=np.int64)


def diagnose(
    params: LayerParams,
    graph: Graph,
    features: np.ndarray,
    nodes: list[int] | None = None,
    upstream: np.ndarray | None = None,
) -> tuple[NodeDiagnosis, ...]:
    """Diagnose a set of target nodes; defaults to every node with neighbors.

    upstream is the gradient entering closed_form_gap (all ones when
    omitted). Nodes come out in the order given, repeats included; an id
    outside the graph raises IndexError. Every indicator comes from one
    edge-parallel pass over the distinct requested nodes with neighbors.
    Isolated nodes, if explicitly requested, report vacuously dead rows,
    uniformity 1, zero entropy and zero gap.
    """
    degrees = np.diff(graph.offsets)
    ids = np.flatnonzero(degrees) if nodes is None else _node_ids(graph, nodes)
    g = _check_upstream(np.ones(params.out_dim) if upstream is None else upstream, params.out_dim)
    requested = np.zeros(graph.num_nodes, dtype=bool)
    requested[ids] = True
    # One row per graph node; isolated nodes keep these vacuous values.
    dead = np.ones((graph.num_nodes, params.out_dim), dtype=bool)
    entropy, gap = np.zeros(graph.num_nodes), np.zeros(graph.num_nodes)
    targets = np.flatnonzero(requested & (degrees > 0))
    for run, _, starts, h_aug_targets, h_aug_sources, arrays in _graph_chunks(
        params, graph, features, targets
    ):
        dead[run], entropy[run], gap[run] = _chunk_indicators(
            params, g, starts, h_aug_targets, h_aug_sources, arrays
        )
    dead = dead[ids]
    return tuple(
        NodeDiagnosis(node, count, count <= 1, tuple(row), uniformity, ent, node_gap)
        for node, count, row, uniformity, ent, node_gap in zip(
            ids.tolist(),
            degrees[ids].tolist(),
            dead.tolist(),
            dead.mean(axis=1).tolist(),
            entropy[ids].tolist(),
            gap[ids].tolist(),
        )
    )
