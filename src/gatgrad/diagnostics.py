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
edge-parallel pass over the layer's segment core (layer._graph_chunks). The
closed forms, the chain and the gap come from grads.py's segment functions,
the same ones a single node's gradients are the one-segment case of; this
module adds only the dead rows and the entropy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grads import GradientSet, _check_upstream, _one_segment, _segment_gap, _segments
from .graph import Graph
from .layer import ForwardTrace, LayerParams, _graph_chunks, _segment_sum

# perfbench/spans.py wraps these by this module's name; nothing here calls them.
from .grads import backward_chain, grad_bias, grad_theta_l, grad_theta_r_sum  # noqa: F401
from .layer import forward_with_trace  # noqa: F401

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
    small entries do not count as drift. chain is the node's backward_chain,
    computed when omitted.
    """
    g = _check_upstream(upstream, params.out_dim)
    if trace.num_neighbors == 0:
        return 0.0
    blocks = None if chain is None else (chain.theta_r[None], chain.theta_l[None])
    return float(_segment_gap(_one_segment(trace, params.negative_slope), params, g, blocks)[0])


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
        _, source_proj, pre_act, post_act, _, alpha, _, _ = arrays
        segs = _segments(
            starts, h_aug_targets, h_aug_sources, source_proj, pre_act, post_act, alpha,
            params.negative_slope,
        )
        # A row is dead where every edge of the segment has its first edge's slope.
        dead[run] = ~np.logical_or.reduceat(segs.spread != 0.0, starts, axis=0)
        entropy[run] = -_segment_sum(alpha * np.log(np.where(alpha > 0.0, alpha, 1.0)), starts, -1)
        gap[run] = _segment_gap(segs, params, g)
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
