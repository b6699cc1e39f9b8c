"""Structural gradient pathologies readable off the closed forms.

A target-side weight row goes dead when every neighbor shares the same
LeakyReLU regime in that output dimension: the slope differences that feed
the row vanish identically, so no step size revives it from within that
regime. Single-neighbor nodes lose the whole attention path (a softmax over
one score is constant), and isolated nodes, a block of degree 0, have none. The
attention entropy measures how concentrated the attention weights are, and
closed_form_gap quantifies how far the row-scaled closed forms drift from
the full backward chain, given both routes' gradients under one upstream:
the largest entry difference over the theta_R, theta_L and b blocks,
relative to the largest entry of either side (a rounding residue when the
upstream is a constant vector).

diagnose computes every indicator in one pass over the whole graph, in the
blocks of nodes of one degree of layer._graph_chunks, and reports the
requested nodes' rows. It calls grad_theta_r_sum and grad_theta_l on each
block's ForwardTrace, and the chain's raw form grads._segment_chain; each
reads a block's record as it reads a node's and takes every product and sum
per target, so a node's gap equals closed_form_gap of its own routes, bit for
bit. This module adds only the dead rows, the entropy and the gap itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grads import REL_ERR_FLOOR, GradientSet, _check_upstream, _segment_chain, _terms
from .grads import grad_theta_l, grad_theta_r_sum
from .graph import Graph, _node_id
from .layer import LayerParams, _graph_chunks

# perfbench/spans.py wraps these by this module's name; nothing here calls them.
from .grads import backward_chain, grad_bias  # noqa: F401
from .layer import forward_with_trace  # noqa: F401

__all__ = ["closed_form_gap", "diagnose"]


class NodeDiagnosis(NamedTuple):
    """Pathology indicators for one target node, in the diagnose report's key order."""

    node: int
    num_neighbors: int
    single_neighbor: bool
    dead_theta_r: tuple[bool, ...]
    regime_uniformity: float
    attention_entropy: float
    closed_form_gap: float


def _segment_gap(closed, chain, bias_scale: float):
    """closed_form_gap of every target, (...), from the closed forms' and the
    chain's (theta_R, theta_L) blocks (..., D, H+1). The b blocks are the
    upstream on both sides: no difference, and bias_scale, max |upstream|, in the scale."""
    closed, chain = np.concatenate(closed, axis=-1), np.concatenate(chain, axis=-1)
    scale = np.maximum(abs(closed), abs(chain)).max(axis=(-2, -1), initial=bias_scale)
    return np.abs(closed - chain).max(axis=(-2, -1)) / np.maximum(scale, REL_ERR_FLOOR)


def closed_form_gap(closed: GradientSet, chain: GradientSet) -> float:
    """Largest discrepancy between the closed forms and backward_chain.

    The largest |closed - chain| over the theta_R, theta_L and b blocks,
    relative to the largest |entry| of either side over all three blocks
    (floored at REL_ERR_FLOOR): one scale per node, so rounding residues of
    small entries do not count as drift. Both routes give the upstream as b:
    chain.bias enters the scale only. An isolated node's gap is 0 (empty sums).
    """
    blocks = [(grads.theta_r, grads.theta_l) for grads in (closed, chain)]
    return float(_segment_gap(*blocks, abs(chain.bias).max()))


def diagnose(
    params: LayerParams,
    graph: Graph,
    features: np.ndarray,
    nodes: list[int] | None = None,
    upstream: np.ndarray | None = None,
) -> tuple[NodeDiagnosis, ...]:
    """Diagnose a set of target nodes; defaults to every node with neighbors.

    upstream is the gradient entering closed_form_gap (all ones when
    omitted), one vector for every node: `gradcheck --upstream random` gives
    node i row i of its draw, `diagnose` row 0, so their gaps agree at node
    0 only. Nodes come out in the order given, repeats included; a bool,
    float or string id raises TypeError and one outside the graph IndexError.
    Every indicator comes from one block-by-block pass over the whole graph,
    whichever nodes are requested, so a node's entry is the same in every
    report; a few requested nodes cost that full pass.
    Isolated nodes, if explicitly requested, are a block of degree 0: their
    rows are vacuously dead, with uniformity 1, zero entropy and zero gap.
    A requested node's non-finite gap (a gradient overflows) raises ValueError.
    Tuples, not arrays, as perfbench/spans.py's _count_diagnose reads their fields.
    """
    degrees = np.diff(graph.offsets)
    if nodes is None:
        ids = np.flatnonzero(degrees)
    else:
        ids = np.array([_node_id(i, graph.num_nodes) for i in nodes], dtype=np.int64)
    g = _check_upstream(np.ones(params.out_dim) if upstream is None else upstream, params.out_dim)
    bias_scale = abs(g).max()  # every node's b block, in every node's gap
    dead = np.empty((graph.num_nodes, params.out_dim), dtype=bool)
    entropy, gap = np.empty(graph.num_nodes), np.empty(graph.num_nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score or gap is rejected
        for nodes, _, block in _graph_chunks(params, graph, features):
            alpha = block.alpha
            # A row is dead where every edge of the target has its first edge's slope.
            dead[nodes] = ~(_terms(block)[0] != 0.0).any(axis=1)
            # Summing alpha * -log(alpha) gives +0.0, not -0.0, where every weight is 0 or 1.
            entropy[nodes] = (alpha * -np.log(np.where(alpha > 0.0, alpha, 1.0))).sum(axis=1)
            closed = [form(block, params, g) for form in (grad_theta_r_sum, grad_theta_l)]
            gap[nodes] = _segment_gap(closed, _segment_chain(block, params, g)[:2], bias_scale)
    overflow = ~np.isfinite(gap[ids])
    if overflow.any():
        raise ValueError(f"non-finite closed_form_gap at node {ids[overflow.argmax()]}")
    dead, counts = dead[ids], degrees[ids].tolist()
    single = [count <= 1 for count in counts]
    return tuple(map(NodeDiagnosis, ids.tolist(), counts, single, map(tuple, dead.tolist()),
                     dead.mean(axis=1).tolist(), entropy[ids].tolist(), gap[ids].tolist()))
