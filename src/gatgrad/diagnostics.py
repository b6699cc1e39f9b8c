"""Structural gradient pathologies readable off the closed forms.

A target-side weight row goes dead when every neighbor shares the same
LeakyReLU regime in that output dimension: the slope differences that feed
the row vanish identically, so no step size revives it from within that
regime. Single-neighbor nodes lose the whole attention path (a softmax over
one score is constant). The attention entropy measures how concentrated the
attention weights are, and closed_form_gap quantifies how far the row-scaled
closed forms drift from the full backward chain under a given upstream
gradient (zero when the upstream is a constant vector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grads import (
    GradientSet,
    backward_chain,
    grad_bias,
    grad_theta_l,
    grad_theta_r_sum,
    leaky_relu_slopes,
    relative_error,
)
from .graph import Graph
from .layer import ForwardTrace, LayerParams, forward_with_trace

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
    """Max relative discrepancy between the closed forms and backward_chain."""
    if chain is None:
        chain = backward_chain(trace, params, upstream)
    gaps = (
        relative_error(grad_theta_r_sum(trace, params, upstream), chain.theta_r),
        relative_error(grad_theta_l(trace, params, upstream), chain.theta_l),
        relative_error(grad_bias(upstream), chain.bias),
    )
    return float(max(g.max() for g in gaps))


def _dead_rows(trace: ForwardTrace, params: LayerParams) -> np.ndarray:
    """Boolean per output dimension: all neighbors share the slope there."""
    if trace.num_neighbors == 0:
        return np.ones(params.out_dim, dtype=bool)
    slopes = leaky_relu_slopes(trace, params.negative_slope)
    return np.all(slopes == slopes[0], axis=0)


def _entropy(alpha: np.ndarray) -> float:
    """Shannon entropy of the attention weights, taking 0 log 0 = 0.

    A weight underflows to exactly 0 when one score dominates by a wide margin.
    """
    if alpha.size == 0:
        return 0.0
    alpha = alpha[alpha > 0.0]
    return float(-(alpha * np.log(alpha)).sum())


def diagnose(
    params: LayerParams,
    graph: Graph,
    features: np.ndarray,
    nodes: list[int] | None = None,
    upstream: np.ndarray | None = None,
) -> tuple[NodeDiagnosis, ...]:
    """Diagnose a set of target nodes; defaults to every node with neighbors.

    upstream is the gradient entering closed_form_gap (all ones when
    omitted). Isolated nodes, if explicitly requested, report vacuously dead
    rows and zero entropy.
    """
    if nodes is None:
        nodes = [i for i in range(graph.num_nodes) if graph.neighbors(i)]
    if upstream is None:
        upstream = np.ones(params.out_dim)
    results = []
    for node in nodes:
        trace = forward_with_trace(params, graph, features, node)
        dead = _dead_rows(trace, params)
        results.append(
            NodeDiagnosis(
                node=int(node),
                num_neighbors=trace.num_neighbors,
                single_neighbor=trace.num_neighbors <= 1,
                dead_theta_r=tuple(bool(b) for b in dead),
                regime_uniformity=float(dead.mean()),
                attention_entropy=_entropy(trace.alpha),
                closed_form_gap=closed_form_gap(trace, params, upstream),
            )
        )
    return tuple(results)
