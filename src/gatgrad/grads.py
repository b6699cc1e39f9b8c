"""Analytic gradients of the attention layer.

Two routes are provided for the target-side weight matrix theta_r: a
per-neighbor summation form and a neighbor-pair form. They are algebraically
identical and are kept as independent, cross-checked implementations.

The closed forms (grad_theta_r_sum, grad_theta_r_pairwise, grad_theta_l,
grad_bias) scale output row t by upstream component t: the exact loss
gradient when the upstream is a constant vector. backward_chain propagates
an arbitrary upstream through every intermediate, and
diagnostics.closed_form_gap reports how far the two differ.

The formulas are written once, over any leading axes before a target's
neighbor arrays (..., n, .): a node has none, a block of k targets of one
degree one. Each product and sum is taken per target (layer._dot, and one
matrix product per target for the (D, H+1) blocks), so a target's gradients
are the same in any block. They read a layer._Block or a node's ForwardTrace
by field name, as the caller holds it, and _Segments is the three terms they
share. The public functions run them on one node's trace, and
diagnostics.diagnose over the blocks of the whole graph; only
grad_theta_r_pairwise stays per node, as the independent cross-check that
sums the neighbor pairs directly, in blocks bounded by layer.EDGE_BUDGET.
An isolated node is a block of degree 0: its neighbor sums are empty, so its
attention gradients are zeros, signed as a single-neighbor node's are.

Gradients are per target node; summing over nodes is left to callers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import layer
from .graph import _finite
from .layer import BLOCKS, ForwardTrace, LayerParams, _branch, _dot, _slopes

__all__ = [
    "GradientSet",
    "grad_theta_r_sum",
    "grad_theta_r_pairwise",
    "grad_theta_l",
    "grad_bias",
    "backward_chain",
]

# Floor for the relative-error denominator; keeps the metric defined at zero.
REL_ERR_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Frozen copies of the four blocks' gradients for one target node; hashed by identity."""

    theta_r: np.ndarray
    theta_l: np.ndarray
    att: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        for name in BLOCKS.values():
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def as_dict(self) -> dict[str, np.ndarray]:
        """The blocks by their file keys, in file order."""
        return {key: getattr(self, name) for key, name in BLOCKS.items()}


def _check_upstream(upstream: np.ndarray, out_dim: int | None) -> np.ndarray:
    """The upstream gradient as a finite float64 vector, of length out_dim unless None."""
    g = np.asarray(upstream, dtype=np.float64)
    if g.ndim != 1 or out_dim not in (None, len(g)):
        want = "D" if out_dim is None else out_dim
        raise ValueError(f"upstream gradient shape {g.shape}, expected ({want},)")
    return _finite(g, "upstream gradient")


# The terms the backward formulas share, for targets of degree n with any
# leading axes: the LeakyReLU slopes (..., n, D), their spread from each
# target's first edge (grad_theta_r_sum says why), and both closed forms'
# weights: alpha times the centered projection total, (..., n).
_Segments = namedtuple("_Segments", ("slopes", "spread", "weights"))


def _segments(block, slope: float) -> _Segments:
    """_Segments of a _Block or a ForwardTrace, for LeakyReLU negative slope `slope`."""
    slopes = _slopes(block.pre_act, slope)
    totals = block.source_proj.sum(axis=-1)
    weights = block.alpha * (totals - _dot(block.alpha, totals[..., None]))
    return _Segments(slopes, slopes - slopes[..., :1, :], weights)


# A node's _Segments from its trace as it is, kept for its next route; keyed on (trace, slope).
_one_node = lru_cache(maxsize=1)(_segments)


def _segment_theta_r_sum(block, segs: _Segments, params: LayerParams, upstream):
    """grad_theta_r_sum of every target of `block`, (..., D, H+1)."""
    coeff = _dot(segs.weights, segs.spread)
    return (upstream * params.att * coeff)[..., None] * block.h_aug_target[..., None, :]


def _segment_theta_l(block, segs: _Segments, params: LayerParams, upstream):
    """grad_theta_l of every target of `block`, (..., D, H+1)."""
    bracket = params.att * segs.slopes * segs.weights[..., None] + block.alpha[..., None]
    return upstream[:, None] * (bracket.swapaxes(-1, -2) @ block.h_aug_sources)


def _segment_chain(block, segs: _Segments, params: LayerParams, upstream: np.ndarray) -> tuple:
    """backward_chain's theta_R and theta_L blocks (..., D, H+1) of every
    target of `block`, and the score gradients d_score (..., n). The att
    blocks are _dot(d_score, block.post_act), the bias blocks the upstream."""
    alpha = block.alpha
    # d_alpha[..., k] contracts the upstream with the projected source feature.
    # The softmax backward is shift invariant in d_alpha, so it is centered on
    # the target's first edge: identical neighbors then yield exact zeros.
    d_alpha = block.source_proj @ upstream
    d_alpha = d_alpha - d_alpha[..., :1]
    d_score = alpha * (d_alpha - _dot(alpha, d_alpha[..., None]))
    d_pre = d_score[..., None] * params.att * segs.slopes
    # Source side: score path plus the direct aggregation path.
    d_theta_l = d_pre.swapaxes(-1, -2) @ block.h_aug_sources
    d_theta_l += upstream[:, None] * _dot(alpha, block.h_aug_sources)[..., None, :]
    d_target = params.att * _dot(d_score, segs.spread)
    d_theta_r = d_target[..., None] * block.h_aug_target[..., None, :]
    return d_theta_r, d_theta_l, d_score


def _segment_gap(closed, chain, upstream: np.ndarray):
    """diagnostics.closed_form_gap of every target, (...), from the closed forms'
    and the chain's (theta_R, theta_L) blocks (..., D, H+1). The b blocks are the
    upstream on both sides: no difference, and max |upstream| in the scale."""
    closed, chain = np.concatenate(closed, axis=-1), np.concatenate(chain, axis=-1)
    both = np.abs(np.concatenate((closed, chain), axis=-1))
    scale = both.max(axis=(-2, -1), initial=np.abs(upstream).max())
    return np.abs(closed - chain).max(axis=(-2, -1)) / np.maximum(scale, REL_ERR_FLOOR)


def grad_theta_r_sum(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Target-side weight gradient, summation form, (D, H+1).

    Row t is upstream[t] * att[t] * sum_k slope[k, t] * alpha[k] * S_k times
    the augmented target feature, where S_k is the centered projection total.
    The sum over k is evaluated against the first neighbor's slopes: the
    alpha-weighted centered totals sum to zero, so subtracting a constant
    slope per dimension changes nothing analytically, while rows whose
    activation regime is uniform across neighbors come out exactly zero.
    Zero matrix for N <= 1, its zeros signed as upstream * att * h_aug.
    """
    g = _check_upstream(upstream, params.out_dim)
    return _segment_theta_r_sum(trace, _one_node(trace, params.negative_slope), params, g)


def grad_theta_r_pairwise(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Target-side weight gradient, neighbor-pair form, (D, H+1).

    Visits unordered neighbor pairs exactly once; each pair contributes
    alpha[k] * alpha[j] * (total[k] - total[j]) * (slope[k] - slope[j]).
    Algebraically identical to grad_theta_r_sum. A slope difference is 0 or
    +-(1 - negative_slope), so row blocks of the pair triangle meet the 0/1
    regime indicators in two matrix products. A block has at most
    layer.EDGE_BUDGET * D // N rows, the floats of one (EDGE_BUDGET, D) array
    of a whole-graph block, so memory stays O(N * D) at any degree.
    """
    g = _check_upstream(upstream, params.out_dim)
    n = trace.num_neighbors
    pos = _branch(trace.pre_act)
    neg = ~pos
    totals = trace.source_proj.sum(axis=1)
    rows = max(1, layer.EDGE_BUDGET * params.out_dim // max(n, 1))
    coeff = np.zeros(params.out_dim)
    for lo in range(0, n - 1, rows):
        k, j = slice(lo, min(lo + rows, n - 1)), slice(lo + 1, None)
        w = np.multiply.outer(trace.alpha[k], trace.alpha[j])  # in place: a temporary fewer
        w = np.triu(np.multiply(w, np.subtract.outer(totals[k], totals[j]), out=w))
        coeff += (pos[k] * (w @ neg[j])).sum(0) - (neg[k] * (w @ pos[j])).sum(0)
    coeff *= 1.0 - params.negative_slope
    return np.outer(g * params.att * coeff, trace.h_aug_target)


def grad_theta_l(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Source-side weight gradient, (D, H+1).

    Row t sums, over neighbors k, the score-path term
    att[t] * slope[k, t] * alpha[k] * S_k plus the direct aggregation term
    alpha[k], each multiplied by the neighbor's augmented feature. The bias
    column is the same bracket against the constant-1 feature entry.
    """
    g = _check_upstream(upstream, params.out_dim)
    return _segment_theta_l(trace, _one_node(trace, params.negative_slope), params, g)


def grad_bias(upstream: np.ndarray) -> np.ndarray:
    """Bias gradient: the upstream gradient, unchanged (identity Jacobian)."""
    return _check_upstream(upstream, None).copy()


def backward_chain(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> GradientSet:
    """All four parameter gradients for an arbitrary upstream gradient.

    Walks the cached trace backwards: aggregation, softmax, score dot
    product, LeakyReLU, projections. Each step is the transposed-Jacobian
    product of its forward operation, the per-output-entry chain intact; at
    an isolated node every sum is empty, leaving zeros and the upstream as b.
    """
    g = _check_upstream(upstream, params.out_dim)
    segs = _one_node(trace, params.negative_slope)
    theta_r, theta_l, d_score = _segment_chain(trace, segs, params, g)
    return GradientSet(theta_r, theta_l, _dot(d_score, trace.post_act), g)
