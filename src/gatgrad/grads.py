"""Analytic gradients of the attention layer.

Two routes are provided for the target-side weight matrix theta_r: a
per-neighbor summation form and a neighbor-pair form. They are algebraically
identical and are kept as independent, cross-checked implementations.

The closed forms (grad_theta_r_sum, grad_theta_r_pairwise, grad_theta_l,
grad_bias) scale output row t by upstream component t: the exact loss
gradient when the upstream is a constant vector. backward_chain propagates
an arbitrary upstream through every intermediate, and
diagnostics.closed_form_gap reports how far the two differ.

Each formula is one function, written over any leading axes before a
target's neighbor arrays (..., n, .): a node has none, a block of k targets
of one degree one. Each product and sum is taken per target (layer._dot, and
one matrix product per target for the (D, H+1) blocks), so a target's
gradients are the same in any block. They read a layer.ForwardTrace, a
node's or a block's of layer._graph_chunks, by field name, the LeakyReLU
regime from its slopes, and the two terms they share beyond it from _terms,
which keeps them for the record's next route. grad_theta_r_sum and
grad_theta_l take either record; diagnostics.diagnose calls them on the
blocks of the whole graph. grad_theta_r_pairwise stays per node, as the
independent cross-check that sums the neighbor pairs straddling the kink,
one product per row block bounded by layer.EDGE_BUDGET. backward_chain
keeps a private raw form, _segment_chain: a GradientSet per block would copy
and freeze every block and form the att product, which diagnose does not use.
An isolated node is a block of degree 0: its neighbor sums are empty, so its
attention gradients are zeros, signed as a single-neighbor node's are.

Gradients are per target node; summing over nodes is left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import layer
from .graph import _finite
from .layer import BLOCKS, ForwardTrace, LayerParams, _dot

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
    """Frozen copies of the four blocks' gradients, a node's or a window's; hashed by identity."""

    theta_r: np.ndarray
    theta_l: np.ndarray
    att: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        for name in BLOCKS.values():
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "iuf":
                raise TypeError(f"{name} must hold integers or floats, got dtype {arr.dtype}")
            arr = np.array(arr, dtype=np.float64)
            arr.setflags(False)  # write=False, positional: the keyword costs more
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


# The terms the backward formulas share beyond the trace's own, for targets
# of degree n with any leading axes: the spread of the slopes from each
# target's first edge (..., n, D) (grad_theta_r_sum says why), and both
# closed forms' weights: alpha times the centered projection total, (..., n).
# Kept for the record's next route, a node's or a block's; keyed on the record.
@lru_cache(maxsize=1)
def _terms(trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
    """(spread, weights) of a node's or a block's ForwardTrace, from its slopes."""
    totals = trace.source_proj.sum(axis=-1)
    weights = trace.alpha * (totals - _dot(trace.alpha, totals[..., None]))
    return trace.slopes - trace.slopes[..., :1, :], weights


def _segment_chain(block, params: LayerParams, upstream: np.ndarray) -> tuple:
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
    d_pre = d_score[..., None] * params.att * block.slopes
    # Source side: score path plus the direct aggregation path.
    d_theta_l = d_pre.swapaxes(-1, -2) @ block.h_aug_sources
    d_theta_l += upstream[:, None] * _dot(alpha, block.h_aug_sources)[..., None, :]
    d_target = params.att * _dot(d_score, _terms(block)[0])
    d_theta_r = d_target[..., None] * block.h_aug_target[..., None, :]
    return d_theta_r, d_theta_l, d_score


def grad_theta_r_sum(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Target-side weight gradient, summation form: (D, H+1) for a node's
    trace, (k, D, H+1) for a block's of k targets, one matrix per target.

    Row t is upstream[t] * att[t] * sum_k slope[k, t] * alpha[k] * S_k times
    the augmented target feature, where S_k is the centered projection total.
    The sum over k is evaluated against the first neighbor's slopes: the
    alpha-weighted centered totals sum to zero, so subtracting a constant
    slope per dimension changes nothing analytically, while rows whose
    activation regime is uniform across neighbors come out exactly zero.
    Zero matrix for N <= 1, its zeros signed as upstream * att * h_aug.
    The slopes are the trace's, so the trace must come from `params`.
    """
    g = _check_upstream(upstream, params.out_dim)
    spread, weights = _terms(trace)
    coeff = _dot(weights, spread)
    return (g * params.att * coeff)[..., None] * trace.h_aug_target[..., None, :]


def grad_theta_r_pairwise(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Target-side weight gradient, neighbor-pair form, (D, H+1) for a node's trace.

    The trace's slopes are 1 or one negative slope s, so a neighbor pair
    feeds row t only if it straddles the kink there: row t's coefficient is
    (1 - s) times the sum, over k on the positive and j on the negative side,
    of alpha[k] * alpha[j] * (total[k] - total[j]). Algebraically identical
    to grad_theta_r_sum, without its centering or first-edge spread. Each row
    block of the full pair matrix, at most layer.EDGE_BUDGET * D // N rows of
    N columns, meets the 0/1 regime indicators in one matrix product: memory
    stays O(N * D) at any degree. A block's record raises ValueError.
    The slopes are the trace's, so the trace must come from `params`.
    """
    if trace.alpha.ndim != 1:
        raise ValueError(f"pair form takes a node's trace, not alpha {trace.alpha.shape}: "
                         "grad_theta_r_sum takes blocks")
    g = _check_upstream(upstream, params.out_dim)
    n, alpha = trace.num_neighbors, trace.alpha
    pos = trace.slopes == 1.0
    totals = trace.source_proj.sum(axis=1)
    rows = max(1, layer.EDGE_BUDGET * params.out_dim // max(n, 1))
    coeff = np.zeros(params.out_dim)
    for lo in range(0, n, rows):
        w = np.subtract.outer(totals[lo : lo + rows], totals)
        w *= alpha  # alpha[j]; alpha[k] joins the indicator, sparing an N x N product
        coeff += (alpha[lo : lo + rows, None] * pos[lo : lo + rows] * (w @ ~pos)).sum(0)
    coeff *= 1.0 - trace.slopes.min(initial=1.0)
    return np.outer(g * params.att * coeff, trace.h_aug_target)


def grad_theta_l(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Source-side weight gradient: (D, H+1) for a node's trace, (k, D, H+1)
    for a block's of k targets, one matrix per target.

    Row t sums, over neighbors k, the score-path term
    att[t] * slope[k, t] * alpha[k] * S_k plus the direct aggregation term
    alpha[k], each multiplied by the neighbor's augmented feature. The bias
    column is the same bracket against the constant-1 feature entry.
    """
    g = _check_upstream(upstream, params.out_dim)
    bracket = params.att * trace.slopes * _terms(trace)[1][..., None] + trace.alpha[..., None]
    return g[:, None] * (bracket.swapaxes(-1, -2) @ trace.h_aug_sources)


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
    The slopes are the trace's, so the trace must come from `params`.
    """
    g = _check_upstream(upstream, params.out_dim)
    theta_r, theta_l, d_score = _segment_chain(trace, params, g)
    return GradientSet(theta_r, theta_l, _dot(d_score, trace.post_act), g)
