"""Analytic gradients of the attention layer.

Two routes are provided for the target-side weight matrix theta_r: a
per-neighbor summation form and a neighbor-pair form. They are algebraically
identical and are kept as independent, cross-checked implementations.

The closed forms (grad_theta_r_sum, grad_theta_r_pairwise, grad_theta_l,
grad_bias) scale output row t by upstream component t. That equals the exact
loss gradient whenever the upstream gradient is a constant vector; for an
arbitrary upstream gradient use backward_chain, which propagates the full
vector through every intermediate. diagnostics.closed_form_gap reports the
discrepancy between the two for a given upstream.

The formulas are written once, over the edge segments of layer._propagate
(one per target, reduced as in DGL's edge_softmax backward). The public
functions are the one-segment case of one node's trace, and
diagnostics.diagnose runs them over chunks of the graph; only
grad_theta_r_pairwise stays per node, as the independent cross-check.

Gradients are per target node; summing over nodes is left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .layer import _ONE_SEGMENT, ForwardTrace, LayerParams, _segment_dot, _segment_ids
from .layer import _segment_products

__all__ = [
    "GradientSet",
    "relative_error",
    "softmax_jacobian",
    "grad_theta_r_sum",
    "grad_theta_r_pairwise",
    "grad_theta_l",
    "grad_bias",
    "grad_att",
    "backward_chain",
    "gradient_set_to_json_dict",
]

# Wire names used by the params/gradient/report JSON formats, in emission order.
PARAM_KEYS = ("theta_R", "theta_L", "a", "b")

# Floor for the relative-error denominator; keeps the metric defined at zero.
REL_ERR_FLOOR = 1e-12


@dataclass(frozen=True)
class GradientSet:
    """Gradients of the four trainable parameter blocks for one target node."""

    theta_r: np.ndarray
    theta_l: np.ndarray
    att: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta_r", "theta_l", "att", "bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "theta_R": self.theta_r,
            "theta_L": self.theta_l,
            "a": self.att,
            "b": self.bias,
        }


def relative_error(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise |x - y| / max(|x|, |y|, floor)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), REL_ERR_FLOOR)
    return np.abs(x - y) / scale


def softmax_jacobian(alpha: np.ndarray) -> np.ndarray:
    """N x N Jacobian of the softmax output with respect to the raw scores.

    Entry (l, j) is alpha[l] * (delta(l, j) - alpha[j]). Symmetric, rows sum
    to zero, diagonal nonnegative. Input must already be normalized and finite.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("non-finite attention weight")
    if a.size and abs(float(a.sum()) - 1.0) > 1e-9:
        raise ValueError(f"attention weights sum to {a.sum()!r}, expected 1")
    return np.diag(a) - np.outer(a, a)


def _check_upstream(upstream: np.ndarray, out_dim: int | None) -> np.ndarray:
    """The upstream gradient as a finite float64 vector, of length out_dim unless None."""
    g = np.asarray(upstream, dtype=np.float64)
    if g.ndim != 1 or out_dim not in (None, len(g)):
        want = "D" if out_dim is None else out_dim
        raise ValueError(f"upstream gradient shape {g.shape}, expected ({want},)")
    if not np.isfinite(g).all():
        raise ValueError("non-finite upstream gradient")
    return g


def _slopes(pre_act: np.ndarray, negative_slope: float) -> np.ndarray:
    """LeakyReLU derivative per edge and dimension, in {1, negative_slope}.

    A pre-activation of exactly 0 sits on the negative branch.
    """
    return np.where(pre_act > 0.0, 1.0, negative_slope)


class _Segments(NamedTuple):
    """What the backward formulas read, for m non-empty segments of E edges.

    starts and seg as in layer._segment_ids; the augmented rows (m or E, H+1);
    _propagate's edge arrays; the LeakyReLU slopes (E, D), and their spread
    from the segment's first edge. The theta_R sums weigh the slopes by
    values that sum to zero over a segment, so they are taken against the
    spread: a dimension with one regime over the segment comes out exactly 0.
    """

    starts: np.ndarray
    seg: np.ndarray
    h_aug_targets: np.ndarray
    h_aug_sources: np.ndarray
    source_proj: np.ndarray
    post_act: np.ndarray
    alpha: np.ndarray
    slopes: np.ndarray
    spread: np.ndarray


def _segments(starts, h_aug_targets, h_aug_sources, source_proj, pre_act, post_act, alpha, slope):
    """_Segments of _propagate's arrays, for LeakyReLU negative slope `slope`."""
    seg = _segment_ids(starts, len(alpha))
    slopes = _slopes(pre_act, slope)
    return _Segments(
        starts, seg, h_aug_targets, h_aug_sources, source_proj, post_act, alpha,
        slopes, slopes - slopes[starts][seg],
    )


@lru_cache(maxsize=1)
def _one_segment(trace: ForwardTrace, slope: float) -> _Segments:
    """A node's trace as the one-segment case, kept for the node's next route."""
    return _segments(
        _ONE_SEGMENT, trace.h_aug_target[None], trace.h_aug_sources,
        trace.source_proj, trace.pre_act, trace.post_act, trace.alpha, slope,
    )


def _closed_weights(segs: _Segments) -> np.ndarray:
    """alpha * (each edge's projection total, centered on its segment's mean), (E,)."""
    totals = segs.source_proj.sum(axis=1)
    return segs.alpha * (totals - _segment_dot(segs.alpha, totals, segs.starts)[segs.seg])


def _segment_theta_r_sum(segs: _Segments, params: LayerParams, upstream, weights):
    """grad_theta_r_sum of every segment, (m, D, H+1), from _closed_weights."""
    coeff = _segment_dot(weights, segs.spread, segs.starts)
    return (upstream * params.att * coeff)[:, :, None] * segs.h_aug_targets[:, None, :]


def _segment_theta_l(segs: _Segments, params: LayerParams, upstream, weights):
    """grad_theta_l of every segment, (m, D, H+1), from _closed_weights."""
    bracket = params.att * segs.slopes * weights[:, None] + segs.alpha[:, None]
    return upstream[:, None] * _segment_products(bracket, segs.h_aug_sources, segs.starts)


def _segment_chain(segs: _Segments, params: LayerParams, upstream: np.ndarray) -> tuple:
    """backward_chain's theta_R and theta_L blocks (m, D, H+1) of every
    segment, and the score gradients d_score (E,). The att blocks are
    _segment_dot(d_score, post_act, starts), the bias blocks the upstream."""
    starts, seg, alpha = segs.starts, segs.seg, segs.alpha
    # d_alpha[k] contracts the upstream with the projected source feature.
    # The softmax backward is shift invariant in d_alpha, so it is centered on
    # the segment's first edge: identical neighbors then yield exact zeros.
    d_alpha = segs.source_proj @ upstream
    d_alpha = d_alpha - d_alpha[starts][seg]
    d_score = alpha * (d_alpha - _segment_dot(alpha, d_alpha, starts)[seg])
    d_pre = d_score[:, None] * params.att * segs.slopes
    # Source side: score path plus the direct aggregation path.
    d_theta_l = _segment_products(d_pre, segs.h_aug_sources, starts)
    d_theta_l += upstream[:, None] * _segment_dot(alpha, segs.h_aug_sources, starts)[:, None]
    d_target = params.att * _segment_dot(d_score, segs.spread, starts)
    d_theta_r = d_target[:, :, None] * segs.h_aug_targets[:, None, :]
    return d_theta_r, d_theta_l, d_score


def _segment_gap(segs: _Segments, params: LayerParams, upstream: np.ndarray, chain=None):
    """diagnostics.closed_form_gap of every segment, (m,), given or computing
    the chain's theta_R and theta_L stacks. The b blocks are the upstream on
    both sides: no difference, and max |upstream| in the scale."""
    weights = _closed_weights(segs)
    forms = (_segment_theta_r_sum, _segment_theta_l)
    closed = [form(segs, params, upstream, weights) for form in forms]
    exact = _segment_chain(segs, params, upstream)[:2] if chain is None else chain
    diff = np.max([np.abs(c - e).max(axis=(1, 2)) for c, e in zip(closed, exact)], axis=0)
    scale = np.max([np.abs(b).max(axis=(1, 2)) for b in (*closed, *exact)], axis=0)
    return diff / np.maximum(np.maximum(scale, np.abs(upstream).max()), REL_ERR_FLOOR)


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
    Zero matrix for N <= 1.
    """
    g = _check_upstream(upstream, params.out_dim)
    n = trace.num_neighbors
    if n == 0:
        return np.zeros_like(params.theta_r)
    segs = _one_segment(trace, params.negative_slope)
    return _segment_theta_r_sum(segs, params, g, _closed_weights(segs))[0]


def grad_theta_r_pairwise(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Target-side weight gradient, neighbor-pair form, (D, H+1).

    Visits unordered neighbor pairs exactly once; each pair contributes
    alpha[k] * alpha[j] * (total[k] - total[j]) * (slope[k] - slope[j]).
    Algebraically identical to grad_theta_r_sum. The pairs j > k of one
    neighbor k are summed at once, so memory stays O(N * D).
    """
    g = _check_upstream(upstream, params.out_dim)
    n = trace.num_neighbors
    if n < 2:
        return np.zeros_like(params.theta_r)
    slopes = _slopes(trace.pre_act, params.negative_slope)
    totals = trace.source_proj.sum(axis=1)
    alpha = trace.alpha
    coeff = np.zeros(params.out_dim)
    for k in range(n - 1):
        pair = alpha[k] * alpha[k + 1 :] * (totals[k] - totals[k + 1 :])
        coeff += pair @ (slopes[k] - slopes[k + 1 :])
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
    n = trace.num_neighbors
    if n == 0:
        return np.zeros_like(params.theta_l)
    segs = _one_segment(trace, params.negative_slope)
    return _segment_theta_l(segs, params, g, _closed_weights(segs))[0]


def grad_bias(upstream: np.ndarray) -> np.ndarray:
    """Bias gradient: the upstream gradient, unchanged (identity Jacobian)."""
    return _check_upstream(upstream, None).copy()


def grad_att(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of the attention vector, (D,): backward_chain's, zero for N <= 1."""
    return backward_chain(trace, params, upstream).att


def backward_chain(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> GradientSet:
    """All four parameter gradients for an arbitrary upstream gradient.

    Walks the cached trace backwards: aggregation, softmax, score dot
    product, LeakyReLU, projections. Each step is the transposed-Jacobian
    product of the corresponding forward operation, with the per-output-entry
    chain kept intact throughout.
    """
    g = _check_upstream(upstream, params.out_dim)
    n = trace.num_neighbors
    if n == 0:
        return GradientSet(
            theta_r=np.zeros_like(params.theta_r),
            theta_l=np.zeros_like(params.theta_l),
            att=np.zeros(params.out_dim),
            bias=g.copy(),
        )
    segs = _one_segment(trace, params.negative_slope)
    theta_r, theta_l, d_score = _segment_chain(segs, params, g)
    att = _segment_dot(d_score, segs.post_act, segs.starts)[0]
    return GradientSet(
        theta_r=theta_r[0], theta_l=theta_l[0], att=att, bias=g.copy()
    )


def gradient_set_to_json_dict(
    grads: GradientSet, target_node: int, num_neighbors: int, upstream_mode: str
) -> dict:
    """GradientSet as a JSON-ready dict mirroring the params file layout."""
    out: dict = {key: block.tolist() for key, block in grads.as_dict().items()}
    out["meta"] = {
        "target_node": int(target_node),
        "N": int(num_neighbors),
        "upstream_mode": upstream_mode,
    }
    return out
