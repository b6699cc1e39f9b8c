"""Analytic per-node gradients of the attention layer.

Two routes are provided for the target-side weight matrix theta_r: a
per-neighbor summation form and a neighbor-pair form. They are algebraically
identical and are kept as independent, cross-checked implementations.

The closed forms (grad_theta_r_sum, grad_theta_r_pairwise, grad_theta_l,
grad_bias) scale output row t by upstream component t. That equals the exact
loss gradient whenever the upstream gradient is a constant vector; for an
arbitrary upstream gradient use backward_chain, which propagates the full
vector through every intermediate. diagnostics.closed_form_gap reports the
discrepancy between the two for a given upstream.

Gradients are per target node; summing over nodes is left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layer import ForwardTrace, LayerParams

__all__ = [
    "GradientSet",
    "relative_error",
    "leaky_relu_slopes",
    "softmax_jacobian",
    "projection_totals",
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


def leaky_relu_slopes(trace: ForwardTrace, negative_slope: float) -> np.ndarray:
    """Per-neighbor, per-dimension LeakyReLU derivative, (N, D) in {1, slope}.

    A pre-activation of exactly 0 sits on the negative branch.
    """
    return np.where(trace.pre_act > 0.0, 1.0, negative_slope)


def softmax_jacobian(alpha: np.ndarray) -> np.ndarray:
    """N x N Jacobian of the softmax output with respect to the raw scores.

    Entry (l, j) is alpha[l] * (delta(l, j) - alpha[j]). Symmetric, rows sum
    to zero, diagonal nonnegative. Input must already be normalized.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.size and abs(float(a.sum()) - 1.0) > 1e-9:
        raise ValueError(f"attention weights sum to {a.sum()!r}, expected 1")
    return np.diag(a) - np.outer(a, a)


def projection_totals(trace: ForwardTrace) -> np.ndarray:
    """Projection totals of all cached neighbors, (N,)."""
    return trace.source_proj.sum(axis=1)


def _check_upstream(upstream: np.ndarray, out_dim: int) -> np.ndarray:
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != (out_dim,):
        raise ValueError(f"upstream gradient shape {g.shape}, expected ({out_dim},)")
    if not np.isfinite(g).all():
        raise ValueError("non-finite upstream gradient")
    return g


def _zero_set(params: LayerParams, upstream: np.ndarray) -> GradientSet:
    return GradientSet(
        theta_r=np.zeros_like(params.theta_r),
        theta_l=np.zeros_like(params.theta_l),
        att=np.zeros(params.out_dim),
        bias=upstream.copy(),
    )


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
    slopes = leaky_relu_slopes(trace, params.negative_slope)
    totals = projection_totals(trace)
    centered = totals - trace.alpha @ totals
    weights = trace.alpha * centered
    coeff = (slopes - slopes[0]).T @ weights
    return np.outer(g * params.att * coeff, trace.h_aug_target)


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
    slopes = leaky_relu_slopes(trace, params.negative_slope)
    totals = projection_totals(trace)
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
    slopes = leaky_relu_slopes(trace, params.negative_slope)
    totals = projection_totals(trace)
    centered = totals - trace.alpha @ totals
    weights = trace.alpha * centered
    bracket = params.att[None, :] * slopes * weights[:, None] + trace.alpha[:, None]
    return g[:, None] * (bracket.T @ trace.h_aug_sources)


def grad_bias(upstream: np.ndarray) -> np.ndarray:
    """Bias gradient: the upstream gradient, unchanged (identity Jacobian)."""
    return np.asarray(upstream, dtype=np.float64).copy()


def _score_gradient(trace: ForwardTrace, upstream: np.ndarray) -> np.ndarray:
    """Loss gradient with respect to each raw neighbor score, (N,).

    d_alpha[k] is the full contraction of the upstream gradient with the
    projected neighbor feature (no collapse over output dimensions). The
    softmax backward is shift invariant in d_alpha, so d_alpha is centered
    on its first entry: identical neighbors then yield exact zeros.
    """
    d_alpha = trace.source_proj @ upstream
    d_alpha = d_alpha - d_alpha[0]
    return trace.alpha * (d_alpha - trace.alpha @ d_alpha)


def grad_att(
    trace: ForwardTrace, params: LayerParams, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of the attention vector, (D,): zero whenever N <= 1."""
    g = _check_upstream(upstream, params.out_dim)
    if trace.num_neighbors == 0:
        return np.zeros(params.out_dim)
    d_score = _score_gradient(trace, g)
    return trace.post_act.T @ d_score


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
        return _zero_set(params, g)
    slopes = leaky_relu_slopes(trace, params.negative_slope)
    d_score = _score_gradient(trace, g)
    d_post = d_score[:, None] * params.att[None, :]
    d_pre = d_post * slopes
    # Source side: score path plus the direct aggregation path.
    d_theta_l = d_pre.T @ trace.h_aug_sources + np.outer(
        g, trace.alpha @ trace.h_aug_sources
    )
    d_att = trace.post_act.T @ d_score
    # Target side: the score gradients sum to zero analytically, so the
    # shared projection gradient is accumulated against first-neighbor
    # slopes; dimensions with a uniform activation regime vanish exactly.
    d_target_proj = params.att * ((slopes - slopes[0]).T @ d_score)
    d_theta_r = np.outer(d_target_proj, trace.h_aug_target)
    return GradientSet(
        theta_r=d_theta_r, theta_l=d_theta_l, att=d_att, bias=g.copy()
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
