"""Independent complex-step oracle for the layer gradients.

The loss is upstream . h_out for one target node, so its gradient with
respect to h_out is the upstream vector itself.

Each scalar parameter entry, bias columns included, carries an imaginary
step i*h through its own evaluation of the layer: dL/dp = Im L(p + i h) / h
has no subtractive cancellation (Squire & Trapp, SIAM Review 40(1), 1998),
so h = 1e-30 leaves only the rounding of that evaluation. The evaluations
are independent, so they are batched: copies of a block, one per entry, go
through the layer core along a leading batch axis, in chunks bounded by
layer.EDGE_BUDGET. The layer is analytic along every entry away from a
LeakyReLU kink; a node with a pre-activation within KINK_GUARD of one has
all its entries flagged and excluded from the verdict, since the derivative
there is convention-dependent.

That rounding is reported as `resolution`, a few ulps of the loss taken on
absolute values, and compare_gradients confirms entries that differ by no
more: where the loss is constant along an entry (a uniform activation
regime, whose score shift cancels inside the softmax) both sides are
rounding residues whose relative error means nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layer
from .grads import PARAM_KEYS, GradientSet, _check_upstream, relative_error
from .graph import Graph
from .layer import _ONE_SEGMENT, LayerParams, _propagate, forward_with_trace

__all__ = ["fd_gradient", "compare_gradients"]

# Imaginary step of the complex-step derivative; reported as the `step` key.
COMPLEX_STEP = 1e-30

# Rounding amplification allowed for one loss evaluation, in units of eps.
RESOLUTION_ULPS = 64.0

# An unperturbed |pre-activation| below this flags every entry of the node.
KINK_GUARD = 1e-4


@dataclass(frozen=True)
class FdGradient:
    """Complex-step gradients plus per-entry kink flags.

    kink_flags maps each wire name to a boolean mask of entries excluded
    from the verdict: all of them when some unperturbed |pre-activation| is
    below KINK_GUARD. resolution is the smallest analytic/numeric
    difference the oracle can resolve for this node.
    """

    grads: GradientSet
    kink_flags: dict[str, np.ndarray]
    resolution: float


def fd_gradient(
    params: LayerParams,
    graph: Graph,
    features: np.ndarray,
    node: int,
    upstream: np.ndarray,
) -> FdGradient:
    """Complex-step derivative of the loss upstream . h_out over every parameter entry.

    The node is evaluated once through forward_with_trace. Each block's
    perturbed copies then go through the one-segment layer core in chunks,
    the other blocks broadcast: EDGE_BUDGET // (2 max(N, H+1)) copies for N
    neighbors keep the complex stack and the edge arrays each within the
    bytes of one (EDGE_BUDGET, D) float64 array of a whole-graph chunk.
    """
    g = _check_upstream(upstream, params.out_dim)
    base = forward_with_trace(params, graph, features, node)
    near_kink = bool((np.abs(base.pre_act) < KINK_GUARD).any())
    blocks = [params.theta_r, params.theta_l, params.att, params.bias]
    node_args = (params.negative_slope, base.h_aug_target[None, :], base.h_aug_sources)
    chunk = max(1, layer.EDGE_BUDGET // (2 * max(base.num_neighbors, params.feature_dim + 1)))
    grads: list[np.ndarray] = []
    for pos, base_block in enumerate(blocks):
        grad = np.empty(base_block.size)
        for lo in range(0, base_block.size, chunk):
            idx = np.arange(lo, min(lo + chunk, base_block.size))
            stack = np.tile(base_block.reshape(-1).astype(complex), (len(idx), 1))
            stack[np.arange(len(idx)), idx] += 1j * COMPLEX_STEP
            stacked = [*blocks[:pos], stack.reshape(-1, *base_block.shape), *blocks[pos + 1 :]]
            loss = _propagate(*stacked, *node_args, _ONE_SEGMENT)[-1][:, 0] @ g
            if not np.isfinite(loss).all():
                raise ValueError("non-finite loss at a perturbed point")
            grad[idx] = loss.imag / COMPLEX_STEP
        grads.append(grad.reshape(base_block.shape))
    # One evaluation rounds on the scale of the loss taken on absolute values,
    # which can overflow where the loss cancels; an infinite resolution would
    # confirm every entry.
    abs_h_out = np.abs(params.bias) + base.alpha @ np.abs(base.source_proj)
    abs_loss = float(np.abs(g) @ abs_h_out)
    if not math.isfinite(abs_loss):
        raise ValueError("non-finite loss scale")
    resolution = RESOLUTION_ULPS * np.finfo(np.float64).eps * max(1.0, abs_loss)
    return FdGradient(
        grads=GradientSet(*grads),
        kink_flags={k: np.full(b.shape, near_kink) for k, b in zip(PARAM_KEYS, blocks)},
        resolution=float(resolution),
    )


@dataclass(frozen=True)
class ParamCheck:
    """Verdict for one parameter block."""

    max_rel_err: float
    passed: bool
    kink_flagged: tuple
    worst_entry: tuple | int | None

    def to_json_dict(self) -> dict:
        return {
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
            "kink_flagged": [
                list(ix) if isinstance(ix, tuple) else ix for ix in self.kink_flagged
            ],
            "worst_entry": (
                list(self.worst_entry)
                if isinstance(self.worst_entry, tuple)
                else self.worst_entry
            ),
        }


@dataclass(frozen=True)
class GradCheckReport:
    """Per-parameter comparison verdicts plus the run configuration."""

    checks: dict[str, ParamCheck]
    tolerance: float
    resolution: float
    passed: bool

    def to_json_dict(self, seed: int | None = None) -> dict:
        out: dict = {key: check.to_json_dict() for key, check in self.checks.items()}
        out["step"] = COMPLEX_STEP
        out["tolerance"] = self.tolerance
        out["resolution"] = self.resolution
        out["seed"] = seed
        out["pass"] = self.passed
        return out


def _indices(mask: np.ndarray) -> tuple:
    if mask.ndim == 1:
        return tuple(int(i) for i in np.flatnonzero(mask))
    return tuple(tuple(int(v) for v in ix) for ix in np.argwhere(mask))


def compare_gradients(
    analytic: GradientSet,
    numeric: FdGradient | GradientSet,
    tolerance: float = 1e-6,
    keys: tuple[str, ...] = PARAM_KEYS,
) -> GradCheckReport:
    """Compare analytic gradients against the oracle, parameter by parameter.

    An entry passes when its relative error is within the tolerance, or when
    its disagreement sits within the oracle resolution: both values then
    agree to within the rounding of one evaluation. Kink-flagged entries are
    excluded from the verdict and listed. The tolerance must be positive
    and finite.
    """
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if isinstance(numeric, FdGradient):
        numeric_sets = numeric.grads.as_dict()
        flags = numeric.kink_flags
        resolution = numeric.resolution
    else:
        numeric_sets = numeric.as_dict()
        flags = {}
        resolution = 0.0
    analytic_sets = analytic.as_dict()
    checks: dict[str, ParamCheck] = {}
    all_passed = True
    for key in keys:
        x, y = analytic_sets[key], numeric_sets[key]
        if x.shape != y.shape:
            raise ValueError(f"{key}: analytic shape {x.shape} != numeric {y.shape}")
        flag = flags.get(key, np.zeros(x.shape, dtype=bool))
        rel = relative_error(x, y)
        below_res = np.abs(x - y) <= resolution
        passed = bool(np.all((rel <= tolerance) | below_res | flag))
        judged = ~flag & ~below_res
        if judged.any():
            masked = np.where(judged, rel, -1.0)
            worst_flat = int(np.argmax(masked))
            worst = (
                worst_flat
                if x.ndim == 1
                else tuple(int(v) for v in np.unravel_index(worst_flat, x.shape))
            )
            max_rel = float(masked.reshape(-1)[worst_flat])
        else:
            worst, max_rel = None, 0.0
        checks[key] = ParamCheck(
            max_rel_err=max_rel,
            passed=passed,
            kink_flagged=_indices(flag),
            worst_entry=worst,
        )
        all_passed &= passed
    return GradCheckReport(
        checks=checks,
        tolerance=tolerance,
        resolution=resolution,
        passed=all_passed,
    )
