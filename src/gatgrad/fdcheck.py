"""Independent central finite-difference oracle for the layer gradients.

The loss is upstream . h_out for one target node, so its gradient with
respect to h_out is the upstream vector itself.

Every scalar parameter entry is perturbed in place, including the bias
columns of the weight matrices, so the oracle differentiates exactly the
parameterization the analytic code does. Entries whose perturbed evaluation
lands near a LeakyReLU kink are flagged and excluded from the verdict rather
than judged: the derivative there is convention-dependent.

The quotient (L+ - L-) / (2 step) cannot resolve differences below the
rounding noise of one loss evaluation divided by the step. That floor is
reported as `resolution`, and compare_gradients treats entries whose analytic
value and disagreement both sit below it as confirmed zeros: along directions
where the loss is exactly constant (for example a uniform activation regime,
where score shifts cancel inside the softmax) the quotient is pure rounding
noise and carries no information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grads import PARAM_KEYS, GradientSet, _check_upstream, relative_error
from .graph import Graph
from .layer import LayerParams, _propagate, forward_with_trace

__all__ = ["FdConfig", "fd_gradient", "compare_gradients"]

# Rounding amplification allowed for one loss evaluation, in units of eps.
RESOLUTION_ULPS = 64.0


@dataclass(frozen=True)
class FdConfig:
    step: float = 1e-5
    tolerance: float = 1e-6
    kink_guard: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.step < 1.0:
            raise ValueError("step must lie in (0, 1)")
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass(frozen=True)
class FdGradient:
    """Central-difference gradients plus per-entry kink flags.

    kink_flags maps each wire name to a boolean mask of entries whose
    perturbed forward pass had some |pre-activation| below the kink guard.
    resolution is the smallest analytic/numeric difference the quotient can
    meaningfully resolve for this run.
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
    config: FdConfig = FdConfig(),
) -> FdGradient:
    """Central differences of the loss upstream . h_out over every parameter entry.

    The node is evaluated once through forward_with_trace; every perturbed
    evaluation reruns only the layer arithmetic on the cached augmented
    features.
    """
    g = _check_upstream(upstream, params.out_dim)
    base = forward_with_trace(params, graph, features, node)
    blocks = [params.theta_r, params.theta_l, params.att, params.bias]

    def loss_at(trial: list) -> tuple[float, bool]:
        out = _propagate(
            *trial, params.negative_slope, base.h_aug_target, base.h_aug_sources
        )
        pre_act, h_out = out[2], out[-1]
        value = float(g @ h_out)
        if not np.isfinite(value):
            raise ValueError("non-finite loss at a perturbed point")
        near_kink = bool(pre_act.size and (np.abs(pre_act) < config.kink_guard).any())
        return value, near_kink

    max_abs_loss = max(1.0, abs(loss_at(blocks)[0]))
    grads: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    for pos, base_block in enumerate(blocks):
        grad = np.zeros(base_block.shape)
        flag = np.zeros(base_block.shape, dtype=bool)
        grad_flat, flag_flat = grad.reshape(-1), flag.reshape(-1)
        for idx in range(base_block.size):

            def perturbed_loss(delta):
                work = base_block.copy()
                work.reshape(-1)[idx] += delta
                return loss_at(blocks[:pos] + [work] + blocks[pos + 1 :])

            plus, kink_plus = perturbed_loss(config.step)
            minus, kink_minus = perturbed_loss(-config.step)
            grad_flat[idx] = (plus - minus) / (2.0 * config.step)
            flag_flat[idx] = kink_plus or kink_minus
            max_abs_loss = max(max_abs_loss, abs(plus), abs(minus))
        grads.append(grad)
        flags.append(flag)
    resolution = (
        RESOLUTION_ULPS * np.finfo(np.float64).eps * max_abs_loss / (2.0 * config.step)
    )
    return FdGradient(
        grads=GradientSet(*grads),
        kink_flags=dict(zip(PARAM_KEYS, flags)),
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
    step: float
    tolerance: float
    resolution: float
    passed: bool

    def to_json_dict(self, seed: int | None = None) -> dict:
        out: dict = {key: check.to_json_dict() for key, check in self.checks.items()}
        out["step"] = self.step
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
    config: FdConfig = FdConfig(),
    keys: tuple[str, ...] = PARAM_KEYS,
) -> GradCheckReport:
    """Compare analytic gradients against the oracle, parameter by parameter.

    An entry passes when its relative error is within the tolerance, or when
    both the analytic value and the disagreement sit below the oracle
    resolution: the loss is then constant along that coordinate to within
    rounding, and the quotient is pure noise with no information to judge.
    Kink-flagged entries are excluded from the verdict and listed.
    """
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
        diff = np.abs(x - y)
        below_res = (np.abs(x) <= resolution) & (diff <= resolution)
        passed = bool(np.all((rel <= config.tolerance) | below_res | flag))
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
        step=config.step,
        tolerance=config.tolerance,
        resolution=resolution,
        passed=all_passed,
    )
