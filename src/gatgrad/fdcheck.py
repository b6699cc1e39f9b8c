"""Independent complex-step oracle for the layer gradients.

The loss is upstream . h_out for the target node of a forward trace, so its
gradient with respect to h_out is the upstream vector itself.

Each scalar parameter entry, bias columns included, carries an imaginary
step i*h through its own evaluation of the layer: dL/dp = Im L(p + i h) / h
has no subtractive cancellation (Squire & Trapp, SIAM Review 40(1), 1998),
so h = 1e-30 leaves only the rounding of that evaluation. The evaluations
are independent, so they are batched: copies of a block, one per entry, go
through the layer core as a leading axis against the node, which has none,
in chunks bounded by layer.EDGE_BUDGET. The step moves only imaginary
parts, and LeakyReLU takes its branch on the real part (Martins, Sturdza &
Alonso, ACM TOMS 29(3), 2003), so a pre-activation at the kink is no
hazard; an entry whose copy's LeakyReLU slopes differ from the trace's, one
rounded across the kink, is flagged and excluded from the verdict.

That rounding is reported as `resolution`, a few ulps of the loss taken on
absolute values, and compare_gradients confirms entries that differ by no
more: where the loss is constant along an entry (a uniform activation
regime, whose score shift cancels inside the softmax) both sides are
rounding residues whose relative error means nothing. Its verdict for each
block is the dict the gradcheck report writes under that block's key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layer
from .grads import REL_ERR_FLOOR, GradientSet, _check_upstream
from .layer import BLOCKS, ForwardTrace, LayerParams, _propagate

# perfbench/spans.py wraps this by this module's name; nothing here calls it.
from .layer import forward_with_trace  # noqa: F401

__all__ = ["fd_gradient", "compare_gradients"]

# Imaginary step of the complex-step derivative; reported as the `step` key.
COMPLEX_STEP = 1e-30

# Rounding amplification allowed for one loss evaluation, in units of eps.
RESOLUTION_ULPS = 64.0


@dataclass(frozen=True, eq=False)
class FdGradient:
    """Complex-step gradients plus per-entry kink flags; hashed by identity.

    kink_flags maps each block's file key to a boolean mask of the entries
    excluded from the verdict: those whose complex pass took another LeakyReLU
    slope than the real pass somewhere, never at negative_slope 1. resolution
    is the smallest analytic/numeric difference the oracle can resolve here.
    A window of k nodes puts its node axis k in front of every array, and its
    resolution is a (k,) array; node(i) is node i's result as its lone trace's.
    """

    grads: GradientSet
    kink_flags: dict[str, np.ndarray]
    resolution: float | np.ndarray

    def node(self, i: int) -> FdGradient:
        """Node i's slice of a window's result."""
        grads = GradientSet(*(block[i] for block in self.grads.as_dict().values()))
        flags = {key: mask[i] for key, mask in self.kink_flags.items()}
        return FdGradient(grads, flags, float(self.resolution[i]))


def fd_gradient(
    trace: ForwardTrace | list[ForwardTrace], params: LayerParams, upstream: np.ndarray
) -> FdGradient:
    """Complex-step derivative of the loss upstream . h_out over every parameter entry.

    The oracle runs no forward pass of its own: each block's perturbed copies
    go from the trace's augmented rows, which have no leading axis, through
    the layer core in chunks, the copies the leading axis and the other blocks
    broadcast. EDGE_BUDGET // (2 max(N, H+1)) copies for N neighbors keep the
    complex stack and the edge arrays each within the bytes of one
    (EDGE_BUDGET, D) float64 array of a whole-graph block. Of the trace's
    results only slopes (the flags) and alpha with source_proj (the
    resolution) are read, so the derivative stays independent of the routes
    it checks. The a and b copies never reach a pre-activation, so are never
    flagged. A window, a list of k traces with upstream rows (k, D), runs
    chunk-major: each stack is built once for every node of its chunk size,
    and each core call is a lone trace's, so every entry, flag and
    resolution is too.
    """
    traces, rows = ([trace], [upstream]) if isinstance(trace, ForwardTrace) else (trace, upstream)
    gs = [_check_upstream(row, params.out_dim) for _, row in zip(traces, rows, strict=True)]
    args = [(params.negative_slope, t.h_aug_target, t.h_aug_sources) for t in traces]
    width = params.feature_dim + 1
    chunks = [max(1, layer.EDGE_BUDGET // (2 * max(t.num_neighbors, width))) for t in traces]
    blocks = [getattr(params, name) for name in BLOCKS.values()]
    grads = [np.empty((len(traces), *block.shape)) for block in blocks]
    flags = [np.zeros((len(traces), *block.shape), dtype=bool) for block in blocks]
    for chunk in dict.fromkeys(chunks):  # chunk-major: one stack for every node of its size
        nodes = [i for i, size in enumerate(chunks) if size == chunk]
        for pos, block in enumerate(blocks):
            for lo in range(0, block.size, chunk):
                idx = np.arange(lo, min(lo + chunk, block.size))
                stack = np.full((len(idx), block.size), block.reshape(-1), complex)
                stack[np.arange(len(idx)), idx] += 1j * COMPLEX_STEP
                stacked = [*blocks[:pos], stack.reshape(-1, *block.shape), *blocks[pos + 1 :]]
                for i in nodes:
                    copies = _propagate(*stacked, *args[i])
                    loss = (copies.h_out[:, None, :] @ gs[i])[:, 0]  # each copy's own dot product
                    if not np.isfinite(loss).all():
                        raise ValueError("non-finite loss at a perturbed point")
                    grads[pos][i].flat[idx] = loss.imag / COMPLEX_STEP
                    flags[pos][i].flat[idx] = (copies.slopes != traces[i].slopes).any((-2, -1))
                    del copies  # freed, so the next call's arrays reuse their memory
    # One evaluation rounds on the scale of the loss taken on absolute values, which
    # can overflow where the loss cancels: an infinite resolution would confirm every entry.
    abs_h_outs = [np.abs(params.bias) + t.alpha @ np.abs(t.source_proj) for t in traces]
    abs_losses = [float(np.abs(g) @ abs_h_out) for g, abs_h_out in zip(gs, abs_h_outs)]
    if not all(map(math.isfinite, abs_losses)):
        raise ValueError("non-finite loss scale")
    resolution = RESOLUTION_ULPS * np.finfo(np.float64).eps * np.maximum(1.0, abs_losses)
    numeric = FdGradient(GradientSet(*grads), dict(zip(BLOCKS, flags)), resolution)
    return numeric if traces is trace else numeric.node(0)  # a lone trace's shapes


def _relative_error(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise |x - y| / max(|x|, |y|, REL_ERR_FLOOR)."""
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), REL_ERR_FLOOR)
    return np.abs(x - y) / scale


def _indices(mask: np.ndarray) -> tuple:
    rows = np.argwhere(mask).tolist() if mask.any() else ()  # most masks have no True
    return tuple(i for (i,) in rows) if mask.ndim == 1 else tuple(map(tuple, rows))


def compare_gradients(
    analytic: GradientSet,
    numeric: FdGradient,
    tolerance: float = 1e-6,
    keys: tuple[str, ...] = tuple(BLOCKS),
) -> dict[str, dict]:
    """Compare analytic gradients against the oracle, parameter by parameter.

    An entry passes when its relative error is within the tolerance, or when
    its disagreement sits within the oracle resolution: both values then
    agree to within the rounding of one evaluation. Entries whose oracle
    pass changed a LeakyReLU branch (kink_flags) are excluded from the
    verdict and listed. The tolerance must be positive and finite.

    Each key maps to its block's verdict as the report writes it: max_rel_err,
    pass, kink_flagged and worst_entry (None where no entry is judged).
    """
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    analytic_sets, numeric_sets = analytic.as_dict(), numeric.grads.as_dict()
    checks = {}
    for key in keys:
        x, y = analytic_sets[key], numeric_sets[key]
        if x.shape != y.shape:
            raise ValueError(f"{key}: analytic shape {x.shape} != numeric {y.shape}")
        flag = numeric.kink_flags[key]
        rel = _relative_error(x, y)
        below_res = np.abs(x - y) <= numeric.resolution
        judged = ~flag & ~below_res
        if judged.any():
            masked = np.where(judged, rel, -1.0)
            worst_flat = int(np.argmax(masked))
            index = np.unravel_index(worst_flat, x.shape)
            worst = worst_flat if x.ndim == 1 else tuple(int(v) for v in index)
            max_rel = float(masked.reshape(-1)[worst_flat])
        else:
            worst, max_rel = None, 0.0
        checks[key] = {
            "max_rel_err": max_rel,
            "pass": bool(np.all((rel <= tolerance) | below_res | flag)),
            "kink_flagged": _indices(flag),
            "worst_entry": worst,
        }
    return checks
