"""One graph attention layer: score, normalize over neighbors, aggregate.

The update for target node i with neighbors j is

    score(i, j) = att . LeakyReLU(theta_r @ h_aug(i) + theta_l @ h_aug(j))
    alpha       = softmax over the neighbor scores
    h_out(i)    = bias + sum_j alpha[j] * (theta_l @ h_aug(j))

where h_aug(j) = [1, h(j)]. All arithmetic is 64-bit. forward_with_trace
gathers the augmented rows of the target and its neighbors in one step (one
indexing of the feature matrix, one finite check) and caches every
intermediate so the backward pass can be assembled without recomputation;
the arithmetic itself lives in one private function that the complex-step
oracle also calls, in complex arithmetic, on imaginary-perturbed parameter
blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _index, _numbers, _write_json

__all__ = [
    "LayerParams",
    "ForwardTrace",
    "leaky_relu",
    "neighbor_softmax",
    "forward_with_trace",
    "load_params",
    "save_params",
]


@dataclass(frozen=True)
class LayerParams:
    """Trainable layer parameters.

    theta_r projects the target node, theta_l the message sources. Column 0
    of each matrix is the bias column (it multiplies the constant-1 entry of
    augmented features); columns 1.. are the weight part. Arrays are copied
    and frozen at construction, so instances are safe to share.
    """

    theta_r: np.ndarray
    theta_l: np.ndarray
    att: np.ndarray
    bias: np.ndarray
    negative_slope: float = 0.2

    def __post_init__(self) -> None:
        for name in ("theta_r", "theta_l", "att", "bias"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.theta_r.ndim != 2 or self.theta_r.shape[1] < 1:
            raise ValueError("theta_r must be a matrix with at least one column")
        if self.theta_l.shape != self.theta_r.shape:
            raise ValueError(
                f"theta_l shape {self.theta_l.shape} != theta_r shape {self.theta_r.shape}"
            )
        d = self.theta_r.shape[0]
        if self.att.shape != (d,) or self.bias.shape != (d,):
            raise ValueError("att and bias need one entry per output dimension")
        slope = float(self.negative_slope)
        if not 0.0 < slope <= 1.0:
            raise ValueError(f"negative_slope must lie in (0, 1], got {slope}")
        object.__setattr__(self, "negative_slope", slope)
        for name in ("theta_r", "theta_l", "att", "bias"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite entries in {name}")

    @property
    def out_dim(self) -> int:
        return self.theta_r.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.theta_r.shape[1] - 1


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """Identity on the strictly positive branch, slope * x otherwise.

    The value at exactly 0 is 0 either way, but the branch choice matters to
    the derivative: 0 belongs to the negative branch. The branch is chosen on
    the real part, so complex input is differentiated along the real branch.
    """
    return np.where(x.real > 0.0, x, slope * x)


def neighbor_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over a node's neighbor scores.

    The maximum is subtracted before exponentiation; this changes nothing in
    exact arithmetic and keeps the exponent bounded in floating point; for
    complex scores the maximum is taken over the real parts. An empty input
    yields an empty result.
    """
    s = np.asarray(scores)
    if s.size == 0:
        return np.zeros(0)
    if not np.isfinite(s).all():
        raise ValueError("non-finite attention score")
    z = np.exp(s - s.real.max())
    return z / z.sum()


@dataclass(frozen=True)
class ForwardTrace:
    """Every intermediate of one node update, in evaluation order.

    Shapes, for N neighbors and output width D:
      h_aug_target (H+1,), h_aug_sources (N, H+1), target_proj (D,),
      source_proj (N, D), pre_act (N, D), post_act (N, D), scores (N,),
      alpha (N,), messages (N, D), h_out (D,).
    """

    node: int
    neighbors: tuple[int, ...]
    h_aug_target: np.ndarray
    h_aug_sources: np.ndarray
    target_proj: np.ndarray
    source_proj: np.ndarray
    pre_act: np.ndarray
    post_act: np.ndarray
    scores: np.ndarray
    alpha: np.ndarray
    messages: np.ndarray
    h_out: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "h_aug_target",
            "h_aug_sources",
            "target_proj",
            "source_proj",
            "pre_act",
            "post_act",
            "scores",
            "alpha",
            "messages",
            "h_out",
        ):
            getattr(self, name).setflags(write=False)

    @property
    def num_neighbors(self) -> int:
        return len(self.neighbors)


def _propagate(theta_r, theta_l, att, bias, slope, h_aug_target, h_aug_sources) -> tuple:
    """The layer's arithmetic over validated float64 (or complex) arrays.

    Returns target_proj, source_proj, pre_act, post_act, scores, alpha,
    messages and h_out, in ForwardTrace field order.
    """
    target_proj = theta_r @ h_aug_target
    source_proj = h_aug_sources @ theta_l.T
    pre_act = target_proj[None, :] + source_proj
    post_act = leaky_relu(pre_act, slope)
    scores = post_act @ att
    alpha = neighbor_softmax(scores)
    messages = alpha[:, None] * source_proj
    h_out = bias + messages.sum(axis=0)
    return target_proj, source_proj, pre_act, post_act, scores, alpha, messages, h_out


def forward_with_trace(
    params: LayerParams, graph: Graph, features: np.ndarray, node: int
) -> ForwardTrace:
    """Evaluate the layer for one target node, caching all intermediates.

    A non-finite feature entry of the target or a neighbor is rejected,
    naming the node and the feature index. Pure function of its arguments:
    repeated calls produce bit-identical traces.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"feature matrix shape {features.shape} does not cover {graph.num_nodes} nodes"
        )
    if features.shape[1] != params.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} != params feature dim {params.feature_dim}"
        )
    nbrs = graph.neighbors(node)
    ids = [node, *nbrs]
    block = np.empty((len(ids), features.shape[1] + 1))
    block[:, 0] = 1.0
    block[:, 1:] = features[ids]
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"non-finite feature entry at index {col - 1} of node {ids[row]}")
    block.setflags(write=False)
    h_aug_target, h_aug_sources = block[0], block[1:]
    arrays = _propagate(
        params.theta_r, params.theta_l, params.att, params.bias,
        params.negative_slope, h_aug_target, h_aug_sources,
    )
    return ForwardTrace(int(node), nbrs, h_aug_target, h_aug_sources, *arrays)


def load_params(path) -> LayerParams:
    """Read a params JSON file and validate it against its declared shape."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        d = _index(raw["D"], "D")
        h = _index(raw["H"], "H")
        params = LayerParams(
            theta_r=_numbers(raw["theta_R"], "theta_R", 2),
            theta_l=_numbers(raw["theta_L"], "theta_L", 2),
            att=_numbers(raw["a"], "a", 1),
            bias=_numbers(raw["b"], "b", 1),
            negative_slope=float(_numbers(raw["negative_slope"], "negative_slope", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed params file {path}: {exc}") from None
    if params.out_dim != d or params.feature_dim != h:
        raise ValueError(
            f"declared D={d}, H={h} but theta_R has shape {params.theta_r.shape}"
        )
    return params


def save_params(path, params: LayerParams) -> None:
    """Write the params JSON file consumed by load_params."""
    payload = {
        "D": params.out_dim,
        "H": params.feature_dim,
        "negative_slope": params.negative_slope,
        "theta_R": params.theta_r.tolist(),
        "theta_L": params.theta_l.tolist(),
        "a": params.att.tolist(),
        "b": params.bias.tolist(),
    }
    _write_json(path, payload)
