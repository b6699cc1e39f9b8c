"""One graph attention layer: score, normalize over neighbors, aggregate.

The update for target node i with neighbors j is

    score(i, j) = att . LeakyReLU(theta_r @ h_aug(i) + theta_l @ h_aug(j))
    alpha       = softmax over the neighbor scores
    h_out(i)    = bias + sum_j alpha[j] * (theta_l @ h_aug(j))

where h_aug(j) = [1, h(j)]. All arithmetic is 64-bit.

The arithmetic lives in one private core over edge segments: it takes the
augmented rows of m targets and of their neighbors, one contiguous segment
of edges per target, projects both, spreads each target's projection over
its segment, and takes the softmax and the aggregation per segment
(np.maximum.reduceat / np.add.reduceat, as DGL's edge_softmax). Every
caller goes through it:

- forward_with_trace evaluates one node as the one-segment case, caching
  every intermediate so the backward pass can be assembled without
  recomputation. A lone segment is reduced with the plain reductions, so a
  node's trace rounds exactly as the per-node formulas do.
- forward_graph evaluates every node in one edge-parallel pass over the
  graph's CSR view, in chunks of at most EDGE_BUDGET edges that never split
  a node; diagnostics.diagnose runs on the same chunks.
- The complex-step oracle runs the one-segment core, in complex
  arithmetic, on a stack of copies of a parameter block, each with one
  entry imaginary-perturbed: the stack is a leading batch axis, against
  which the other blocks broadcast, since the core counts its edge and
  segment axes from the end.

grads.py's backward formulas reduce over the same segments, through
_segment_dot and _segment_products.
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
    "forward_graph",
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


# The one segment of a single node's evaluation.
_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
_ONE_SEGMENT.setflags(write=False)

# Edges the whole-graph passes evaluate at once. It bounds their working
# memory to a few dozen arrays of EDGE_BUDGET x D floats (a few MB at
# D = 16) on any graph, while the Python overhead per chunk stays negligible.
EDGE_BUDGET = 1 << 12


def neighbor_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over a node's neighbor scores.

    The maximum is subtracted before exponentiation; this changes nothing in
    exact arithmetic and keeps the exponent bounded in floating point; for
    complex scores the maximum is taken over the real parts. An empty input
    yields an empty result. This is the one-segment case of the layer's
    segment softmax.
    """
    s = np.asarray(scores)
    if s.dtype.kind not in "fc":
        s = s.astype(np.float64)
    return _segment_softmax(s, _ONE_SEGMENT)


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Every intermediate of one node update, in evaluation order; hashed by identity.

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


def _segment_ids(starts: np.ndarray, num_edges: int):
    """Index that spreads per-segment rows over the edges: each edge's segment.

    A lone segment's rows, of length 1 along the segment axis, broadcast over
    its edges as they are, so its index is the whole axis.
    """
    if len(starts) == 1:
        return slice(None)
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=num_edges))


def _segment_sum(values: np.ndarray, starts: np.ndarray, axis: int) -> np.ndarray:
    """Sum over each segment of the edge axis; segment k begins at starts[k].

    Segments are non-empty, except that a lone segment may be empty. A lone
    segment is summed whole, exactly as values.sum(axis), so a one-node
    evaluation rounds as the per-node formulas do.
    """
    if len(starts) == 1:
        return values.sum(axis=axis, keepdims=True)
    return np.add.reduceat(values, starts, axis=axis)


def _segment_dot(weights: np.ndarray, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """weights[s] @ values[s] for each segment s of the edge axis, (m, ...).

    A lone segment is the plain product weights @ values, so a one-node
    evaluation rounds as the per-node formulas do.
    """
    if len(starts) == 1:
        return (weights @ values)[None]
    weights = weights.reshape(-1, *(1,) * (values.ndim - 1))
    return np.add.reduceat(weights * values, starts, axis=0)


def _segment_products(left: np.ndarray, right: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """left[s].T @ right[s] for each segment s of the edge axis, (m, D, K).

    A lone segment is the plain product left.T @ right. Otherwise segments
    of equal length are stacked into one batched product, so no (E, D, K)
    outer product is formed.
    """
    if len(starts) == 1:
        return (left.T @ right)[None]
    counts = np.diff(starts, append=len(left))
    out = np.empty((len(starts), left.shape[1], right.shape[1]))
    for count in np.flatnonzero(np.bincount(counts)):
        which = np.flatnonzero(counts == count)
        rows = starts[which][:, None] + np.arange(count)
        out[which] = left[rows].transpose(0, 2, 1) @ right[rows]
    return out


def _segment_softmax(scores: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Softmax within each segment of the last axis, shifted by its largest real part."""
    if not np.isfinite(scores).all():
        raise ValueError("non-finite attention score")
    seg = _segment_ids(starts, scores.shape[-1])
    if len(starts) == 1:
        top = scores.real.max(axis=-1, initial=-np.inf, keepdims=True)
    else:
        top = np.maximum.reduceat(scores.real, starts, axis=-1)
    z = np.exp(scores - top[..., seg])
    return z / _segment_sum(z, starts, -1)[..., seg]


def _propagate(
    theta_r, theta_l, att, bias, slope, h_aug_targets, h_aug_sources, starts
) -> tuple:
    """The layer's arithmetic over validated float64 (or complex) arrays.

    h_aug_targets (m, H+1) holds one augmented row per target and
    h_aug_sources (E, H+1) the rows of their neighbors, one segment per
    target; segment k begins at edge starts[k]. Returns target_proj (m, D),
    source_proj, pre_act, post_act (E, D), scores, alpha (E,), messages
    (E, D) and h_out (m, D), in ForwardTrace field order. A parameter block
    may carry a leading batch axis, (B, D, H+1) or (B, D): the other blocks
    broadcast against it, and the results that depend on it gain that axis.
    """
    seg = _segment_ids(starts, len(h_aug_sources))
    target_proj = h_aug_targets @ np.swapaxes(theta_r, -1, -2)
    source_proj = h_aug_sources @ np.swapaxes(theta_l, -1, -2)
    pre_act = target_proj[..., seg, :] + source_proj
    post_act = leaky_relu(pre_act, slope)
    scores = (post_act @ att[..., None])[..., 0]
    alpha = _segment_softmax(scores, starts)
    messages = alpha[..., None] * source_proj
    h_out = bias[..., None, :] + _segment_sum(messages, starts, -2)
    return target_proj, source_proj, pre_act, post_act, scores, alpha, messages, h_out


def _checked_features(params: LayerParams, graph: Graph, features: np.ndarray) -> np.ndarray:
    """The feature matrix as float64, checked against the graph and the params."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError(
            f"feature matrix shape {features.shape} does not cover {graph.num_nodes} nodes"
        )
    if features.shape[1] != params.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} != params feature dim {params.feature_dim}"
        )
    return features


def _augmented(features: np.ndarray, ids) -> np.ndarray:
    """Read-only augmented rows [1, h] of the nodes `ids`, in one indexing step.

    A non-finite entry is rejected, naming the node and the feature index.
    """
    block = np.empty((len(ids), features.shape[1] + 1))
    block[:, 0] = 1.0
    block[:, 1:] = features[ids]
    finite = np.isfinite(block)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite feature entry at index {col - 1} of node {ids[row]}")
    block.setflags(write=False)
    return block


def forward_with_trace(
    params: LayerParams, graph: Graph, features: np.ndarray, node: int
) -> ForwardTrace:
    """Evaluate the layer for one target node, caching all intermediates.

    The node is the one-segment case of the layer's arithmetic. A non-finite
    feature entry of the target or a neighbor is rejected, naming the node
    and the feature index. Pure function of its arguments: repeated calls
    produce bit-identical traces.
    """
    features = _checked_features(params, graph, features)
    nbrs = graph.neighbors(node)
    block = _augmented(features, [node, *nbrs])
    target_proj, *edge_arrays, h_out = _propagate(
        params.theta_r, params.theta_l, params.att, params.bias,
        params.negative_slope, block[:1], block[1:], _ONE_SEGMENT,
    )
    return ForwardTrace(
        int(node), nbrs, block[0], block[1:], target_proj[0], *edge_arrays, h_out[0]
    )


def _graph_chunks(params: LayerParams, graph: Graph, features: np.ndarray, nodes: np.ndarray):
    """Evaluate the layer for `nodes` (ascending ids, each with a neighbor) by chunks.

    Consecutive nodes share a chunk while their edges stay within
    EDGE_BUDGET; a node of higher degree is a chunk of its own, so no
    segment is ever split. The features are checked once. Yields per chunk
    its nodes, the positions of their edges in graph.sources, the segment
    starts, the augmented target and source rows, and _propagate's arrays.
    """
    h_aug = _augmented(_checked_features(params, graph, features), range(graph.num_nodes))
    degrees = np.diff(graph.offsets)[nodes]
    ends = np.cumsum(degrees)
    lo = 0
    while lo < len(nodes):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + EDGE_BUDGET, side="right")), lo + 1)
        run, counts = nodes[lo:hi], degrees[lo:hi]
        starts = ends[lo:hi] - counts - base
        edges = np.repeat(graph.offsets[run] - starts, counts) + np.arange(ends[hi - 1] - base)
        targets, sources = h_aug[run], h_aug[graph.sources[edges]]
        arrays = _propagate(
            params.theta_r, params.theta_l, params.att, params.bias,
            params.negative_slope, targets, sources, starts,
        )
        yield run, edges, starts, targets, sources, arrays
        lo = hi


def forward_graph(
    params: LayerParams, graph: Graph, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the layer for every node in one edge-parallel pass.

    Returns alpha (E,), the attention weights in graph.sources order (node
    i's weights are alpha[graph.offsets[i]:graph.offsets[i + 1]]), and h_out
    (num_nodes, D); an isolated node's h_out is the bias. Agrees with
    forward_with_trace node by node to rounding.
    """
    alpha = np.empty(len(graph.sources))
    h_out = np.tile(params.bias, (graph.num_nodes, 1))
    connected = np.flatnonzero(np.diff(graph.offsets))
    for run, edges, _, _, _, arrays in _graph_chunks(params, graph, features, connected):
        alpha[edges] = arrays[5]
        h_out[run] = arrays[7]
    return alpha, h_out


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
