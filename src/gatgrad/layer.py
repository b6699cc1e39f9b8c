"""One graph attention layer: score, normalize over neighbors, aggregate.

The update for target node i with neighbors j is

    score(i, j) = att . LeakyReLU(theta_r @ h_aug(i) + theta_l @ h_aug(j))
    alpha       = softmax over the neighbor scores
    h_out(i)    = bias + sum_j alpha[j] * (theta_l @ h_aug(j))

where h_aug(j) = [1, h(j)]. All arithmetic is 64-bit.

The arithmetic lives in one private core that takes any leading axes: the
augmented row of a target (..., H+1) and the rows of its n neighbors
(..., n, H+1). A node has none; a block of k targets of one degree has one,
of length k. Every product and sum is taken per target with batched numpy
(matmul over the leading axes, max and sum over the neighbor axis). BLAS and
numpy's reductions round each slice of those as they round the lone
operation, so a node's numbers are the same in any block. It returns a
ForwardTrace, the one record of an evaluation, with the leading axes in
front, so every caller reads an intermediate by its name. Every caller goes
through it:

- forward_with_trace evaluates one node, with no leading axis, and returns
  the core's record as it is, so the backward pass recomputes nothing.
- forward_graph evaluates every node through _graph_chunks, one numpy pass
  per block: nodes by degree, in blocks of at most EDGE_BUDGET edges and nodes.
  Its rows equal forward_with_trace's bit for bit; diagnostics.diagnose
  runs on the same blocks.
- The complex-step oracle runs the core, in complex arithmetic, on one
  target against a stack of copies of a parameter block, each with one
  entry imaginary-perturbed: the B copies are the leading axis.

grads.py's backward formulas read these records, a node's or a block's, by field name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _finite, _index, _node_id, _numbers, _reading, _write_json

__all__ = [
    "LayerParams",
    "ForwardTrace",
    "forward_with_trace",
    "forward_graph",
    "load_params",
    "save_params",
]

# The parameter blocks in file order: each one's key in the params, gradient
# and report files, and its LayerParams and GradientSet attribute.
BLOCKS = {"theta_R": "theta_r", "theta_L": "theta_l", "a": "att", "b": "bias"}


def _block(value, name: str) -> np.ndarray:
    """A block as a read-only float64 copy; TypeError unless it holds integers or floats."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold integers or floats, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(False)  # write=False, positional: the keyword costs more
    return arr


@dataclass(frozen=True, eq=False)
class LayerParams:
    """Trainable layer parameters.

    theta_r projects the target node, theta_l the message sources. Column 0
    of each matrix is the bias column (it multiplies the constant-1 entry of
    augmented features); columns 1.. are the weight part. Arrays are copied
    and frozen at construction: instances are safe to share, hashed by identity.
    A block that is not integer or floating, or a bool or non-real slope,
    raises TypeError: malformed input is rejected, never coerced.
    """

    theta_r: np.ndarray
    theta_l: np.ndarray
    att: np.ndarray
    bias: np.ndarray
    negative_slope: float = 0.2

    def __post_init__(self) -> None:
        for name in BLOCKS.values():
            object.__setattr__(self, name, _finite(_block(getattr(self, name), name), name))
        if self.theta_r.ndim != 2 or self.theta_r.shape[1] < 1:
            raise ValueError("theta_r must be a matrix with at least one column")
        if self.theta_l.shape != self.theta_r.shape:
            raise ValueError(
                f"theta_l shape {self.theta_l.shape} != theta_r shape {self.theta_r.shape}"
            )
        d = self.theta_r.shape[0]
        if self.att.shape != (d,) or self.bias.shape != (d,):
            raise ValueError("att and bias need one entry per output dimension")
        slope = self.negative_slope
        if isinstance(slope, bool) or not isinstance(slope, (int, float, np.integer, np.floating)):
            raise TypeError(f"negative_slope must be a real number, got {slope!r}")
        slope = float(slope)
        if not 0.0 < slope <= 1.0:
            raise ValueError(f"negative_slope must lie in (0, 1], got {slope}")
        object.__setattr__(self, "negative_slope", slope)

    @property
    def out_dim(self) -> int:
        return self.theta_r.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.theta_r.shape[1] - 1


def _slopes(x: np.ndarray, negative_slope: float) -> np.ndarray:
    """LeakyReLU's derivative: 1 where x's real part is strictly positive, negative_slope
    elsewhere, 0 included; complex input takes its real part's, which the complex step
    keeps. _propagate applies LeakyReLU as _slopes(x) * x, exactly (1.0 * x is x), and
    keeps these slopes in its record: every other reader takes the regime from them."""
    return np.where(x.real > 0.0, 1.0, negative_slope)


# Edges, and nodes, the whole-graph passes evaluate at once. It bounds their
# working memory to a few dozen arrays of EDGE_BUDGET x D floats (a few MB at
# D = 16) on any graph; a graph costs one block per distinct degree at least.
EDGE_BUDGET = 1 << 12


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Every intermediate of one evaluation of the layer, in evaluation order.

    Shapes for a node, with N neighbors and output width D:
      h_aug_target (H+1,), h_aug_sources (N, H+1), target_proj (D,),
      source_proj (N, D), pre_act (N, D), slopes (N, D), post_act (N, D),
      scores (N,), alpha (N,), messages (N, D), h_out (D,).
    A block of k targets puts its axis k in front of every array; a stack of
    B parameter copies puts B in front of every array that depends on them.
    slopes is LeakyReLU's derivative at pre_act: post_act = slopes * pre_act.
    Every array is read-only; the record is hashed by identity.
    """

    h_aug_target: np.ndarray
    h_aug_sources: np.ndarray
    target_proj: np.ndarray
    source_proj: np.ndarray
    pre_act: np.ndarray
    slopes: np.ndarray
    post_act: np.ndarray
    scores: np.ndarray
    alpha: np.ndarray
    messages: np.ndarray
    h_out: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():  # the dataclass fields
            value.setflags(False)  # write=False, positional: the keyword costs more

    @property
    def num_neighbors(self) -> int:
        return self.alpha.shape[-1]


def _dot(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """weights @ values for each target: (..., n) against (..., n, X), any leading axes.

    One product per target, the same one a lone node takes, so a target's
    result does not depend on the other targets of its block.
    """
    return (weights[..., None, :] @ values)[..., 0, :]


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last (neighbor) axis, shifted by its largest real part."""
    if not np.isfinite(scores).all():
        raise ValueError("non-finite attention score")
    z = np.exp(scores - scores.real.max(axis=-1, initial=-np.inf, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _propagate(theta_r, theta_l, att, bias, slope, h_aug_targets, h_aug_sources) -> ForwardTrace:
    """The layer's arithmetic over validated float64 (or complex) arrays.

    Targets of one degree n, with any leading axes: h_aug_targets (..., H+1)
    holds each target's augmented row and h_aug_sources (..., n, H+1) the
    rows of its neighbors; a node is (H+1,) and (n, H+1). Returns the
    ForwardTrace of both and of every intermediate, slopes among them.
    Every product and sum is taken per target, so each target rounds as it
    does alone: BLAS would round a row of one (k, H+1) @ (H+1, D) product
    differently as k grows. A parameter block may carry a leading axis of B
    stacked copies, (B, D, H+1) or (B, D), against one node: the results
    that depend on it take that axis.
    """
    target_proj = _dot(h_aug_targets, theta_r.swapaxes(-1, -2))
    source_proj = h_aug_sources @ theta_l.swapaxes(-1, -2)
    pre_act = target_proj[..., None, :] + source_proj
    slopes = _slopes(pre_act, slope)
    post_act = slopes * pre_act
    scores = (post_act @ att[..., None])[..., 0]
    alpha = _softmax(scores)
    messages = alpha[..., None] * source_proj
    h_out = bias + messages.sum(axis=-2)
    return ForwardTrace(
        h_aug_targets, h_aug_sources, target_proj, source_proj, pre_act, slopes, post_act,
        scores, alpha, messages, h_out,
    )


def _augmented(params: LayerParams, graph: Graph, features: np.ndarray, ids) -> np.ndarray:
    """Read-only augmented rows [1, h] of the nodes `ids`, an index array or a slice.

    The feature matrix is checked first: one row per graph node, of
    params.feature_dim columns. A slice's rows are a view, copied once into the
    result. A non-finite entry is rejected, naming the node and feature index.
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
    rows = features[ids]
    block = np.empty((len(rows), rows.shape[1] + 1))
    block[:, 0] = 1.0
    block[:, 1:] = rows
    finite = np.isfinite(block)
    if not finite.all():
        (row, col), nodes = np.argwhere(~finite)[0], np.arange(graph.num_nodes)[ids]
        raise ValueError(f"non-finite feature entry at index {col - 1} of node {nodes[row]}")
    block.setflags(write=False)
    return block


def forward_with_trace(
    params: LayerParams, graph: Graph, features: np.ndarray, node: int
) -> ForwardTrace:
    """Evaluate the layer for one target node, caching all intermediates.

    The core takes the node with no leading axis, and its record is the
    trace. A non-finite feature entry of the target or a neighbor is
    rejected, naming the node and the feature index.
    Pure function of its arguments: repeated calls produce bit-identical
    traces, equal to the node's row of forward_graph.
    """
    i = _node_id(node, graph.num_nodes)
    ids = np.concatenate(([i], graph.sources[graph.offsets[i] : graph.offsets[i + 1]]))
    rows = _augmented(params, graph, features, ids)
    return _propagate(
        params.theta_r, params.theta_l, params.att, params.bias,
        params.negative_slope, rows[0], rows[1:],
    )


def _graph_chunks(params: LayerParams, graph: Graph, features: np.ndarray):
    """Evaluate the layer for every node, in blocks of nodes of one degree.

    Nodes are walked by ascending degree, isolated nodes (degree 0) first,
    and by id within a degree. A block holds at most EDGE_BUDGET edges and
    EDGE_BUDGET nodes, isolated ones too, or a single node of higher degree.
    _propagate takes every product and sum per target, so a node's numbers
    are the same in any block, and equal forward_with_trace's bit for bit.
    The features are checked once. Yields per block its nodes (k,), their
    edges (k, n) as positions in graph.sources order, and their ForwardTrace.
    """
    h_aug = _augmented(params, graph, features, slice(None))
    degrees = np.diff(graph.offsets)
    order = np.argsort(degrees, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(degrees[order])) + 1):
        n = int(degrees[group[0]])
        size = max(1, EDGE_BUDGET // max(n, 1))
        for lo in range(0, len(group), size):
            nodes = group[lo : lo + size]
            edges = graph.offsets[nodes][:, None] + np.arange(n)
            yield nodes, edges, _propagate(
                params.theta_r, params.theta_l, params.att, params.bias,
                params.negative_slope, h_aug[nodes], h_aug[graph.sources[edges]],
            )


def forward_graph(
    params: LayerParams, graph: Graph, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the layer for every node, one numpy pass per block of _graph_chunks.

    Returns alpha (E,), the attention weights in graph.sources order (node
    i's weights are alpha[graph.offsets[i]:graph.offsets[i + 1]]), and h_out
    (num_nodes, D); an isolated node's h_out is the bias plus an empty sum.
    Each row equals forward_with_trace's for its node, bit for bit.
    """
    alpha = np.empty(len(graph.sources))
    h_out = np.empty((graph.num_nodes, params.out_dim))
    for nodes, edges, block in _graph_chunks(params, graph, features):
        alpha[edges] = block.alpha
        h_out[nodes] = block.h_out
    return alpha, h_out


def load_params(path) -> LayerParams:
    """Read a params JSON file and validate it against its declared shape."""
    with _reading(path, "params") as raw:
        d = _index(raw["D"], "D")
        h = _index(raw["H"], "H")
        params = LayerParams(
            **{name: _numbers(raw[key], key, 2 if name.startswith("theta") else 1)
               for key, name in BLOCKS.items()},
            negative_slope=float(_numbers(raw["negative_slope"], "negative_slope", 0)),
        )
        if params.out_dim != d or params.feature_dim != h:
            raise ValueError(f"declared D={d}, H={h} but theta_R has shape {params.theta_r.shape}")
    return params


def save_params(path, params: LayerParams) -> None:
    """Write the params JSON file consumed by load_params."""
    payload = {"D": params.out_dim, "H": params.feature_dim, "negative_slope": params.negative_slope}
    payload.update((key, getattr(params, name)) for key, name in BLOCKS.items())
    _write_json(path, payload)
