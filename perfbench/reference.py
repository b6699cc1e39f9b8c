"""Reference results and output checks, independent of `src/`.

The forward pass is evaluated for every edge at once with numpy; gradients
come from the complex step (Squire & Trapp 1998): for a loss L that is
analytic along the perturbed entry, dL/dp = Im L(p + i h) / h with no
subtractive cancellation, so a tiny h gives the derivative to rounding. The
LeakyReLU branch is chosen on the real part, which is what makes the layer
analytic along every entry away from the kink.

A value passes when |got - want| <= tol * max(1, max |want|) over its block
(one node's h_out, alpha or one parameter gradient). Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from inputs import Instance

TOL = 1e-10
# The paper states the two theta_R forms agree to 1e-12.
PAIRWISE_TOL = 1e-12
COMPLEX_STEP = 1e-30
# Parameter entries perturbed per batch of the complex-step evaluation.
CHUNK = 64
BLOCKS = ("theta_R", "theta_L", "a", "b")
# A pre-activation this close to 0 (relative to its edge's largest) may land on
# either LeakyReLU branch after a reassociated sum, so its regime is not judged.
KINK_BAND = 1e-9
MAX_LISTED = 5


@dataclass(frozen=True)
class Forward:
    pre: np.ndarray  # (E, D) pre-activations per edge
    alpha: np.ndarray  # (E,) attention weights per edge
    h_out: np.ndarray  # (n, D)


def _augment(x: np.ndarray) -> np.ndarray:
    return np.concatenate((np.ones(x.shape[:-1] + (1,)), x), axis=-1)


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x.real > 0.0, x, slope * x)


def forward(inst: Instance) -> Forward:
    """Every node update of the layer, evaluated edge-parallel."""
    xa = _augment(inst.features)
    target_proj = xa @ inst.theta_r.T
    source_proj = xa @ inst.theta_l.T
    pre = target_proj[inst.targets] + source_proj[inst.sources]
    score = _leaky(pre, inst.slope) @ inst.att
    top = np.full(inst.num_nodes, -np.inf)
    np.maximum.at(top, inst.targets, score)
    z = np.exp(score - top[inst.targets])
    denom = np.zeros(inst.num_nodes)
    np.add.at(denom, inst.targets, z)
    alpha = z / denom[inst.targets]
    h_out = np.tile(inst.bias, (inst.num_nodes, 1))
    np.add.at(h_out, inst.targets, alpha[:, None] * source_proj[inst.sources])
    return Forward(pre=pre, alpha=alpha, h_out=h_out)


def complex_step_gradient(inst: Instance, node: int, upstream: np.ndarray) -> dict:
    """Gradient of upstream . h_out(node) with respect to every parameter entry."""
    lo, hi = inst.offsets[node], inst.offsets[node + 1]
    x_target = _augment(inst.features[node])
    x_sources = _augment(inst.features[inst.sources[lo:hi]])
    shapes = [inst.theta_r.shape, inst.theta_l.shape, inst.att.shape, inst.bias.shape]
    sizes = [int(np.prod(s)) for s in shapes]
    flat = np.concatenate(
        [inst.theta_r.ravel(), inst.theta_l.ravel(), inst.att, inst.bias]
    )
    grad = np.empty(flat.size)
    for start in range(0, flat.size, CHUNK):
        idx = np.arange(start, min(start + CHUNK, flat.size))
        params = np.tile(flat.astype(complex), (idx.size, 1))
        params[np.arange(idx.size), idx] += 1j * COMPLEX_STEP
        tr, tl, att, bias = np.split(params, np.cumsum(sizes)[:-1], axis=1)
        tr = tr.reshape((-1,) + shapes[0])
        tl = tl.reshape((-1,) + shapes[1])
        h_out = bias
        if hi > lo:
            source_proj = np.einsum("bdk,nk->bnd", tl, x_sources)
            pre = np.einsum("bdk,k->bd", tr, x_target)[:, None, :] + source_proj
            score = np.einsum("bnd,bd->bn", _leaky(pre, inst.slope), att)
            z = np.exp(score - score.real.max(axis=1, keepdims=True))
            alpha = z / z.sum(axis=1, keepdims=True)
            h_out = bias + np.einsum("bn,bnd->bd", alpha, source_proj)
        grad[idx] = (h_out @ upstream).imag / COMPLEX_STEP
    parts = np.split(grad, np.cumsum(sizes)[:-1])
    return {key: part.reshape(shape) for key, part, shape in zip(BLOCKS, parts, shapes)}


def _close(got, want: np.ndarray, tol: float = TOL) -> bool:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.abs(want).max())) if want.size else 1.0
    return bool(np.all(np.abs(got - want) <= tol * scale))


def _rows_close(got: np.ndarray, want: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Per leading index: does the block got[i] match want[i]?"""
    axes = tuple(range(1, want.ndim))
    scale = np.maximum(1.0, np.abs(want).max(axis=axes))
    err = np.abs(got - want).max(axis=axes)
    return err <= tol * scale  # NaN compares False


def _report(problems: list, label: str, bad_nodes) -> None:
    bad_nodes = list(bad_nodes)
    if bad_nodes:
        shown = ", ".join(str(int(b)) for b in bad_nodes[:MAX_LISTED])
        problems.append(f"{label}: {len(bad_nodes)} node(s), first {shown}")


def check_forward(inst: Instance, ref: Forward, payload: dict) -> list:
    """Check a `forward --all-nodes` report: neighbors, alpha and h_out per node."""
    problems: list = []
    entries = payload.get("nodes", [])
    if [e.get("node") for e in entries] != list(range(inst.num_nodes)):
        return ["forward: report does not list every node in order"]
    offsets = inst.offsets
    bad_nbrs, bad_alpha, bad_h = [], [], []
    for i, entry in enumerate(entries):
        lo, hi = offsets[i], offsets[i + 1]
        if entry["neighbors"] != inst.sources[lo:hi].tolist():
            bad_nbrs.append(i)
        if not _close(entry["alpha"], ref.alpha[lo:hi]):
            bad_alpha.append(i)
        if not _close(entry["h_out"], ref.h_out[i]):
            bad_h.append(i)
    _report(problems, "forward neighbors differ", bad_nbrs)
    _report(problems, "forward alpha off reference", bad_alpha)
    _report(problems, "forward h_out off reference", bad_h)
    return problems


def _per_node_sum(inst: Instance, values: np.ndarray) -> np.ndarray:
    out = np.zeros((inst.num_nodes,) + values.shape[1:])
    np.add.at(out, inst.targets, values)
    return out


def check_diagnose(inst: Instance, ref: Forward, payload: dict) -> list:
    """Check a `diagnose` report: dead theta_R rows, single-neighbor flags, entropy."""
    problems: list = []
    degrees = inst.degrees
    expected_nodes = np.flatnonzero(degrees > 0).tolist()
    entries = payload.get("nodes", [])
    if [e.get("node") for e in entries] != expected_nodes:
        return ["diagnose: report does not list the nodes with neighbors in order"]
    upstream = np.asarray(payload.get("upstream"), dtype=np.float64)
    if upstream.shape != inst.bias.shape or not np.isfinite(upstream).all():
        problems.append("diagnose: upstream vector malformed")
    positive = _per_node_sum(inst, (ref.pre > 0.0).astype(float))
    dead = (positive == 0) | (positive == degrees[:, None])
    block_scale = np.maximum(1.0, np.abs(ref.pre).max(axis=1))[:, None]
    near_kink = np.abs(ref.pre) <= KINK_BAND * block_scale
    ambiguous = _per_node_sum(inst, near_kink.astype(float)) > 0
    plogp = np.where(ref.alpha > 0, ref.alpha * np.log(ref.alpha), 0.0)
    entropy = -_per_node_sum(inst, plogp)
    bad_count, bad_dead, bad_entropy, bad_other = [], [], [], []
    for entry in entries:
        i = entry["node"]
        if entry["num_neighbors"] != degrees[i] or entry["single_neighbor"] != (
            degrees[i] <= 1
        ):
            bad_count.append(i)
        got_dead = np.asarray(entry["dead_theta_r"], dtype=bool)
        if got_dead.shape != dead[i].shape or np.any(
            (got_dead != dead[i]) & ~ambiguous[i]
        ):
            bad_dead.append(i)
        if not _close(entry["attention_entropy"], np.asarray(entropy[i])):
            bad_entropy.append(i)
        gap = entry["closed_form_gap"]
        uniformity = entry["regime_uniformity"]
        if not (
            np.isfinite(gap)
            and gap >= 0.0
            and got_dead.size
            and abs(uniformity - got_dead.mean()) <= 1e-12
        ):
            bad_other.append(i)
    _report(problems, "diagnose neighbor counts wrong", bad_count)
    _report(problems, "diagnose dead_theta_r wrong", bad_dead)
    _report(problems, "diagnose attention_entropy off reference", bad_entropy)
    _report(problems, "diagnose uniformity or gap malformed", bad_other)
    return problems


def check_gradients(want: dict, got: dict, tol: float = TOL) -> list:
    """Names of the parameter blocks whose gradient misses the reference."""
    return [key for key in BLOCKS if key in got and not _close(got[key], want[key], tol)]


@dataclass(frozen=True)
class GradcheckVerdict:
    problems: list
    nodes: int
    false_rejects: int


def check_gradcheck(payload: dict, exit_code: int, refs: dict) -> GradcheckVerdict:
    """Judge a uniform-upstream `gradcheck` report against complex-step gradients.

    A node whose analytic gradients match the reference but which gradcheck
    rejects is a false reject: the oracle's fault, counted but not a failure.
    A node gradcheck passes although the reference rejects its gradients is a
    false accept, and a node both reject has wrong analytic gradients; both
    are failures. `refs` maps node id to its reference gradients.
    """
    entries = payload["nodes"] if "nodes" in payload else [payload]
    problems: list = []
    false_rejects = 0
    for entry in entries:
        node = entry["node"]
        want = refs[node]
        if not np.array_equal(entry["upstream"], np.ones(want["b"].size)):
            problems.append(f"gradcheck node {node}: upstream is not uniform")
            continue
        got = {key: entry["gradients"][key] for key in BLOCKS}
        wrong = check_gradients(want, got)
        if wrong and entry["pass"]:
            problems.append(f"gradcheck node {node}: false accept of {wrong}")
        elif wrong:
            problems.append(f"gradcheck node {node}: analytic {wrong} off reference")
        elif not entry["pass"]:
            false_rejects += 1
    all_passed = all(entry["pass"] for entry in entries)
    if exit_code != (0 if all_passed else 1):
        problems.append(f"gradcheck exit code {exit_code} disagrees with its report")
    return GradcheckVerdict(problems, len(entries), false_rejects)


@dataclass
class RoutesOutput:
    """Everything one routes pass returns, stacked per node."""

    h_out: np.ndarray  # (n, D)
    alpha: np.ndarray  # (E,)
    chain: dict  # block name -> (n, ...) from backward_chain
    theta_r_sum: np.ndarray  # (n, D, H+1)
    theta_r_pairwise: np.ndarray
    theta_l: np.ndarray
    bias: np.ndarray  # (n, D)

    @classmethod
    def empty(cls, inst: Instance) -> "RoutesOutput":
        n = inst.num_nodes
        mat = (n,) + inst.theta_r.shape
        vec = (n, inst.bias.size)
        return cls(
            h_out=np.empty(vec),
            alpha=np.empty(inst.num_edges),
            chain={
                "theta_R": np.empty(mat),
                "theta_L": np.empty(mat),
                "a": np.empty(vec),
                "b": np.empty(vec),
            },
            theta_r_sum=np.empty(mat),
            theta_r_pairwise=np.empty(mat),
            theta_l=np.empty(mat),
            bias=np.empty(vec),
        )

    def digest(self) -> str:
        """sha256 over every array, so equal results need not be checked twice."""
        h = hashlib.sha256()
        for arr in (self.h_out, self.alpha, self.theta_r_sum, self.theta_r_pairwise,
                    self.theta_l, self.bias, *self.chain.values()):
            h.update(arr.data)
        return h.hexdigest()


def check_routes(inst: Instance, ref: Forward, out: RoutesOutput, refs: dict) -> list:
    """Check a uniform-upstream routes pass.

    Every node: h_out and alpha against the reference forward, the pairwise
    theta_R form against the summation form to 1e-12, and the closed forms
    against backward_chain (equal for a uniform upstream). Nodes in `refs`:
    backward_chain against the complex-step gradients.
    """
    problems: list = []
    offsets = inst.offsets
    bad_h = np.flatnonzero(~_rows_close(out.h_out, ref.h_out))
    _report(problems, "routes h_out off reference", bad_h)
    segments = [slice(offsets[i], offsets[i + 1]) for i in range(inst.num_nodes)]
    bad_alpha = [i for i, seg in enumerate(segments) if not _close(out.alpha[seg], ref.alpha[seg])]
    _report(problems, "routes alpha off reference", bad_alpha)
    pairwise_ok = _rows_close(out.theta_r_pairwise, out.theta_r_sum, PAIRWISE_TOL)
    _report(
        problems,
        "grad_theta_r_pairwise differs from grad_theta_r_sum",
        np.flatnonzero(~pairwise_ok),
    )
    for label, got, want in (
        ("grad_theta_r_sum", out.theta_r_sum, out.chain["theta_R"]),
        ("grad_theta_l", out.theta_l, out.chain["theta_L"]),
        ("grad_bias", out.bias, out.chain["b"]),
    ):
        bad = np.flatnonzero(~_rows_close(got, want))
        _report(problems, f"{label} differs from backward_chain", bad)
    bad_chain = [
        node
        for node, want in refs.items()
        if check_gradients(want, {key: out.chain[key][node] for key in BLOCKS})
    ]
    _report(problems, "backward_chain off complex-step reference", bad_chain)
    return problems
