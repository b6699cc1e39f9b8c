"""Command-line front end.

Four subcommands: `gen` writes a seeded random graph/params pair, `forward`
evaluates node updates, `gradcheck` verifies analytic gradients against the
complex-step oracle, and `diagnose` reports gradient pathologies. All
outputs are JSON and deterministic given the flags, files, and seed.

Exit codes: 0 success / all checks passed, 1 gradient check failure,
2 usage or input error, or an array too large to allocate.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from functools import partial

import numpy as np

from .diagnostics import closed_form_gap, diagnose
from .fdcheck import COMPLEX_STEP, compare_gradients, fd_gradient
from .gen import generate_instance
from .grads import (
    GradientSet,
    _check_upstream,
    backward_chain,
    grad_bias,
    grad_theta_l,
    grad_theta_r_sum,
)
from .graph import _node_id, _numbers, _reading, _write_json, load_graph, save_graph
from .layer import forward_graph, forward_with_trace, load_params, save_params

__all__ = ["main", "run"]


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", required=True, help="graph JSON file")
    sub.add_argument("--params", required=True, help="params JSON file")
    sub.add_argument("--out", required=True, help="output report path")


def _add_node_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--node", type=int, help="single target node id")
    group.add_argument(
        "--all-nodes", action="store_true", help="run over every node"
    )


def _nonnegative(text: str) -> int:
    """A --seed or --min-degree value; numpy seeds its generators with these only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """A --nodes, --feature-dim or --out-dim value."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """A --tol value: compare_gradients judges against a positive finite tolerance only."""
    with suppress(ValueError):  # a non-number is rejected as a non-positive one is
        if 0.0 < float(text) < np.inf:
            return float(text)
    raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")


def _upstream(text: str) -> tuple[str, str]:
    """An --upstream value as (mode, path): uniform, random, or file: and a non-empty path."""
    mode, _, path = text.partition(":")
    if text in ("uniform", "random") or (mode == "file" and path):
        return mode, path
    raise argparse.ArgumentTypeError(f"expected uniform, random or file:PATH, got {text!r}")


def _add_upstream_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--upstream",
        type=_upstream,
        default="uniform",
        help="upstream gradient mode: uniform, random, or file:PATH",
    )
    sub.add_argument("--seed", type=_nonnegative, default=0, help="seed for random draws")


def _load(args):
    """The graph, features and params of --graph and --params, checked against each other."""
    graph, features = load_graph(args.graph)
    params = load_params(args.params)
    if features.shape[1] != params.feature_dim:
        raise ValueError(
            f"graph file {args.graph} has feature_dim {features.shape[1]}, "
            f"params file {args.params} has H {params.feature_dim}"
        )
    return graph, features, params


def _select_nodes(args, graph) -> list[int]:
    if args.node is not None:
        return [_node_id(args.node, graph.num_nodes)]
    return list(range(graph.num_nodes))


def _upstream_vector(mode: str, path: str, shape: tuple, seed: int) -> np.ndarray:
    """Rows (..., D) of one seeded draw or one broadcast vector; node i's upstream is row i."""
    if mode == "random":
        return np.random.default_rng(seed).standard_normal(shape)
    if mode == "uniform":
        return np.ones(shape)
    with _reading(path, "upstream") as raw:
        return np.broadcast_to(_check_upstream(_numbers(raw, "upstream", 1), shape[-1]), shape)


def _gradients_json(grads: GradientSet, node: int, num_neighbors: int, mode: str) -> dict:
    """A gradient set as a report dict laid out as the params file, plus its meta."""
    out: dict = {key: block.tolist() for key, block in grads.as_dict().items()}
    out["meta"] = {"target_node": int(node), "N": int(num_neighbors), "upstream_mode": mode}
    return out


def cmd_gen(args) -> int:
    graph, features, params = generate_instance(
        num_nodes=args.nodes,
        feature_dim=args.feature_dim,
        out_dim=args.out_dim,
        seed=args.seed,
        min_degree=args.min_degree,
    )
    save_graph(args.graph, graph, features)
    save_params(args.params, params)
    # Round-trip self check: the written files must load back and run.
    graph2, features2 = load_graph(args.graph)
    forward_graph(load_params(args.params), graph2, features2)
    return 0


def cmd_forward(args) -> int:
    graph, features, params = _load(args)
    nodes = _select_nodes(args, graph)
    alpha, h_out = forward_graph(params, graph, features)
    sources, offsets = graph.sources, graph.offsets.tolist()
    entries = [
        {
            "node": node,
            "neighbors": sources[offsets[node] : offsets[node + 1]],
            "alpha": alpha[offsets[node] : offsets[node + 1]],
            "h_out": h_out[node],
        }
        for node in nodes
    ]
    _write_json(args.out, {"nodes": entries})
    return 0


def cmd_gradcheck(args) -> int:
    graph, features, params = _load(args)
    mode, path = args.upstream
    nodes = _select_nodes(args, graph)
    upstreams = _upstream_vector(mode, path, (max(nodes) + 1, params.out_dim), args.seed)
    entries = []
    for node, upstream in zip(nodes, upstreams[nodes]):
        trace = forward_with_trace(params, graph, features, node)
        chain = backward_chain(trace, params, upstream)
        numeric = fd_gradient(trace, params, upstream)
        checks = compare_gradients(chain, numeric, args.tol)
        closed = GradientSet(
            theta_r=grad_theta_r_sum(trace, params, upstream),
            theta_l=grad_theta_l(trace, params, upstream),
            att=chain.att,
            bias=grad_bias(upstream),
        )
        closed_form = {}  # the closed forms are exact under a uniform upstream only
        if mode == "uniform":
            closed_form["closed_form"] = compare_gradients(
                closed, numeric, args.tol, keys=("theta_R", "theta_L", "b")
            )
        verdicts = (checks, *closed_form.values())
        entry = {
            "node": node,
            "num_neighbors": trace.num_neighbors,
            "upstream_mode": mode,
            "upstream": upstream.tolist(),
            **checks,
            "step": COMPLEX_STEP,
            "tolerance": args.tol,
            "resolution": numeric.resolution,
            "seed": args.seed,
            "pass": all(c["pass"] for blocks in verdicts for c in blocks.values()),
            **closed_form,
            "closed_form_gap": closed_form_gap(closed, chain),
            "gradients": _gradients_json(chain, node, trace.num_neighbors, mode),
        }
        entries.append(entry)
    all_passed = all(entry["pass"] for entry in entries)
    if args.node is not None:
        payload = entries[0]
    else:
        payload = {
            "nodes": entries,
            "step": COMPLEX_STEP,
            "tolerance": args.tol,
            "seed": args.seed,
            "pass": all_passed,
        }
    _write_json(args.out, payload)
    return 0 if all_passed else 1


def cmd_diagnose(args) -> int:
    """One upstream for every node; under random, gradcheck's node-0 row of the same seed."""
    graph, features, params = _load(args)
    mode, path = args.upstream
    upstream = _upstream_vector(mode, path, (params.out_dim,), args.seed)
    # By default, every node with at least one neighbor.
    nodes = _select_nodes(args, graph) if args.node is not None or args.all_nodes else None
    report = diagnose(params, graph, features, nodes, upstream)
    payload = {
        "upstream_mode": mode,
        "upstream": upstream.tolist(),
        "nodes": [entry._asdict() for entry in report],
    }
    _write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatgrad",
        description="Attention-layer forward evaluation, gradient checking, "
        "and gradient-pathology diagnostics.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # An option is never abbreviated, and subparsers do not inherit allow_abbrev.
    add_parser = partial(subs.add_parser, allow_abbrev=False)

    gen = add_parser("gen", help="write a seeded random graph/params pair")
    gen.add_argument("--nodes", type=_positive, required=True, help="node count")
    gen.add_argument("--feature-dim", type=_positive, required=True, help="input width H")
    gen.add_argument("--out-dim", type=_positive, required=True, help="output width D")
    gen.add_argument("--seed", type=_nonnegative, default=0)
    gen.add_argument("--min-degree", type=_nonnegative, default=2)
    gen.add_argument("--graph", required=True, help="graph JSON output path")
    gen.add_argument("--params", required=True, help="params JSON output path")
    gen.set_defaults(func=cmd_gen)

    fwd = add_parser("forward", help="evaluate node updates")
    _add_io_flags(fwd)
    _add_node_flags(fwd, required=False)
    fwd.set_defaults(func=cmd_forward)

    check = add_parser(
        "gradcheck", help="verify analytic gradients against the complex-step oracle"
    )
    _add_io_flags(check)
    _add_node_flags(check, required=True)
    _add_upstream_flags(check)
    check.add_argument("--tol", type=_tolerance, default=1e-6)
    check.set_defaults(func=cmd_gradcheck)

    diag = add_parser("diagnose", help="report gradient pathologies")
    _add_io_flags(diag)
    _add_node_flags(diag, required=False)
    _add_upstream_flags(diag)
    diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
