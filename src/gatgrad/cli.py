"""Command-line front end.

Four subcommands: `gen` writes a seeded random graph/params pair, `forward`
evaluates node updates, `gradcheck` verifies analytic gradients against the
complex-step oracle, and `diagnose` reports gradient pathologies. All
outputs are JSON and deterministic given the flags, files, and seed.

Exit codes: 0 success / all checks passed, 1 gradient check failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .diagnostics import closed_form_gap, diagnose
from .fdcheck import COMPLEX_STEP, compare_gradients, fd_gradient
from .gen import generate_instance
from .grads import (
    GradientSet,
    backward_chain,
    grad_bias,
    grad_theta_l,
    grad_theta_r_sum,
    gradient_set_to_json_dict,
)
from .graph import _numbers, _write_json, load_graph, save_graph
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


def _add_upstream_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--upstream",
        default="uniform",
        help="upstream gradient mode: uniform, random, or file:PATH",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed for random draws")


def _select_nodes(args, graph) -> list[int]:
    if args.node is not None:
        if not 0 <= args.node < graph.num_nodes:
            raise ValueError(f"node {args.node} out of range")
        return [args.node]
    return list(range(graph.num_nodes))


def _mode_label(upstream_arg: str) -> str:
    return "file" if upstream_arg.startswith("file:") else upstream_arg


def _upstream_vector(mode: str, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    if mode == "uniform":
        return np.ones(out_dim)
    if mode == "random":
        return rng.standard_normal(out_dim)
    if mode.startswith("file:"):
        path = mode[5:]
        with open(path, "r", encoding="utf-8") as fh:
            vec = _numbers(json.load(fh), f"upstream file {path}", 1)
        if vec.shape != (out_dim,):
            raise ValueError(
                f"upstream file {path} has shape {vec.shape}, expected ({out_dim},)"
            )
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise ValueError(f"upstream file {path} has a non-finite entry at index {bad[0]}")
        return vec
    raise ValueError(f"unknown upstream mode {mode!r}")


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
    graph, features = load_graph(args.graph)
    params = load_params(args.params)
    nodes = _select_nodes(args, graph)
    alpha, h_out = forward_graph(params, graph, features)
    alpha, h_out, offsets = alpha.tolist(), h_out.tolist(), graph.offsets.tolist()
    entries = [
        {
            "node": node,
            "neighbors": list(graph.neighbor_lists[node]),
            "alpha": alpha[offsets[node] : offsets[node + 1]],
            "h_out": h_out[node],
        }
        for node in nodes
    ]
    _write_json(args.out, {"nodes": entries})
    return 0


def cmd_gradcheck(args) -> int:
    graph, features = load_graph(args.graph)
    params = load_params(args.params)
    rng = np.random.default_rng(args.seed)
    mode = _mode_label(args.upstream)
    entries = []
    all_passed = True
    for node in _select_nodes(args, graph):
        trace = forward_with_trace(params, graph, features, node)
        upstream = _upstream_vector(args.upstream, params.out_dim, rng)
        chain = backward_chain(trace, params, upstream)
        numeric = fd_gradient(params, graph, features, node, upstream)
        report = compare_gradients(chain, numeric, args.tol)
        node_passed = report.passed
        entry = {
            "node": node,
            "num_neighbors": trace.num_neighbors,
            "upstream_mode": mode,
            "upstream": upstream.tolist(),
        }
        entry.update(report.to_json_dict(seed=args.seed))
        if mode == "uniform":
            closed = GradientSet(
                theta_r=grad_theta_r_sum(trace, params, upstream),
                theta_l=grad_theta_l(trace, params, upstream),
                att=chain.att,
                bias=grad_bias(upstream),
            )
            closed_report = compare_gradients(
                closed, numeric, args.tol, keys=("theta_R", "theta_L", "b")
            )
            node_passed &= closed_report.passed
            entry["closed_form"] = {
                key: check.to_json_dict()
                for key, check in closed_report.checks.items()
            }
        entry["closed_form_gap"] = closed_form_gap(trace, params, upstream, chain)
        entry["gradients"] = gradient_set_to_json_dict(
            chain, node, trace.num_neighbors, mode
        )
        entry["pass"] = node_passed
        entries.append(entry)
        all_passed &= node_passed
    if len(entries) == 1 and args.node is not None:
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
    graph, features = load_graph(args.graph)
    params = load_params(args.params)
    rng = np.random.default_rng(args.seed)
    mode = _mode_label(args.upstream)
    upstream = _upstream_vector(args.upstream, params.out_dim, rng)
    if args.node is None and not args.all_nodes:
        nodes = None  # default: every node with at least one neighbor
    else:
        nodes = _select_nodes(args, graph)
    report = diagnose(params, graph, features, nodes, upstream)
    payload = {
        "upstream_mode": mode,
        "upstream": upstream.tolist(),
        "nodes": [entry.to_json_dict() for entry in report],
    }
    _write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatgrad",
        description="Attention-layer forward evaluation, gradient checking, "
        "and gradient-pathology diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a seeded random graph/params pair")
    gen.add_argument("--nodes", type=int, required=True, help="node count")
    gen.add_argument("--feature-dim", type=int, required=True, help="input width H")
    gen.add_argument("--out-dim", type=int, required=True, help="output width D")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--min-degree", type=int, default=2)
    gen.add_argument("--graph", required=True, help="graph JSON output path")
    gen.add_argument("--params", required=True, help="params JSON output path")
    gen.set_defaults(func=cmd_gen)

    fwd = subs.add_parser("forward", help="evaluate node updates")
    _add_io_flags(fwd)
    _add_node_flags(fwd, required=False)
    fwd.set_defaults(func=cmd_forward)

    check = subs.add_parser(
        "gradcheck", help="verify analytic gradients against the complex-step oracle"
    )
    _add_io_flags(check)
    _add_node_flags(check, required=True)
    _add_upstream_flags(check)
    check.add_argument("--tol", type=float, default=1e-6)
    check.set_defaults(func=cmd_gradcheck)

    diag = subs.add_parser("diagnose", help="report gradient pathologies")
    _add_io_flags(diag)
    _add_node_flags(diag, required=False)
    _add_upstream_flags(diag)
    diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
