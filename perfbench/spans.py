"""Span recording from outside the program, for the traced run.

`Tracer.installed()` replaces the public names that `gatgrad.cli`,
`gatgrad.fdcheck` and `gatgrad.diagnostics` imported (and the `gatgrad.layer`
and `gatgrad.grads` attributes the routes pass calls through) with wrappers
that record one span per call, and puts the originals back on exit. A span
is [name, start, end, parent index]; its name is the module that defines the
function plus the function name, e.g. `layer.forward_with_trace`. Counters are
read off arguments and return values at the same boundaries. Spans stay in
memory until `dump`. Span times are process CPU time, as for every timing
of the benchmark (see speed.py).
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from speed import clock

# Module -> names patched in it. Each module holds its own reference to an
# imported function, so every importer that the workloads call through is
# listed separately.
PATCHED = {
    "gatgrad.cli": (
        "load_graph",
        "load_params",
        "forward_with_trace",
        "backward_chain",
        "grad_theta_r_sum",
        "grad_theta_l",
        "grad_bias",
        "fd_gradient",
        "compare_gradients",
        "closed_form_gap",
        "diagnose",
    ),
    "gatgrad.fdcheck": ("forward_with_trace",),
    "gatgrad.diagnostics": (
        "forward_with_trace",
        "backward_chain",
        "grad_theta_r_sum",
        "grad_theta_l",
        "grad_bias",
        "closed_form_gap",
    ),
    "gatgrad.layer": ("forward_with_trace",),
    "gatgrad.grads": (
        "backward_chain",
        "grad_theta_r_sum",
        "grad_theta_r_pairwise",
        "grad_theta_l",
        "grad_bias",
    ),
}

VERBS = ("forward", "diagnose", "gradcheck")


def _count_graph(counters, args, kwargs, result):
    graph, _ = result
    counters["graph.nodes"] = graph.num_nodes
    counters["graph.edges"] = len(graph.edges)


def _count_forward(counters, args, kwargs, result):
    counters["layer.edges"] += result.num_neighbors


def _count_pairs(counters, args, kwargs, result):
    n = args[0].num_neighbors
    counters["grads.pairs"] += n * (n - 1) // 2


def _count_fd(counters, args, kwargs, result):
    counters["fdcheck.entries"] += sum(g.size for g in result.grads.as_dict().values())
    counters["fdcheck.kink_flagged"] += sum(int(f.sum()) for f in result.kink_flags.values())


def _count_compare(counters, args, kwargs, result):
    """Entries whose verdict rests on the relative error, per full comparison.

    compare_gradients excludes kink-flagged entries and entries where both
    the analytic value and the disagreement sit below the oracle resolution.
    Only calls that compare every block (the backward_chain check) count, so
    the denominator equals the entries the oracle perturbed.
    """
    if len(args) > 3 or "keys" in kwargs:
        return
    analytic, numeric = args[0], args[1]
    res = numeric.resolution
    for key, x in analytic.as_dict().items():
        y = numeric.grads.as_dict()[key]
        below = (np.abs(x) <= res) & (np.abs(x - y) <= res)
        counters["fdcheck.judged"] += int((~numeric.kink_flags[key] & ~below).sum())
        counters["fdcheck.compared"] += x.size


def _count_diagnose(counters, args, kwargs, result):
    counters["diagnostics.dead_rows"] += sum(sum(d.dead_theta_r) for d in result)
    counters["diagnostics.single_neighbor_nodes"] += sum(d.single_neighbor for d in result)


COUNTERS = {
    "graph.load_graph": _count_graph,
    "layer.forward_with_trace": _count_forward,
    "grads.grad_theta_r_pairwise": _count_pairs,
    "fdcheck.fd_gradient": _count_fd,
    "fdcheck.compare_gradients": _count_compare,
    "diagnostics.diagnose": _count_diagnose,
}


class Tracer:
    """Spans and counters of one run's traced rounds."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[1] = clock()
        try:
            yield
        finally:
            rec[2] = clock()
            self._open.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._open, self.counters

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, names in PATCHED.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self, rounds: int) -> dict:
        """Per-module figures, as totals per traced round unless named a ratio."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        loss_evals = 0
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
                under_fd = self.spans[parent][0] == "fdcheck.fd_gradient"
                loss_evals += name == "layer.forward_with_trace" and under_fd
        verb_self = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            if name.startswith("cli."):
                verb_self[name] += end - start - child[idx]
        c = self.counters
        per = 1.0 / rounds

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {
            "graph.load_graph_s": total["graph.load_graph"] * per,
            "graph.nodes": c["graph.nodes"],
            "graph.edges": c["graph.edges"],
            "layer.load_params_s": total["layer.load_params"] * per,
            "layer.forward_calls": calls["layer.forward_with_trace"] * per,
            "layer.forward_s": total["layer.forward_with_trace"] * per,
            "layer.forward_us_per_edge": ratio(
                total["layer.forward_with_trace"], c["layer.edges"], 1e6
            ),
            "grads.backward_chain_s": total["grads.backward_chain"] * per,
            "grads.theta_r_sum_s": total["grads.grad_theta_r_sum"] * per,
            "grads.theta_r_pairwise_s": total["grads.grad_theta_r_pairwise"] * per,
            "grads.theta_l_s": total["grads.grad_theta_l"] * per,
            "grads.pairs": c["grads.pairs"] * per,
            "grads.pairwise_ns_per_pair": ratio(
                total["grads.grad_theta_r_pairwise"], c["grads.pairs"], 1e9
            ),
            "fdcheck.fd_gradient_s": total["fdcheck.fd_gradient"] * per,
            "fdcheck.compare_s": total["fdcheck.compare_gradients"] * per,
            "fdcheck.entries": c["fdcheck.entries"] * per,
            "fdcheck.loss_evals": loss_evals * per,
            "fdcheck.loss_eval_us": ratio(total["fdcheck.fd_gradient"], loss_evals, 1e6),
            "fdcheck.kink_flagged": c["fdcheck.kink_flagged"] * per,
            "fdcheck.judged_frac": ratio(c["fdcheck.judged"], c["fdcheck.compared"]),
            "diagnostics.diagnose_s": total["diagnostics.diagnose"] * per,
            "diagnostics.closed_form_gap_s": total["diagnostics.closed_form_gap"] * per,
            "diagnostics.dead_rows": c["diagnostics.dead_rows"] * per,
            "diagnostics.single_neighbor_nodes": c["diagnostics.single_neighbor_nodes"] * per,
        }
        for verb in VERBS:
            out[f"cli.{verb}.self_s"] = verb_self[f"cli.{verb}"] * per
            out[f"cli.{verb}.out_bytes"] = c[f"cli.{verb}.out_bytes"]
        return out

    def dump(self, path) -> None:
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [
                [index[name], start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
