"""gatgrad benchmark: one workload per process, outputs checked against a reference.

    python3 perfbench/run.py --workload sparse-many --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/` of the
checkout this file sits in. Each round runs, in-process and one after
another, `forward --all-nodes`, `diagnose --upstream random`, the library
routes pass and `gradcheck --upstream uniform` through `gatgrad.cli.main`, so
interpreter start-up and the numpy import are never timed. Rounds repeat
until the timed work adds up to --seconds (at least three rounds, and one
per instance). Every output is checked against `reference.py` outside the
timed regions. Calls and set-up are timed in process CPU time, normalised by
a machine-speed probe sampled while they run; see speed.py.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 rounds alternate untraced and traced, and it carries the
per-module metrics from the traced rounds plus trace.overhead_frac. Result
files (provenance, raw samples, spans) go to `.perfbench_run/`. See NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread, set before numpy loads: the program then runs on one CPU,
# so its process CPU time is the time a user waits, less what the host
# stole (see speed.py). The count is recorded in the provenance.
if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import PROBE_NOMINAL_S, Sampler, Timing, cpu_timed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
# Set-up repeats at least SETUP_REPEATS times, and until it has taken
# SETUP_SECONDS, at most SETUP_MAX_REPEATS times; a short set-up needs more
# repeats for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 15
MIN_ROUNDS = 3
# Untraced, an operation repeats within a round until it has run this long
# or this many times, so cheap operations give more samples.
MIN_OP_SECONDS = 1.0
MAX_REPS = 20
# The routes pass is timed in this many node ranges; see Bench.routes_rate.
ROUTE_CHUNKS = 8
OPS = ("forward", "diagnose", "routes", "gradcheck")
# diagnose draws its random upstream and gradcheck records this seed.
VERB_SEED = "7"
# Nodes per graph workload whose backward_chain is checked by complex step.
GRAPH_SAMPLE = 16


@dataclass(frozen=True)
class Workload:
    build: Callable[..., inputs.Instance]
    # Instances per run, built from (seed, k); rounds take them in turn.
    instances: int
    # gradcheck --all-nodes on the small oracle instances, --node on a big graph.
    gradcheck_all_nodes: bool


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "sparse-many": Workload(inputs.sparse_many, 1, False),
    "dense-hub": Workload(inputs.dense_hub, 1, False),
    # One 12-node instance's degree draw moves its rates by 10-20%; ten
    # instances per run average that out.
    "oracle": Workload(inputs.oracle, 10, True),
}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def blas_threads():
    """OpenBLAS's current thread count, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, digests: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": digests,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    # Problem text -> times seen; repeated calls repeat the same problem.
    problems: dict = field(default_factory=dict)

    def record(self, op: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        for p in problems:
            self.add(f"{op}: {p}")

    def add(self, problem: str) -> None:
        self.problems[problem] = self.problems.get(problem, 0) + 1


def routes_pass(gatgrad, inst, params, graph, features, timed=cpu_timed) -> tuple:
    """Every node's forward trace and all gradient routes under a uniform upstream.

    Calls go through the `gatgrad.layer` and `gatgrad.grads` attributes, so a
    Tracer sees them. Returns the Timing (from `timed`) of each of
    ROUTE_CHUNKS consecutive node ranges and the stacked results.
    """
    layer, grads = gatgrad.layer, gatgrad.grads
    out = reference.RoutesOutput.empty(inst)
    offsets = inst.offsets
    upstream = np.ones(inst.bias.size)
    chain_r, chain_l = out.chain["theta_R"], out.chain["theta_L"]
    chain_a, chain_b = out.chain["a"], out.chain["b"]
    chunk_timings = []
    for chunk in np.array_split(np.arange(inst.num_nodes), ROUTE_CHUNKS):
        with timed() as timing:
            for node in chunk.tolist():
                trace = layer.forward_with_trace(params, graph, features, node)
                chain = grads.backward_chain(trace, params, upstream)
                out.theta_r_sum[node] = grads.grad_theta_r_sum(trace, params, upstream)
                out.theta_r_pairwise[node] = grads.grad_theta_r_pairwise(
                    trace, params, upstream
                )
                out.theta_l[node] = grads.grad_theta_l(trace, params, upstream)
                out.bias[node] = grads.grad_bias(upstream)
                out.h_out[node] = trace.h_out
                out.alpha[offsets[node] : offsets[node + 1]] = trace.alpha
                chain_r[node], chain_l[node] = chain.theta_r, chain.theta_l
                chain_a[node], chain_b[node] = chain.att, chain.bias
        chunk_timings.append(timing)
    return chunk_timings, out


class Case:
    """One instance: its files, the program's loaded copy and its reference."""

    def __init__(self, inst, work: Path, k: int):
        self.inst = inst
        self.graph_path = str(work / f"graph{k}.json")
        self.params_path = str(work / f"params{k}.json")
        # Per operation: fingerprint and verdict of the last output that passed.
        self.verified: dict = {}
        self.gradcheck_verdict = None

    def write_and_load(self, gatgrad) -> None:
        inputs.write(self.inst, self.graph_path, self.params_path, gatgrad)
        self.graph, self.features = gatgrad.load_graph(self.graph_path)
        self.params = gatgrad.load_params(self.params_path)

    def digests(self) -> dict:
        return {Path(p).name: sha256(p) for p in (self.graph_path, self.params_path)}

    def prepare_reference(self, all_nodes: bool, rng: np.random.Generator) -> None:
        inst = self.inst
        self.ref = reference.forward(inst)
        if all_nodes:
            self.gc_nodes = list(range(inst.num_nodes))
            sample = self.gc_nodes
        else:
            # The cheapest node to check, so the call repeats often enough
            # for a steady median: the first of the lowest degree.
            self.gc_nodes = [int(np.argmin(inst.degrees))]
            picks = rng.choice(inst.num_nodes, size=GRAPH_SAMPLE, replace=False)
            sample = sorted(set(picks.tolist()) | set(self.gc_nodes))
        ones = np.ones(inst.bias.size)
        self.grad_refs = {
            int(node): reference.complex_step_gradient(inst, int(node), ones)
            for node in sample
        }

    def work(self, op: str) -> float:
        """What one call of `op` gets through: edges, nodes or parameter entries."""
        inst = self.inst
        return {
            "forward": inst.num_edges,
            "diagnose": int((inst.degrees > 0).sum()),
            "routes": inst.num_nodes,
            "gradcheck": len(self.gc_nodes) * inst.num_param_entries,
        }[op]


class Bench:
    """One workload's instances, operations and checks."""

    def __init__(self, args, gatgrad, work: Path):
        self.args = args
        self.gatgrad = gatgrad
        self.spec = WORKLOADS[args.workload]
        self.work = work
        self.tally = Tally()
        # (case index, seconds, slowdown) per call, untraced (False) and
        # traced (True); traced calls are not sampled, so their slowdown is 1.
        self.samples: dict = {t: {op: [] for op in OPS} for t in (False, True)}
        # Untraced routes passes per case, each as its per-chunk
        # (seconds, slowdown).
        self.route_chunks: dict = defaultdict(list)
        self.tracer = None
        self.traced_rounds = 0
        self.sampler = Sampler()

    def setup(self) -> None:
        """Build and write the inputs, then warm up; repeated, median reported."""
        self.setup_timings, digests = [], None
        while len(self.setup_timings) < SETUP_MAX_REPEATS and (
            len(self.setup_timings) < SETUP_REPEATS
            or sum(t.seconds for t in self.setup_timings) < SETUP_SECONDS
        ):
            # Drop the previous repetition's objects so they do not add to peak memory.
            self.cases = []
            with self.sampler.timed() as timing:
                for k in range(self.spec.instances):
                    case = Case(self.spec.build([self.args.seed, k]), self.work, k)
                    case.write_and_load(self.gatgrad)
                    self.gatgrad.forward_with_trace(case.params, case.graph, case.features, 0)
                    self.cases.append(case)
            self.setup_timings.append(timing)
            now = {name: h for case in self.cases for name, h in case.digests().items()}
            if digests is not None and now != digests:
                self.tally.add("setup: repeated set-up wrote different inputs")
            digests = now
        self.digests = digests
        # Seeded apart from every instance, which use (seed, k) for k < instances.
        rng = np.random.default_rng([self.args.seed, self.spec.instances])
        for case in self.cases:
            case.prepare_reference(self.spec.gradcheck_all_nodes, rng)

    # -- operations ---------------------------------------------------------

    def _timed(self):
        """Sampled and normalised when untraced; plain CPU time when traced,
        so the probes stay out of the spans."""
        return self.sampler.timed() if self.tracer is None else cpu_timed()

    def _verb(self, case: Case, verb: str, flags: list) -> tuple:
        out = str(self.work / f"{verb}.json")
        argv = [verb, "--graph", case.graph_path, "--params", case.params_path]
        argv += [*flags, "--out", out]
        span = self.tracer.span(f"cli.{verb}") if self.tracer else nullcontext()
        with span, self._timed() as timing:
            code = self.gatgrad.cli.main(argv)
        if self.tracer:
            self.tracer.counters[f"cli.{verb}.out_bytes"] = os.path.getsize(out)
        return code, timing, out

    @staticmethod
    def _checked_file(case: Case, key: str, path: str, check) -> tuple:
        """check(payload) -> (problems, info), skipped when the bytes equal an
        output that already passed it."""
        digest = sha256(path)
        cached = case.verified.get(key)
        if cached is not None and cached[0] == digest:
            return [], cached[1]
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        problems, info = check(payload)
        if not problems:
            case.verified[key] = (digest, info)
        return problems, info

    def op_forward(self, case: Case) -> tuple:
        code, timing, out = self._verb(case, "forward", ["--all-nodes"])
        if code != 0:
            return timing, [f"exit code {code}"]
        problems, _ = self._checked_file(
            case, "forward", out,
            lambda p: (reference.check_forward(case.inst, case.ref, p), None),
        )
        return timing, problems

    def op_diagnose(self, case: Case) -> tuple:
        code, timing, out = self._verb(
            case, "diagnose", ["--upstream", "random", "--seed", VERB_SEED]
        )
        if code != 0:
            return timing, [f"exit code {code}"]
        problems, _ = self._checked_file(
            case, "diagnose", out,
            lambda p: (reference.check_diagnose(case.inst, case.ref, p), None),
        )
        return timing, problems

    def op_gradcheck(self, case: Case) -> tuple:
        if self.spec.gradcheck_all_nodes:
            scope = ["--all-nodes"]
        else:
            scope = ["--node", str(case.gc_nodes[0])]
        code, timing, out = self._verb(
            case, "gradcheck", [*scope, "--upstream", "uniform", "--seed", VERB_SEED]
        )
        if code not in (0, 1):
            return timing, [f"exit code {code}"]

        def check(payload):
            verdict = reference.check_gradcheck(payload, code, case.grad_refs)
            return verdict.problems, verdict

        # The exit code is part of what is checked, so it is part of the key.
        problems, case.gradcheck_verdict = self._checked_file(
            case, f"gradcheck-{code}", out, check
        )
        return timing, problems

    def op_routes(self, case: Case) -> tuple:
        chunks, out = routes_pass(
            self.gatgrad, case.inst, case.params, case.graph, case.features, self._timed
        )
        self.last_chunks = [(t.seconds, t.slowdown) for t in chunks]
        # The pass as one call: its seconds, and the slowdown weighted by them.
        seconds = sum(t.seconds for t in chunks)
        timing = Timing(seconds, seconds / sum(t.normalised for t in chunks))
        digest = out.digest()
        if case.verified.get("routes") == digest:
            return timing, []
        problems = reference.check_routes(case.inst, case.ref, out, case.grad_refs)
        if not problems:
            case.verified["routes"] = digest
        return timing, problems

    # -- rounds -------------------------------------------------------------

    def _call(self, op: str, case: Case) -> tuple:
        fn = getattr(self, f"op_{op}")
        try:
            if self.tracer is None:
                return fn(case)
            with self.tracer.installed():
                return fn(case)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            return None, ["raised"]

    def run_round(self, k: int, traced: bool) -> float:
        """Each operation once when traced; untraced, up to MAX_REPS calls each."""
        self.tracer = self._trace if traced else None
        case = self.cases[k]
        total = 0.0
        for op in OPS:
            spent, reps = 0.0, 0
            while True:
                timing, problems = self._call(op, case)
                self.tally.record(op, problems)
                if timing is None:
                    break
                # Wrong output still took its time; correctness is gated apart.
                self.samples[traced][op].append((k, timing.seconds, timing.slowdown))
                if op == "routes" and not traced:
                    self.route_chunks[k].append(self.last_chunks)
                spent += timing.seconds
                reps += 1
                if traced or spent >= MIN_OP_SECONDS or reps == MAX_REPS:
                    break
            total += spent
        self.tracer = None
        return total

    def measure(self, seconds: float, trace: bool) -> None:
        """Rounds take the instances in turn; traced, each instance gets an
        untraced round and then a traced one."""
        self._trace = Tracer() if trace else None
        per_case = 2 if trace else 1
        measured, rounds = 0.0, 0
        # Every instance gets a round, so a run's rates always pool the same ones.
        min_rounds = max(MIN_ROUNDS, per_case * len(self.cases))
        while rounds < min_rounds or measured < seconds:
            k = (rounds // per_case) % len(self.cases)
            traced = trace and rounds % 2 == 1
            measured += self.run_round(k, traced)
            self.traced_rounds += traced
            rounds += 1

    # -- results ------------------------------------------------------------

    def _median_seconds(self, traced: bool, op: str, normalised: bool) -> dict:
        by_case = defaultdict(list)
        for k, seconds, slowdown in self.samples[traced][op]:
            by_case[k].append(seconds / slowdown if normalised else seconds)
        return {k: statistics.median(v) for k, v in by_case.items()}

    def rate(self, op: str, normalised: bool = True) -> float:
        """Work per call summed over instances / median call seconds summed
        over instances; 0 when every call raised."""
        medians = self._median_seconds(False, op, normalised)
        work = sum(self.cases[k].work(op) for k in medians)
        return work / sum(medians.values()) if medians else 0.0

    def routes_rate(self, normalised: bool = True) -> float:
        """Nodes summed over instances / typical pass seconds summed over
        instances.

        A typical pass is the sum over node ranges of each range's median.
        A pass takes seconds on the graph workloads and runs only a few
        times, so its noise is averaged over the ranges instead of passes.
        """
        nodes = seconds = 0.0
        for k, passes in self.route_chunks.items():
            nodes += self.cases[k].inst.num_nodes
            seconds += sum(
                statistics.median(s / d if normalised else s for s, d in chunk)
                for chunk in zip(*passes)
            )
        return nodes / seconds if seconds else 0.0

    def rates(self, normalised: bool = True) -> dict:
        return {
            "forward_edges_per_s": self.rate("forward", normalised),
            "diagnose_nodes_per_s": self.rate("diagnose", normalised),
            "routes_nodes_per_s": self.routes_rate(normalised),
            "gradcheck_entries_per_s": self.rate("gradcheck", normalised),
        }

    def end_to_end(self) -> dict:
        return {
            "setup_s": statistics.median(t.normalised for t in self.setup_timings),
            **self.rates(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        metrics = self._trace.metrics(self.traced_rounds)
        metrics["fdcheck.false_reject_frac"] = self.false_reject_frac()
        # Traced calls against the untraced median CPU time of the same
        # instance and op, both without probes and not normalised.
        traced = untraced = 0.0
        for op in OPS:
            medians = self._median_seconds(False, op, normalised=False)
            for k, seconds, _ in self.samples[True][op]:
                if k in medians:
                    traced += seconds
                    untraced += medians[k]
        metrics["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        return metrics

    def gradcheck_counts(self) -> tuple:
        """(false rejects, nodes checked) over the instances gradchecked."""
        verdicts = [c.gradcheck_verdict for c in self.cases if c.gradcheck_verdict]
        return sum(v.false_rejects for v in verdicts), sum(v.nodes for v in verdicts)

    def false_reject_frac(self) -> float:
        false_rejects, nodes = self.gradcheck_counts()
        return false_rejects / nodes if nodes else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """gatgrad from this checkout's src/, or None when the checkout has none."""
    src = ROOT / "src"
    if not (src / "gatgrad" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import gatgrad
    import gatgrad.cli

    if Path(gatgrad.__file__).resolve().parent != src / "gatgrad":
        return None
    return gatgrad


def main(argv=None) -> int:
    args = parse_args(argv)
    gatgrad = import_program()
    if gatgrad is None:
        print(f"error: no gatgrad package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUN_DIR / f"{stem}-work-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args, gatgrad, work)
        bench.setup()
        bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    prov = provenance(args, bench.digests)
    if args.trace:
        metrics = bench.per_layer()
        bench._trace.dump(RUN_DIR / f"{stem}-spans.json")
    else:
        metrics = bench.end_to_end()
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        print(f"error: metrics {mismatch} not as declared", file=sys.stderr)
        return 2
    false_rejects, gc_nodes = bench.gradcheck_counts()
    gate = {
        "fail_frac": tally.failed / tally.attempted,
        "gradcheck_false_reject_frac": bench.false_reject_frac(),
    }
    record = {
        "provenance": prov,
        "metrics": metrics,
        "cpu_time_rates": bench.rates(normalised=False),
        "median_probe_s": bench.sampler.median_probe(),
        "correctness": {
            **gate,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "gradcheck_nodes": gc_nodes,
            "false_rejects": false_rejects,
            "problems": tally.problems,
        },
        # Each sample is [case index,] seconds without probes, slowdown.
        "samples_s": {
            "untraced": bench.samples[False],
            "traced": bench.samples[True],
            "routes_chunks": bench.route_chunks,
            "setup": [(t.seconds, t.slowdown) for t in bench.setup_timings],
        },
    }
    with open(RUN_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print("provenance " + json.dumps(prov))
    for problem, count in tally.problems.items():
        print(f"problem (x{count}) {problem}")
    counts = ", ".join(f"{op} {len(v)}" for op, v in bench.samples[False].items())
    print(f"untraced calls per operation: {counts}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    probe_us = bench.sampler.median_probe() * 1e6
    print(f"median probe = {probe_us:.4g} us (nominal {PROBE_NOMINAL_S * 1e6:.4g} us)")
    for name, value in bench.rates(normalised=False).items():
        print(f"cpu-time {name} = {value:.6g} 1/s (not normalised)")
    print(
        f"fail_frac = {gate['fail_frac']:.6g} frac "
        f"({tally.failed}/{tally.attempted} operations)"
    )
    print(
        f"gradcheck_false_reject_frac = {gate['gradcheck_false_reject_frac']:.6g} frac "
        f"({false_rejects}/{gc_nodes} nodes)"
    )
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
