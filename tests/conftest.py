"""Checks that hold after every test, and the instances several test modules share."""

import dataclasses
import gc
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import gatgrad
from gatgrad import Graph, LayerParams, generate_instance, save_graph, save_params
from gatgrad.cli import main


@pytest.fixture(autouse=True)
def collector_left_on():
    """gatgrad pauses the cyclic garbage collector, so every test must leave it on."""
    yield
    assert gc.isenabled(), "the test left the cyclic garbage collector off"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _strict(path):
    """The report at path, parsed; a NaN, Infinity or -Infinity, which strict JSON lacks, fails."""

    def reject(name):
        raise ValueError(f"{path} holds {name}, which is not strict JSON")

    return json.loads(path.read_text(), parse_constant=reject)


class CiInstances:
    """The one registry of the files the CLI tests read, and cli, the one
    function they run every verb through. Each instance is a graph file and a
    params file, written the first time a test asks for it, by gen's flags
    and seeds or from gatgrad's own objects:

    - small: 12 nodes, H = D = 16; small1, small2, small3: the same at seeds 1 to 3;
      regular: its twin where every node has degree 11;
    - wide: 150 nodes, H = 40, D = 4, degrees up to 149;
    - hub: 40 nodes, H = D = 16, degrees 20 and more, which split the
      oracle's theta blocks over several core calls;
    - four: 4 nodes, H = 2, D = 3; five: 5 nodes, H = 3, D = 4; narrow: five
      at H = 2; twelve: 12 nodes, H = 3, D = 4; sparse: twelve where a node
      may have no neighbor; readme: the README's instance;
    - iso: ISO_GRAPH, whose nodes 0 and 1 are isolated, node 2's only edge
      is a self-loop and node 3 has one neighbor, against small's params;
      iso3: ISO_GRAPH at H = 3, against gen's 6-node params at seed 3;
      edgeless: iso with no edge at all;
    - lastiso: TAIL_GRAPH, 420 nodes of degree 3 but the last, which is
      isolated, against iso3's params: its forward and diagnose tables hold
      a run of 419 records, over one writer block, then a run of one;
    - zero: small, with all-zero theta blocks, so that every pre-activation
      is at the kink; linear: small's params at negative_slope 1, where
      LeakyReLU is the identity;
    - oracle: the benchmark's oracle([1, 0]), written by perfbench/inputs.py.

    The reports of CLI runs on them are cached too: an all-node gradcheck of
    the wide graph takes most of a second, and several tests read its report.
    Every instance file and cached report is shared, so each is sealed with
    its sha256 when written, and the ci fixture fails if a test changed one.
    """

    GEN = {
        "small": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16", "--seed", "0"),
        "small1": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16", "--seed", "1"),
        "small2": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16", "--seed", "2"),
        "small3": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16", "--seed", "3"),
        "regular": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16",
                    "--min-degree", "11", "--seed", "0"),
        "wide": ("--nodes", "150", "--feature-dim", "40", "--out-dim", "4", "--seed", "0"),
        "hub": ("--nodes", "40", "--feature-dim", "16", "--out-dim", "16",
                "--min-degree", "20", "--seed", "1"),
        "four": ("--nodes", "4", "--feature-dim", "2", "--out-dim", "3", "--seed", "7"),
        "five": ("--nodes", "5", "--feature-dim", "3", "--out-dim", "4", "--seed", "42"),
        "narrow": ("--nodes", "5", "--feature-dim", "2", "--out-dim", "4", "--seed", "42"),
        "twelve": ("--nodes", "12", "--feature-dim", "3", "--out-dim", "4", "--seed", "3"),
        "sparse": ("--nodes", "12", "--feature-dim", "3", "--out-dim", "4", "--seed", "3",
                   "--min-degree", "0"),
        "readme": ("--nodes", "6", "--feature-dim", "3", "--out-dim", "4", "--seed", "42",
                   "--min-degree", "2"),
    }
    ISO_GRAPH = Graph(6, ((2, 2), (3, 4), (4, 0), (4, 2), (4, 5), (5, 1), (5, 3)))
    TAIL_GRAPH = Graph(420, tuple((i, (i + s) % 419) for i in range(419) for s in (1, 2, 3)))

    def __init__(self, root):
        self.root, self.sealed, self._files, self._reports = root, {}, {}, {}
        self._runs = itertools.count()
        # The hub graph's file upstream: one seeded draw shared by every node.
        self.hub_upstream = root / "hub_upstream.json"
        self.hub_upstream.write_text(json.dumps(np.random.default_rng(7).standard_normal(16).tolist()))
        self._seal(self.hub_upstream)

    def _seal(self, *paths):
        self.sealed.update((path, _sha256(path)) for path in paths)

    def _fresh(self) -> Path:
        """A new directory under root for one run's files; it is self.last."""
        self.last = self.root / f"run{next(self._runs)}"
        self.last.mkdir()
        return self.last

    def cli(self, verb, *flags):
        """Run `verb` in process, as `gatgrad verb flags`, writing into a fresh
        directory: gen its --graph graph.json and --params params.json, any
        other verb its --out out.json. Flags may be any values; each is
        passed as its str(). Return the exit code and the report, parsed as
        strict JSON, None when the verb wrote none (gen never does); self.last
        is the directory.
        argparse's SystemExit propagates."""
        directory = self._fresh()
        outs = ("graph", "params") if verb == "gen" else ("out",)
        argv = [verb, *flags, *(arg for out in outs for arg in (f"--{out}", directory / f"{out}.json"))]
        code = main([str(arg) for arg in argv])
        report = directory / "out.json"
        return code, _strict(report) if report.exists() else None

    def files(self, name):
        """The shared graph and params files of the instance, written the first
        time they are asked for. Ask before patching gatgrad."""
        if name not in self._files:
            self._files[name] = self.write(name)
            self._seal(*self._files[name])
        return self._files[name]

    def io(self, name) -> list:
        graph, params = self.files(name)
        return ["--graph", str(graph), "--params", str(params)]

    def write(self, name):
        """Write a fresh copy of the instance's graph and params files; return their paths."""
        if name in self.GEN:
            assert self.cli("gen", *self.GEN[name]) == (0, None)
            return self.last / "graph.json", self.last / "params.json"
        directory = self._fresh()
        graph, params = directory / "graph.json", directory / "params.json"
        if name == "oracle":
            with pytest.MonkeyPatch.context() as patch:
                patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
                import inputs
            inputs.write(inputs.oracle([1, 0]), graph, params, gatgrad)
            return graph, params
        graph_obj, features, layer_params = generate_instance(12, 16, 16, seed=0)  # small's
        if name == "zero":
            zero = np.zeros_like(layer_params.theta_r)
            layer_params = LayerParams(zero, zero, layer_params.att, layer_params.bias)
        elif name == "linear":
            layer_params = dataclasses.replace(layer_params, negative_slope=1.0)
        else:  # iso, iso3, edgeless, lastiso
            graphs = {"lastiso": self.TAIL_GRAPH, "edgeless": Graph(6, ())}
            graph_obj = graphs.get(name, self.ISO_GRAPH)
            width = 3 if name in ("iso3", "lastiso") else 16
            features = np.random.default_rng(3).standard_normal((graph_obj.num_nodes, width))
            if width == 3:
                layer_params = generate_instance(6, 3, 4, seed=3)[2]
        save_graph(graph, graph_obj, features)
        save_params(params, layer_params)
        return graph, params

    def upstream(self, mode) -> tuple:
        """The --upstream flags of each mode: the default under uniform,
        --seed 7 under random, and the hub graph's file, whose 16 entries fit
        every instance but the wide graph."""
        return {
            "uniform": (),
            "random": ("--upstream", "random", "--seed", "7"),
            "file": ("--upstream", f"file:{self.hub_upstream}"),
        }[mode]

    def run(self, verb, name, mode, *flags):
        """cli's cached form: the exit code and a fresh strict parse of the report of
        `verb` on the instance under the upstream mode, run the first time it
        is asked for. Call it with no gatgrad name patched, or the patch is
        what is kept."""
        key = (verb, name, mode, flags)
        if key in self._reports:
            code, out = self._reports[key]
            return code, _strict(out)
        code, report = self.cli(verb, *self.io(name), *flags, *self.upstream(mode))
        self._reports[key] = code, self.last / "out.json"
        self._seal(self.last / "out.json")
        return code, report


@pytest.fixture(scope="session", autouse=True)
def ci(tmp_path_factory):
    """The registry; autouse, so that after the last test it fails if any
    test changed a file the registry shares."""
    registry = CiInstances(tmp_path_factory.mktemp("ci"))
    yield registry
    changed = [str(path) for path, digest in registry.sealed.items() if _sha256(path) != digest]
    assert not changed, f"a test changed the shared files {changed}"
