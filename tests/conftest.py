"""Checks that hold after every test, and the instances several test modules share."""

import dataclasses
import gc
import json

import numpy as np
import pytest

from gatgrad import Graph, LayerParams, load_graph, load_params, save_graph, save_params
from gatgrad.cli import main


@pytest.fixture(autouse=True)
def collector_left_on():
    """gatgrad pauses the cyclic garbage collector, so every test must leave it on."""
    yield
    assert gc.isenabled(), "the test left the cyclic garbage collector off"


class CiInstances:
    """Instances that reach paths the tests' own small instances do not, each
    written once per session, and the reports of CLI runs on them, each run
    once: an all-node gradcheck of the wide graph takes most of a second, and
    several tests read its report. Each instance is a graph file and a params
    file, written by gen's flags and seeds or from small's files:

    - small: 12 nodes, H = D = 16; regular: its twin where every node has
      degree 11;
    - wide: 150 nodes, H = 40, D = 4, degrees up to 149;
    - hub: 40 nodes, H = D = 16, degrees 20 and more, which split the
      oracle's theta blocks over several core calls;
    - iso: ISO_GRAPH, whose nodes 0 and 1 are isolated, node 2's only edge
      is a self-loop and node 3 has one neighbor, against small's params;
    - zero: small's graph, with all-zero theta blocks, so that every
      pre-activation is at the kink; linear: small's params at
      negative_slope 1, where LeakyReLU is the identity.
    """

    GEN = {
        "small": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16", "--seed", "0"),
        "regular": ("--nodes", "12", "--feature-dim", "16", "--out-dim", "16",
                    "--min-degree", "11", "--seed", "0"),
        "wide": ("--nodes", "150", "--feature-dim", "40", "--out-dim", "4", "--seed", "0"),
        "hub": ("--nodes", "40", "--feature-dim", "16", "--out-dim", "16",
                "--min-degree", "20", "--seed", "1"),
    }
    ISO_GRAPH = Graph(6, ((2, 2), (3, 4), (4, 0), (4, 2), (4, 5), (5, 1), (5, 3)))

    def __init__(self, root):
        self.root, self._reports = root, {}
        for name in (*self.GEN, "iso", "zero", "linear"):
            self.write(name, root)
        # The hub graph's file upstream: one seeded draw shared by every node.
        self.hub_upstream = root / "hub_upstream.json"
        self.hub_upstream.write_text(json.dumps(np.random.default_rng(7).standard_normal(16).tolist()))

    def files(self, name):
        return self.root / f"{name}_graph.json", self.root / f"{name}_params.json"

    def io(self, name) -> list:
        graph, params = self.files(name)
        return ["--graph", str(graph), "--params", str(params)]

    def write(self, name, directory):
        """Write the instance's graph and params files into directory; return their paths."""
        graph, params = directory / f"{name}_graph.json", directory / f"{name}_params.json"
        if name in self.GEN:
            assert main(["gen", *self.GEN[name], "--graph", str(graph), "--params", str(params)]) == 0
            return graph, params
        small_graph, small_params = self.files("small")
        (graph_obj, features), layer_params = load_graph(small_graph), load_params(small_params)
        if name == "iso":
            graph_obj, features = self.ISO_GRAPH, np.random.default_rng(3).standard_normal((6, 16))
        elif name == "zero":
            zero = np.zeros_like(layer_params.theta_r)
            layer_params = LayerParams(zero, zero, layer_params.att, layer_params.bias)
        else:  # linear
            layer_params = dataclasses.replace(layer_params, negative_slope=1.0)
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
        """The exit code and a fresh parse of the report of `verb` on the
        instance under the upstream mode, run the first time it is asked for.
        Call it with no gatgrad name patched, or the patch is what is kept."""
        key = (verb, name, mode, flags)
        if key not in self._reports:
            out = self.root / f"report{len(self._reports)}.json"
            argv = [verb, *self.io(name), *flags, *self.upstream(mode), "--out", str(out)]
            self._reports[key] = main(argv), out
        code, out = self._reports[key]
        return code, json.loads(out.read_text())


@pytest.fixture(scope="session")
def ci(tmp_path_factory):
    return CiInstances(tmp_path_factory.mktemp("ci"))
