"""Tests for the benchmark's reference checker: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gatgrad  # noqa: E402
from gatgrad.cli import main  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def _run(tmp_path, inst, verb, *flags):
    graph, params, out = (str(tmp_path / n) for n in ("g.json", "p.json", f"{verb}.json"))
    inputs.write(inst, graph, params, gatgrad)
    code = main([verb, "--graph", graph, "--params", params, *flags, "--out", out])
    with open(out, encoding="utf-8") as fh:
        return code, json.load(fh)


@pytest.fixture
def small():
    return inputs.random_degree(seed=3, num_nodes=9, feature_dim=3, out_dim=4)


def _refs(inst, nodes):
    ones = np.ones(inst.bias.size)
    return {n: reference.complex_step_gradient(inst, n, ones) for n in nodes}


def test_forward_accepted_and_single_corruptions_flagged(tmp_path, small):
    code, payload = _run(tmp_path, small, "forward", "--all-nodes")
    ref = reference.forward(small)
    assert code == 0
    assert reference.check_forward(small, ref, payload) == []

    payload["nodes"][4]["alpha"][1] += 1e-7
    assert reference.check_forward(small, ref, payload) == [
        "forward alpha off reference: 1 node(s), first 4"
    ]
    payload["nodes"][4]["alpha"][1] -= 1e-7
    payload["nodes"][2]["h_out"][0] *= 1 + 1e-8
    assert reference.check_forward(small, ref, payload) == [
        "forward h_out off reference: 1 node(s), first 2"
    ]


def test_diagnose_accepted_and_corruptions_flagged(tmp_path, small):
    code, payload = _run(tmp_path, small, "diagnose", "--upstream", "random", "--seed", "7")
    ref = reference.forward(small)
    assert code == 0
    assert reference.check_diagnose(small, ref, payload) == []
    payload["nodes"][1]["attention_entropy"] += 1e-6
    assert reference.check_diagnose(small, ref, payload) == [
        "diagnose attention_entropy off reference: 1 node(s), first 1"
    ]
    payload["nodes"][1]["attention_entropy"] -= 1e-6
    dead = payload["nodes"][3]["dead_theta_r"]
    dead[0] = not dead[0]
    problems = reference.check_diagnose(small, ref, payload)
    assert "diagnose dead_theta_r wrong: 1 node(s), first 3" in problems


def test_gradcheck_perturbed_gradient_entry_flagged(tmp_path, small):
    code, payload = _run(
        tmp_path, small, "gradcheck", "--node", "5", "--upstream", "uniform", "--seed", "7"
    )
    refs = _refs(small, [5])
    verdict = reference.check_gradcheck(payload, code, refs)
    assert verdict.problems == [] and verdict.nodes == 1
    payload["gradients"]["theta_L"][1][2] += 1e-6
    verdict = reference.check_gradcheck(payload, code, refs)
    assert len(verdict.problems) == 1 and "theta_L" in verdict.problems[0]


def test_oracle_rejections_count_as_false_rejects_not_failures(tmp_path):
    inst = inputs.oracle(seed=0)
    assert (inst.num_nodes, inst.features.shape[1], inst.bias.size) == (12, 16, 16)
    code, payload = _run(
        tmp_path, inst, "gradcheck", "--all-nodes", "--upstream", "uniform", "--seed", "7"
    )
    verdict = reference.check_gradcheck(payload, code, _refs(inst, range(12)))
    rejected = sum(not entry["pass"] for entry in payload["nodes"])
    assert verdict.problems == []
    assert verdict.nodes == 12
    assert verdict.false_rejects == rejected


def test_routes_accepted_and_perturbed_chain_flagged(small):
    edges = tuple(zip(small.targets.tolist(), small.sources.tolist()))
    graph = gatgrad.Graph(small.num_nodes, edges)
    params = gatgrad.LayerParams(small.theta_r, small.theta_l, small.att, small.bias, small.slope)
    _, out = run.routes_pass(gatgrad, small, params, graph, small.features)
    ref = reference.forward(small)
    refs = _refs(small, range(small.num_nodes))
    assert reference.check_routes(small, ref, out, refs) == []
    out.chain["theta_L"][6][0, 1] += 1e-6
    problems = reference.check_routes(small, ref, out, refs)
    assert any("grad_theta_l differs" in p for p in problems)
    assert any("backward_chain off complex-step" in p for p in problems)


def test_complex_step_matches_central_difference_of_reference_forward(small):
    node, upstream = 4, np.array([0.3, -1.2, 0.7, 2.0])
    grads = reference.complex_step_gradient(small, node, upstream)
    step = 1e-6
    for key, field in (("theta_R", "theta_r"), ("theta_L", "theta_l"), ("a", "att")):
        base = getattr(small, field)
        for idx in [(0,), (1,)] if base.ndim == 1 else [(0, 0), (2, 3)]:
            values = []
            for sign in (1, -1):
                arr = base.copy()
                arr[idx] += sign * step
                shifted = inputs.Instance(**{**small.__dict__, field: arr})
                values.append(reference.forward(shifted).h_out[node] @ upstream)
            numeric = (values[0] - values[1]) / (2 * step)
            assert abs(grads[key][idx] - numeric) < 1e-6 * max(1.0, abs(numeric))
    np.testing.assert_array_equal(grads["b"], upstream)
