"""The JSON writer: byte for byte what json.dumps(payload, indent=2) writes, plus a newline."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gatgrad
import gatgrad.cli
import gatgrad.graph
import gatgrad.layer
from gatgrad.cli import main
from gatgrad.graph import _write_json


def plain(value):
    """value with every numpy array replaced by its tolist(), as json.dumps takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def expected_bytes(payload) -> bytes:
    return (json.dumps(plain(payload), indent=2) + "\n").encode("utf-8")


numbers = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308, float("nan"),
                     float("inf"), float("-inf")]),
)
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3)
arrays = st.one_of(
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.float64, shapes, elements=st.floats()),
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(st.none(), st.text(), numbers)
payloads = st.recursive(
    scalars | arrays | st.lists(numbers, min_size=1, max_size=5),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)


@pytest.mark.parametrize("bulk_numbers", [1, 5, gatgrad.graph._BULK_NUMBERS])
@settings(max_examples=100, deadline=None)
@given(payload=payloads)
def test_matches_json_dumps(tmp_path_factory, bulk_numbers, payload):
    """Empty and nested containers, huge ints, -0.0, NaN, infinities, escaped
    and non-ASCII strings and numpy arrays, flushed after every few numbers
    or not at all."""
    path = tmp_path_factory.mktemp("writer") / "out.json"
    with mock.patch.object(gatgrad.graph, "_BULK_NUMBERS", bulk_numbers):
        _write_json(path, payload)
    assert path.read_bytes() == expected_bytes(payload)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}, object()])
def test_unserializable_value_rejected_as_json_does(tmp_path, value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_json(tmp_path / "out.json", {"key": [1.0, value]})


@pytest.fixture
def recorded(monkeypatch):
    """Every (path, payload) written through the writer, by every module that calls it."""
    written = []

    def recording(path, payload):
        _write_json(path, payload)
        written.append((Path(path), payload))

    for module in (gatgrad.graph, gatgrad.layer, gatgrad.cli):
        monkeypatch.setattr(module, "_write_json", recording)
    return written


def readme_instance(tmp_path, _monkeypatch):
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    assert main(["gen", "--nodes", "6", "--feature-dim", "3", "--out-dim", "4", "--seed", "42",
                 "--min-degree", "2", "--graph", str(graph), "--params", str(params)]) == 0
    return graph, params


def oracle_instance(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    inputs.write(inputs.oracle([1, 0]), graph, params, gatgrad)
    return graph, params


@pytest.mark.parametrize("instance", [readme_instance, oracle_instance])
def test_every_written_file_matches_json_dumps(tmp_path, monkeypatch, recorded, instance):
    graph, params = instance(tmp_path, monkeypatch)
    io = ["--graph", str(graph), "--params", str(params)]
    runs = [["forward", "--all-nodes"]]
    for upstream in ("uniform", "random"):
        flags = ["--upstream", upstream, "--seed", "7"]
        runs += [["gradcheck", "--node", "1", *flags], ["gradcheck", "--all-nodes", *flags],
                 ["diagnose", *flags]]
    for k, (verb, *flags) in enumerate(runs):
        assert main([verb, *io, *flags, "--out", str(tmp_path / f"{k}.json")]) in (0, 1)
    paths = [path for path, _ in recorded]
    assert paths == [graph, params, *(tmp_path / f"{k}.json" for k in range(len(runs)))]
    for path, payload in recorded:
        assert path.read_bytes() == expected_bytes(payload), path.name
