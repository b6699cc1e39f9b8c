"""The JSON writer: byte for byte what json.dumps(payload, indent=2) writes, plus a newline."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gatgrad.cli
import gatgrad.graph
import gatgrad.layer
from gatgrad.graph import _Table, _write_json


def plain(value):
    """value with every numpy array replaced by its tolist() and every table by its
    list of records, as json.dumps takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, _Table):
        return [
            {key: plain(values[r] if offsets is None else values[offsets[r] : offsets[r + 1]])
             for key, (values, offsets) in value.columns.items()}
            for r in range(len(value))
        ]
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


SPECIALS = [-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]


def matrices(width: int) -> dict:
    """2-D arrays of `width` columns in each dtype, memory layout and edge shape."""
    rng = np.random.default_rng(width)
    floats = rng.standard_normal((40, width))
    floats.flat[: len(SPECIALS)] = SPECIALS
    ints = rng.integers(-(2**63), 2**63 - 1, (40, width), endpoint=True)
    ints.flat[:2] = [-(2**63), 2**63 - 1]
    return {
        "float64": floats,
        "float32": floats.astype(np.float32),
        "int64": ints,
        "uint64": ints.view(np.uint64),
        "bool": rng.random((40, width)) < 0.5,
        "object": floats.astype(object),
        "fortran": np.asfortranarray(floats),
        "strided": floats[:, ::2],
        "transposed": floats.T,
        "no columns": np.zeros((width, 0)),
        "no rows": np.zeros((0, width)),
        "one row": floats[:1],
    }


def nested(value, depth: int):
    """value `depth` levels down a payload, alternately in a list and a dict."""
    for level in range(depth):
        value = {"key": value, "after": 1.5} if level % 2 else [True, value, "x"]
    return value


@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("name", list(matrices(1)))
def test_matrix_blocks_match_json_dumps(tmp_path, width, name):
    """_BULK_NUMBERS below, at and above one or a few rows' numbers, at depths 0-3."""
    matrix = matrices(width)[name]
    w = matrix.shape[1]
    sizes = (1, w - 1, w, w + 1, 2 * w + 1, 3 * w, gatgrad.graph._BULK_NUMBERS)
    for bulk in {max(1, size) for size in sizes}:
        for depth in range(4):
            payload = nested(matrix, depth)
            path = tmp_path / f"{bulk}-{depth}.json"
            with mock.patch.object(gatgrad.graph, "_BULK_NUMBERS", bulk):
                _write_json(path, payload)
            assert path.read_bytes() == expected_bytes(payload), (bulk, depth)


@pytest.fixture
def write_sizes(monkeypatch):
    """The length of every text the writer hands to its file, in order."""
    sizes = []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            sizes.append(len(text))
            return self.fh.write(text)

    monkeypatch.setattr(gatgrad.graph, "open", lambda *a, **k: Recording(open(*a, **k)),
                        raising=False)
    return sizes


def test_matrix_written_a_block_at_a_time(tmp_path, write_sizes):
    """No single write holds more than about one block of a large matrix."""
    payload = {"features": np.random.default_rng(0).standard_normal((5000, 8))}
    _write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_bytes() == expected_bytes(payload)
    assert len(write_sizes) >= 10 and max(write_sizes) < 40 * gatgrad.graph._BULK_NUMBERS


def test_table_written_a_block_at_a_time(tmp_path, write_sizes):
    """No single write holds more than about one block of a long table."""
    rng = np.random.default_rng(0)
    offsets = np.arange(20_001) * 8
    table = _Table({"node": list(range(20_000)),
                    "neighbors": (rng.integers(0, 20_000, 160_000), offsets),
                    "alpha": (rng.random(160_000), offsets),
                    "h_out": rng.standard_normal((20_000, 8))})
    _write_json(tmp_path / "out.json", {"nodes": table})
    assert (tmp_path / "out.json").read_bytes() == expected_bytes({"nodes": table})
    assert len(write_sizes) >= 10 and max(write_sizes) < 40 * gatgrad.graph._BULK_NUMBERS


LEAVES = {
    "list": lambda n: st.lists(numbers, min_size=n, max_size=n),
    "tuple": lambda n: st.lists(numbers, min_size=n, max_size=n).map(tuple),
    "int64": lambda n: hnp.arrays(np.int64, n),
    "float64": lambda n: hnp.arrays(np.float64, n, elements=st.floats()),
    "bool": lambda n: hnp.arrays(np.bool_, n),
}
# Each change gives a record another layout than the others (a key order only
# where the records have two keys or more).
CHANGES = {
    "key order": lambda record, key: dict(reversed(record.items())),
    "leaf length": lambda record, key: record | {key: [1.5] * (np.size(record[key]) + 1)},
    "empty leaf": lambda record, key: record | {key: np.zeros(0)},
    "empty list": lambda record, key: record | {key: []},
    "nested dict": lambda record, key: record | {key: {"value": record[key]}},
    "string": lambda record, key: record | {key: "text"},
    "numpy scalar": lambda record, key: record | {key: np.int64(1)},
}


@st.composite
def tables(draw):
    """A list or tuple of records of one layout, the layout perhaps changed at one record."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    leaves = [draw(st.none() | st.tuples(st.sampled_from(list(LEAVES)), st.integers(1, 4)))
              for _ in keys]
    records = [
        {key: draw(numbers if leaf is None else LEAVES[leaf[0]](leaf[1]))
         for key, leaf in zip(keys, leaves)}
        for _ in range(draw(st.integers(2, 6)))
    ]
    at = draw(st.none() | st.integers(0, len(records) - 1))
    if at is not None:
        change = CHANGES[draw(st.sampled_from(list(CHANGES)))]
        records[at] = change(records[at], draw(st.sampled_from(keys)))
    return tuple(records) if draw(st.booleans()) else records


@pytest.mark.parametrize("bulk_numbers", [1, 5, gatgrad.graph._BULK_NUMBERS])
@settings(max_examples=150, deadline=None)
@given(records=tables(), depth=st.integers(0, 2))
def test_tables_match_json_dumps(tmp_path_factory, bulk_numbers, records, depth):
    """The value route on lists of records: records sharing one layout, and
    lists whose layout changes at a record, by key order, a leaf's length, an
    empty leaf, a nested dict, a string, or a numpy scalar, which json.dumps
    rejects."""
    payload = nested(records, depth)
    path = tmp_path_factory.mktemp("writer") / "out.json"
    with mock.patch.object(gatgrad.graph, "_BULK_NUMBERS", bulk_numbers):
        try:
            want = expected_bytes(payload)
        except TypeError:
            with pytest.raises(TypeError, match="not JSON serializable"):
                _write_json(path, payload)
            return
        _write_json(path, payload)
    assert path.read_bytes() == want


NUMBER_COLUMNS = {
    "int": lambda k: st.lists(st.integers(), min_size=k, max_size=k),
    "float": lambda k: st.lists(st.floats(), min_size=k, max_size=k),
    "bool": lambda k: st.lists(st.booleans(), min_size=k, max_size=k).map(tuple),
    "mixed": lambda k: st.lists(numbers, min_size=k, max_size=k).map(tuple),
}
LEAF_DTYPES = {
    "int64": (np.int64, None),
    "float64": (np.float64, st.floats()),
    "bool": (np.bool_, None),
}


@st.composite
def column_tables(draw):
    """A table of number, (k, m) and ragged columns, and its list of records,
    built from the drawn values alone. Ragged leaf lengths come in runs, long
    ones and runs of one record, so that runs of every length meet."""
    k = draw(st.sampled_from([0, 1, 2, 3]) | st.integers(4, 60))
    columns, rows = {}, [{} for _ in range(k)]
    for key in draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["number", "matrix", "ragged"]))
        if kind == "number":
            columns[key] = draw(NUMBER_COLUMNS[draw(st.sampled_from(list(NUMBER_COLUMNS)))](k))
            for row, value in zip(rows, columns[key]):
                row[key] = value
            continue
        dtype, elements = LEAF_DTYPES[draw(st.sampled_from(list(LEAF_DTYPES)))]
        if kind == "matrix":
            lengths = [draw(st.integers(0, 3))] * k
        else:
            lengths = []
            while len(lengths) < k:
                lengths += [draw(st.integers(0, 3))] * draw(st.sampled_from([1, 1, 2, 9, 40]))
            lengths = lengths[:k]
        values = draw(hnp.arrays(dtype, sum(lengths), elements=elements))
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        for r, row in enumerate(rows):
            row[key] = values[offsets[r] : offsets[r + 1]].tolist()
        if kind == "matrix":
            columns[key] = values.reshape(k, lengths[0] if k else 0)
        else:
            columns[key] = values, offsets
    return _Table(columns), rows


@pytest.mark.parametrize("bulk_numbers", [1, 5, gatgrad.graph._BULK_NUMBERS])
@settings(max_examples=150, deadline=None)
@given(drawn=column_tables(), depth=st.integers(0, 2))
def test_column_tables_match_json_dumps(tmp_path_factory, bulk_numbers, drawn, depth):
    """A table writes what json.dumps writes of its records: int, float and
    bool number columns, leaves of width 0 and up, tables of 0, 1 and many
    records, ragged leaves with long runs and runs of one record."""
    table, records = drawn
    path = tmp_path_factory.mktemp("writer") / "out.json"
    with mock.patch.object(gatgrad.graph, "_BULK_NUMBERS", bulk_numbers):
        _write_json(path, nested(table, depth))
    assert path.read_bytes() == (json.dumps(nested(records, depth), indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "value", [np.int64(1), np.bool_(True), {1, 2}, object(), np.ones((2, 2), complex)]
)
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


@pytest.mark.parametrize(
    "instance",
    # conftest's instances by name: the README's; the benchmark's oracle([1, 0]);
    # "regular", where every node has degree 11, so the forward report's
    # records share one layout; "wide", whose features and edges span several
    # of the writer's row blocks; "iso", whose isolated nodes break the
    # forward table into runs of one record; "edgeless", whose leaves are all
    # empty and whose default diagnose table has no record; and "lastiso",
    # whose tables are a run of one writer block or more, then a run of one.
    ["readme", "oracle", "regular", "wide", "iso", "edgeless", "lastiso"],
    ids=lambda instance: f"{instance}_instance",
)
def test_every_written_file_matches_json_dumps(recorded, ci, instance):
    """Each is written afresh, so gen's and save_graph's files are recorded too."""
    graph, params = ci.write(instance)
    io = ["--graph", graph, "--params", params]
    runs = [["forward", "--all-nodes"], ["forward", "--node", "1"]]
    for upstream in ("uniform", "random"):
        flags = ["--upstream", upstream, "--seed", "7"]
        runs += [["gradcheck", "--node", "1", *flags], ["gradcheck", "--all-nodes", *flags],
                 ["diagnose", *flags], ["diagnose", "--all-nodes", *flags],
                 ["diagnose", "--node", "1", *flags]]
    reports = []
    for verb, *flags in runs:
        assert ci.cli(verb, *io, *flags)[0] in (0, 1)
        reports.append(ci.last / "out.json")
    assert [path for path, _ in recorded] == [graph, params, *reports]
    for path, payload in recorded:
        assert path.read_bytes() == expected_bytes(payload), path.name
