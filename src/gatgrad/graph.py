"""Directed graph topology, node feature storage, and the JSON writer.

An edge (i, j) makes node j a message source for target node i. A graph
keeps its edges as one read-only (E, 2) int64 array in edge-file order,
checked in numpy at construction. Neighbor order is that order; gradient
code indexes neighbors positionally, so it must be reproducible.

A stable sort on the target gives the compressed sparse row (CSR) view the
whole-graph passes use: node i's neighbors are
`sources[offsets[i]:offsets[i + 1]]`. Edge k of that order is edge k of the
attention weights `layer.forward_graph` returns.

Features are stored as given, one row per node. The layer prefixes the
constant 1 of the augmented row h_aug = [1, h] itself, when it gathers a
target node's row and its neighbors' rows in one indexing step.

Outside input has one boundary here. Every file gatgrad reads is read
under `_reading`, which names the file in every error its content causes;
a node id is checked by `_node_id` and a float array's finiteness by
`_finite`. Every file gatgrad writes goes through `_write_json`, which
writes what `json.dump(payload, fh, indent=2)` writes, plus a trailing
newline. A matrix's rows, and each run of alike records in a report's
`_Table` of columns that is longer than a record's keys, are written a block
of rows at a time; any other value is written value by value.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["Graph", "load_graph", "save_graph"]


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, then on again if it was on.

    Safe: a parse tree and a report's records hold no reference cycle, and a
    verb's cyclic garbage is bounded whatever the graph's size.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _reading(path, kind: str):
    """Yield the parsed JSON of the file at path, to a with-block that checks it.

    Every KeyError, TypeError, ValueError (bad UTF-8 and bad JSON among them)
    or RecursionError (nesting too deep to parse) raised while parsing or in
    the block becomes ValueError("malformed {kind} file {path}: ..."). An
    OSError passes through: its message names the path. The parse and the
    block run with the collector paused, as the parse tree holds no cycle.
    """
    with open(path, "r", encoding="utf-8") as fh, _collector_paused():
        try:
            yield json.load(fh)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed {kind} file {path}: {exc}") from None


def _index(value, key: str) -> int:
    """A count or node id as a Python int; TypeError for a bool, float or string."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{key} must be an integer, got {value!r}")


def _node_id(i, n: int) -> int:
    """Node id i of an n-node graph as a Python int; IndexError outside [0, n)."""
    i = _index(i, "node id")
    if not 0 <= i < n:
        raise IndexError(f"node {i} out of range for {n} nodes")
    return i


def _finite(arr: np.ndarray, key: str) -> np.ndarray:
    """arr, if every entry is finite; else ValueError naming key and the first bad index."""
    if np.isfinite(arr).all():
        return arr
    where = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())  # () for a scalar
    at = f" entry at index {where[0] if arr.ndim == 1 else where}" if where else ""
    raise ValueError(f"non-finite {key}{at}")


def _numbers(value, key: str, ndim: int) -> np.ndarray:
    """A JSON number (ndim 0), list (1) or matrix (2) of finite numbers as float64.

    One pass over the entries checks that each is an int or a float, so
    bools and numeric strings are rejected, never coerced. key is the
    value's name in the file, and every error names it.
    """
    arr = np.array(value, dtype=object)
    if arr.ndim != ndim or not set(map(type, arr.flat)) <= {int, float}:
        shape = ("a number", "a list of numbers", "a list of equal-length rows of numbers")[ndim]
        raise ValueError(f"{key} must be {shape}")
    try:
        return _finite(arr.astype(np.float64), key)
    except OverflowError:
        raise ValueError(f"{key} holds an integer too large for a float") from None


def _holds_ids(arr: np.ndarray) -> bool:
    """Whether every entry is a Python or numpy integer, never a bool."""
    kinds = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds)


def _pair_array(edges) -> np.ndarray:
    """Edges given as anything but an ndarray, as an array.

    A list or tuple of int pairs (lists or tuples, [] included) becomes
    (E, 2) int64 after C-speed passes over the pairs and their ids, with no
    object array; anything else an object array, whose bad edge
    _edge_array names.
    """
    pairs = isinstance(edges, (list, tuple)) and set(map(type, edges)) <= {list, tuple}
    if pairs and set(map(len, edges)) <= {2}:
        ids = list(chain.from_iterable(edges))
        if set(map(type, ids)) <= {int}:
            try:
                return np.fromiter(ids, np.int64, len(ids)).reshape(-1, 2)
            except OverflowError:  # an int beyond int64, out of range for any graph
                pass
    return np.array(edges, dtype=object)


def _edge_array(edges, n: int) -> np.ndarray:
    """Distinct pairs of ids in [0, n) as (E, 2) int64; errors name the first bad edge."""
    arr = edges if isinstance(edges, np.ndarray) else _pair_array(edges)
    if arr.ndim != 2 or arr.shape[1] != 2 or not _holds_ids(arr):
        for k, edge in enumerate(arr.tolist() if arr.ndim else ()):
            row = np.array(edge, dtype=object)
            if row.shape != (2,) or not _holds_ids(row):
                raise ValueError(f"edges[{k}] {edge!r} is not a pair of integer node ids")
        raise ValueError(f"edges must be (E, 2) integer ids, got {arr.dtype} shape {arr.shape}")
    try:
        ids = arr.astype(np.int64)
    except OverflowError:  # an int beyond int64, out of range for any graph
        ids = arr
    outside = ((ids < 0) | (ids >= n)).any(axis=1)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"edges[{k}] ({arr[k, 0]}, {arr[k, 1]}) is out of range for {n} nodes")
    key = ids[:, 0] * n + ids[:, 1]
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise ValueError(f"edges[{k}] ({ids[k, 0]}, {ids[k, 1]}) is a duplicate")
    return ids


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed graph on nodes 0..num_nodes-1.

    `edges`, (i, j) pairs or an integer (E, 2) array (even when empty), is
    kept as a read-only (E, 2) int64 array in the given order, which equality
    includes. Counts and ids must be integers, never bools, floats or strings.
    Duplicate edges would be aggregated twice and are rejected; self-loops are
    honored only if listed. `sources` and `offsets` are the read-only int64 CSR view.
    """

    num_nodes: int
    edges: np.ndarray
    sources: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = _index(self.num_nodes, "num_nodes")
        if n <= 0:
            raise ValueError("num_nodes must be positive")
        edges = _edge_array(self.edges, n)
        sources = edges[np.argsort(edges[:, 0], kind="stable"), 1]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(edges[:, 0], minlength=n))))
        object.__setattr__(self, "num_nodes", n)
        for name, arr in (("edges", edges), ("sources", sources), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        same = isinstance(other, Graph) and self.num_nodes == other.num_nodes
        return same and self.edges.tobytes() == other.edges.tobytes()

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.edges.tobytes()))

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Message sources of node i in edge order; TypeError or IndexError for a bad i."""
        i = _node_id(i, self.num_nodes)
        return tuple(self.sources[self.offsets[i] : self.offsets[i + 1]].tolist())


def load_graph(path) -> tuple[Graph, np.ndarray]:
    """Read a graph JSON file; return the topology and the (n, H) feature matrix."""
    with _reading(path, "graph") as raw:
        n = _index(raw["num_nodes"], "num_nodes")
        dim = _index(raw["feature_dim"], "feature_dim")
        features = _numbers(raw["features"], "features", 2)
        if features.shape != (n, dim):
            raise ValueError(f"features has shape {features.shape}, expected ({n}, {dim})")
        graph = Graph(n, raw["edges"])
    features.setflags(write=False)
    return graph, features


def save_graph(path, graph: Graph, features: np.ndarray) -> None:
    """Write the graph JSON file consumed by load_graph; refuse features it would reject."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be a matrix, got shape {features.shape}")
    if features.shape[0] != graph.num_nodes:
        raise ValueError(f"features has {features.shape[0]} rows for {graph.num_nodes} nodes")
    _finite(features, "features")
    payload = {
        "num_nodes": graph.num_nodes,
        "feature_dim": int(features.shape[1]),
        "features": features,
        "edges": graph.edges,
    }
    _write_json(path, payload)


_NUMBERS = {int, float, bool}
# Numbers per call of the C encoder: enough to amortise the call, few enough
# that the text waiting to be written stays a few hundred kilobytes.
_BULK_NUMBERS = 4096


class _Table:
    """A list of records held as columns, record r mapping each key to row r of its
    column: a list or tuple of numbers, a 2-D array, or a pair (values, offsets) of 1-D
    arrays whose row r is values[offsets[r]:offsets[r + 1]]; each is kept as such a pair."""

    def __init__(self, columns: dict) -> None:
        self.columns, self.rows = {}, 0
        for key, column in columns.items():
            if isinstance(column, np.ndarray):
                column = column.reshape(-1), np.arange(len(column) + 1) * column.shape[1]
            elif not (len(column) == 2 and isinstance(column[0], np.ndarray)):
                column = column, None  # numbers
            self.columns[key] = column
            self.rows = len(column[0]) if column[1] is None else len(column[1]) - 1

    def __len__(self) -> int:
        return self.rows


def _write_json(path, payload: dict) -> None:
    """Write payload as json.dump(payload, fh, indent=2) does, plus a newline.

    A numpy array is written as its tolist(), a _Table as its list of records.
    json.dump with an indent runs the pure-Python encoder, value by value; here
    the numbers go in bulk through one compact C encoder,
    json.JSONEncoder(separators=(",", ":")), whose output is split on its commas.
    A numeric leaf (a non-empty list of ints, floats and bools) enters it whole
    and a scalar number on its own; once _BULK_NUMBERS are waiting, one call
    encodes them all, its output is split back into one text per leaf and one
    per scalar, and the text finished so far is written out, so memory stays
    bounded on any payload. The rows of a non-empty 2-D array of bools or
    numbers, and each run of a table's records whose leaves have equal lengths,
    go a block of about _BULK_NUMBERS numbers at a time: one encoder call per
    column, whose texts go by strided slice assignment into one row's layout,
    repeated (a run's is json.dumps of a one-record template). A run of no
    more records than keys, or with no number, goes value by value, as its
    layout would cost more than it saves. Strings, keys (strings only) and the
    layout are written here.
    """
    parts: list = []  # output strings; a number holds its place until encoded
    leaves, leaf_at, scalars, scalar_at = [], [], [], []
    waiting = 0  # numbers in leaves and scalars
    encode = json.JSONEncoder(separators=(",", ":")).encode

    def flush() -> None:
        nonlocal waiting
        # Numbers never hold a comma or a bracket, so the splits are
        # unambiguous; the scalars ride along as the last list.
        *texts, scalar_text = encode([*leaves, scalars])[2:-2].split("],[")
        for at, text in zip(scalar_at, scalar_text.split(",")):
            parts[at] = text
        for at, text in zip(leaf_at, texts):
            inner = "\n" + "  " * (parts[at] + 1)
            parts[at] = "[" + inner + text.replace(",", "," + inner) + "\n" + "  " * parts[at] + "]"
        fh.write("".join(parts))
        for pending in (parts, leaves, leaf_at, scalars, scalar_at):
            pending.clear()
        waiting = 0

    def emit_rows(rows: int, layout: list, columns: list, depth: int) -> None:
        """Write rows list items at depth, layout's texts around the numbers of columns,
        each (width, values, start): its rows, row-major, from values[start] on."""
        slots = len(layout) - 1
        between = [layout[-1] + ",\n" + "  " * depth + layout[0], *layout[1:-1]]
        step = max(1, _BULK_NUMBERS // slots)
        for first in range(0, rows, step):
            count = min(step, rows - first)
            text = [None] * (2 * slots * count)  # each slot's layout text, then its number
            text[::2] = between * count
            slot = iter(range(1, 2 * slots, 2))  # each number's place in a row's texts
            for width, values, start in columns:
                numbers = values[start + first * width : start + (first + count) * width]
                numbers = numbers.tolist() if isinstance(numbers, np.ndarray) else numbers
                texts = encode(numbers)[1:-1].split(",")
                for i in range(width):
                    text[next(slot) :: 2 * slots] = texts[i::width]
            text[0] = text[0] if first else layout[0]
            parts.append("".join(text))
            flush()
        parts.append(layout[-1])

    def emit_table(table, depth: int) -> None:
        """Write a matrix's rows, or a table's records, as list items at depth."""
        if isinstance(table, np.ndarray):
            inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
            layout = ["[" + inner] + ["," + inner] * (table.shape[1] - 1) + [outer + "]"]
            return emit_rows(len(table), layout, [(table.shape[1], table.reshape(-1), 0)], depth)
        # Each record's numbers in each column (1 for a number), and the runs of records alike.
        widths = np.array([np.ones(len(table), int) if o is None else o[1:] - o[:-1]
                           for _, o in table.columns.values()])
        starts = (np.flatnonzero((widths[:, 1:] != widths[:, :-1]).any(axis=0)) + 1).tolist()
        bounds = [0, *starts, len(table)]
        # Offsets as Python ints, which slice faster than numpy's, record by record.
        columns = [(k, v, o if o is None else o.tolist()) for k, (v, o) in table.columns.items()]
        for a, b in zip(bounds, bounds[1:]):
            # A layout pays for a run of more records than keys, if they hold numbers.
            if b - a <= len(columns) or not widths[:, a].any():
                for r in range(a, b):
                    parts.append(",\n" + "  " * depth if r else "")
                    emit({key: values[r] if o is None else values[o[r] : o[r + 1]]
                          for key, values, o in columns}, depth)
                continue
            run = [(*column, w) for column, w in zip(columns, widths[:, a].tolist())]
            template = {key: None if o is None else [None] * w for key, _, o, w in run}
            # Keys escape their newlines, so a null before a newline is a number's place.
            dumped = json.dumps(template, indent=2).replace("\n", "\n" + "  " * depth)
            parts.append(",\n" + "  " * depth if a else "")
            numbers = [(w, values, a if o is None else o[a]) for _, values, o, w in run if w]
            emit_rows(b - a, re.split(r"null(?=,?\n)", dumped), numbers, depth)

    def emit(value, depth: int) -> None:
        nonlocal waiting
        if waiting >= _BULK_NUMBERS:
            flush()
        if isinstance(value, np.ndarray):
            if not (value.ndim == 2 and value.size and value.dtype.kind in "biuf"):
                value = value.tolist()
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        elif value is None:
            parts.append("null")
        elif isinstance(value, (int, float)):
            scalar_at.append(len(parts))
            parts.append(None)
            scalars.append(value)
            waiting += 1
        elif isinstance(value, (list, tuple)) and value and set(map(type, value)) <= _NUMBERS:
            leaf_at.append(len(parts))
            parts.append(depth)
            leaves.append(value)
            waiting += len(value)
        elif isinstance(value, (list, tuple, dict, np.ndarray, _Table)):
            is_dict = isinstance(value, dict)
            if not len(value):
                parts.append("{}" if is_dict else "[]")
                return
            inner = "\n" + "  " * (depth + 1)
            parts.append(("{" if is_dict else "[") + inner)
            separator = "," + inner
            if isinstance(value, (np.ndarray, _Table)):
                emit_table(value, depth + 1)
                value = ()
            for k, item in enumerate(value.items() if is_dict else value):
                if k:
                    parts.append(separator)
                if is_dict:
                    parts.append(encode_basestring_ascii(item[0]) + ": ")
                    item = item[1]
                emit(item, depth + 1)
            parts.append("\n" + "  " * depth + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    with open(path, "w", encoding="utf-8") as fh:
        emit(payload, 0)
        flush()
        fh.write("\n")
