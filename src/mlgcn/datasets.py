"""Dataset ingestion: edge/label file parsing, statistics, synthetic graphs.

Both sources give the network alone (a `MultiLabelGraph`); the model's
input features are built from the train config by `training`.

File formats are one record per line. Edge files carry ``src<delim>dst``
with an optional third weight field; label files carry ``node<delim>label``.
Lines starting with '#' are comments; the delimiter is auto-detected among
comma, tab and whitespace unless forced. The parsers read a stream whole
and go through it line by line (`_records`); `load_dataset` keeps the
parsed graph in a sidecar file, so a pair of files is parsed once.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .files import replacing
from .graph import MultiLabelGraph
from .matrices import SparseMatrix
from .operators import build_label_cooccurrence
from .rng import rng_stream

__all__ = [
    "DatasetStats", "SyntheticConfig", "ParseError",
    "parse_edge_list", "parse_label_assignments", "load_dataset",
    "dataset_stats", "generate_synthetic",
]


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number and, once
    `load_dataset` re-raises it, the path of the file it is in."""

    def __init__(self, line_no: int, message: str, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no, self.message = line_no, message


@dataclass(frozen=True)
class DatasetStats:
    node_count: int
    edge_count: int
    label_count: int
    cooccurrence_count: int


@dataclass(frozen=True)
class SyntheticConfig:
    """Planted-partition generator with one home label per community and,
    with probability `rho`, a second correlated label paired to it."""

    communities: int = 2
    community_size: int = 100
    p_intra: float = 0.06
    p_inter: float = 0.02
    rho: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.communities < 2:
            raise ValueError("need at least 2 communities")
        if self.community_size < 1:
            raise ValueError("community_size must be positive")
        for name in ("p_intra", "p_inter", "rho"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# size in characters of the pieces `_records` cuts a text into at line ends
_PIECE = 1 << 16


def _pieces(text: str) -> Iterator[str]:
    """Cut `text` into runs of whole lines of about `_PIECE` characters,
    each without its last line's newline, so that splitting every piece at
    "\n" lists the lines of `text` in order."""
    stop = len(text) - text.endswith("\n")
    start = 0
    while start < stop:
        end = text.find("\n", start + _PIECE, stop)
        if end < 0:
            end = stop
        yield text[start:end]
        start = end + 1


def _records(text: str, delimiter: str | None,
             arity: tuple[int, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) for every record line: lines are
    stripped, blank and '#' lines skipped, spaces around a separator
    dropped, empty fields skipped, the field count checked, and a tab
    inside a field refused (it would make the tab-separated outputs ragged).
    This loop defines the file grammar and every `ParseError`."""
    expected = " or ".join(map(str, arity))
    # beside a forced separator other than a tab, tabs are padding too
    pad = " \t" if delimiter not in (None, "\t") else " "
    lines = chain.from_iterable(p.split("\n") for p in _pieces(text))
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        sep = delimiter
        if sep is None:
            sep = "\t" if "\t" in line else "," if "," in line else None
        fields = line.split(sep)
        if sep is not None and (" " in line or pad != " " and "\t" in line):
            fields = [f.strip(pad) for f in fields]
            if pad != " " and any("\t" in f for f in fields):
                raise ParseError(no, "a tab inside a field")
        if "" in fields:
            fields = [f for f in fields if f]
        if len(fields) not in arity:
            raise ParseError(no, f"expected {expected} fields, got {len(fields)}")
        yield no, fields


def _text(stream: TextIO | str) -> str:
    return stream if isinstance(stream, str) else stream.read()


def parse_edge_list(stream: TextIO | str, node_index: dict[str, int],
                    delimiter: str | None = None):
    """Parse an edge file into undirected weighted records.

    Node ids get indices through `node_index`, new ids appended in order of
    first appearance. Returns (src, dst, weight) arrays, int32, int32 and
    float64, one entry per line that is not a self-loop; a missing weight
    defaults to 1.0. Repeated pairs stay repeated here: `_assemble_graph`
    sums them. The stream is read whole.
    """
    text = _text(stream)
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    index = node_index.setdefault
    for no, fields in _records(text, delimiter, (2, 3)):
        w = 1.0
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(no, f"bad weight {fields[2]!r}") from None
            if not math.isfinite(w) or w <= 0:
                raise ParseError(no, "nonpositive edge weight")
        a, b = fields[0], fields[1]
        if a == b:
            continue
        src.append(index(a, len(node_index)))
        dst.append(index(b, len(node_index)))
        weight.append(w)
    return (np.array(src, dtype=np.int32), np.array(dst, dtype=np.int32),
            np.array(weight, dtype=np.float64))


def parse_label_assignments(stream: TextIO | str, node_index: dict[str, int],
                            label_index: dict[str, int],
                            delimiter: str | None = None):
    """Parse a label file into (node, label) int32 index arrays, one entry
    per line, with ids indexed through `node_index` and `label_index` as in
    `parse_edge_list`, which also reads its stream."""
    text = _text(stream)
    nodes: list[int] = []
    labels: list[int] = []
    node, label = node_index.setdefault, label_index.setdefault
    for _, (v, lab) in _records(text, delimiter, (2,)):
        nodes.append(node(v, len(node_index)))
        labels.append(label(lab, len(label_index)))
    return np.array(nodes, dtype=np.int32), np.array(labels, dtype=np.int32)


def _assemble_graph(node_ids, label_ids, edges, pairs, source=None) -> MultiLabelGraph:
    """Build the graph from index arrays: `edges` is (src, dst, weight) with
    repeated pairs summed here, `pairs` is (node, label) with repeats
    counted once."""
    n, m = len(node_ids), len(label_ids)
    src, dst, weight = edges
    # summing each pair once, in the upper triangle, puts the very same
    # float on both sides of the diagonal
    upper = SparseMatrix.from_coo(n, n, np.minimum(src, dst),
                                  np.maximum(src, dst), weight)
    adjacency = SparseMatrix(upper + upper.T)
    members, labels = pairs
    assignments = SparseMatrix.from_coo(n, m, members, labels,
                                        np.ones(members.size))
    assignments.data[:] = 1.0
    return MultiLabelGraph(
        node_count=n, label_count=m, adjacency=adjacency,
        label_assignments=assignments, node_ids=tuple(node_ids),
        label_ids=tuple(label_ids), source=source)


def _decode(data: bytes) -> str:
    """A file's bytes as text-mode reading gives them (strict UTF-8,
    universal newlines), less a leading UTF-8 byte-order mark."""
    return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")


def _parse_file(path, text: str, parse, *args):
    """`parse(text, *args)` over the decoded text of the file at `path`; a
    ParseError is re-raised naming the file."""
    try:
        return parse(text, *args)
    except ParseError as exc:
        raise ParseError(exc.line_no, exc.message, path) from None


@functools.cache
def _code_digest() -> bytes | None:
    """A digest of the source that decides the parsed graph and the
    sidecar's layout, so that a change to it misses every older sidecar;
    None where the source cannot be read (a bytecode-only or zipped
    install), which parses every load and keeps no sidecar."""
    try:
        return hashlib.sha256(b"".join(
            Path(__file__).with_name(name).read_bytes()
            for name in ("datasets.py", "graph.py", "matrices.py"))).digest()
    except OSError:
        return None


def _sidecar_key(files: list[bytes], delimiter: str | None) -> bytes | None:
    """The key of the code, `delimiter` and `files`; None without the code."""
    code = _code_digest()
    if code is None:
        return None
    h = hashlib.sha256(b"%s%a %d %d\n" % (code, delimiter, *map(len, files)))
    for data in files:
        h.update(data)
    return h.digest()


_MATRICES = ("adjacency", "label_assignments")


def _read_sidecar(path: str, key: bytes) -> MultiLabelGraph | None:
    """The graph stored at `path` under `key`, checked in full, or None."""
    try:
        # np.load leaves a file it opened open when the archive is broken
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as s:
            if s["key"].tobytes() != key:
                return None
            # ids are stored "\n"-joined: no id holds a line end
            ids = [tuple(s[name].tobytes().decode().split("\n"))
                   for name in ("node_ids", "label_ids")]
            n, m = map(len, ids)
            a, b = (SparseMatrix((s[f"{name}_data"], s[f"{name}_indices"],
                                  s[f"{name}_indptr"]), shape=shape)
                    for name, shape in zip(_MATRICES, ((n, n), (n, m))))
            a.check_format(full_check=True)
            b.check_format(full_check=True)
    except Exception:  # zipfile and numpy raise many types on a bad file
        return None
    if a.dtype == b.dtype == np.float64:
        return MultiLabelGraph(n, m, a, b, *ids, source="cache")
    return None


def _write_sidecar(path: str, key: bytes, g: MultiLabelGraph) -> None:
    """Store `g` under `key` at `path` through a temporary file; a failed
    write is ignored and leaves no file behind."""
    arrays = {f"{name}_{part}": getattr(getattr(g, name), part)
              for name in _MATRICES for part in ("data", "indices", "indptr")}
    for name in ("node_ids", "label_ids"):
        arrays[name] = np.frombuffer("\n".join(getattr(g, name)).encode(), np.uint8)
    with contextlib.suppress(OSError), replacing(path) as fh:
        np.savez(fh, key=np.frombuffer(key, np.uint8), **arrays)


def load_dataset(edge_path, label_path,
                 delimiter: str | None = None) -> MultiLabelGraph:
    """Load a graph from an edge file plus a label file.

    External ids map to dense indices in first-appearance order (edge file
    first); nodes present only in the label file become isolated nodes.
    The graph is read from the sidecar `<edge_path>.mlgcn-graph.npz` while
    that holds the key of the code, `delimiter` and both files' bytes;
    otherwise the files are parsed and a sidecar is written (neither without
    the code's source, see `_code_digest`).
    """
    files = [Path(edge_path).read_bytes(), Path(label_path).read_bytes()]
    key = _sidecar_key(files, delimiter)
    sidecar = os.fspath(edge_path) + ".mlgcn-graph.npz"
    graph = None if key is None else _read_sidecar(sidecar, key)
    if graph is not None:
        return graph
    # no bytes are kept through the parse, whose peak is the command's
    texts = [_decode(data) for data in files]
    del files
    node_index: dict[str, int] = {}
    label_index: dict[str, int] = {}
    edges = _parse_file(edge_path, texts.pop(0), parse_edge_list, node_index,
                        delimiter)
    pairs = _parse_file(label_path, texts.pop(0), parse_label_assignments,
                        node_index, label_index, delimiter)
    if not label_index:
        raise ValueError("no labels")
    graph = _assemble_graph(list(node_index), list(label_index), edges, pairs,
                            "parsed")
    if key is not None:
        _write_sidecar(sidecar, key, graph)
    return graph


def dataset_stats(g: MultiLabelGraph) -> DatasetStats:
    """Node/edge/label counts plus the number of co-occurring label pairs,
    each of which is one stored count on either side of the diagonal."""
    pairs = build_label_cooccurrence(g.label_assignments).nnz // 2
    return DatasetStats(g.node_count, g.adjacency.nnz // 2, g.label_count,
                        pairs)


# upper-triangle pairs a block of `_upper_pairs`; keeps the generator's
# memory to a few blocks' arrays instead of arrays over all n^2/2 pairs
_PAIR_BLOCK = 1 << 20


def _upper_pairs(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (i, j) with i < j < n in row-major order, as (i, j) arrays
    over blocks of whole rows holding at most `_PAIR_BLOCK` pairs (or one
    row, when a row alone holds more)."""
    done = np.cumsum(np.arange(n - 1, 0, -1))  # pairs in rows 0..r
    r0 = 0
    while r0 < n - 1:
        before = int(done[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(done, before + _PAIR_BLOCK,
                                             side="right")))
        i, j = np.triu_indices(r1 - r0, 1, n - r0)
        i += r0
        j += r0
        yield i, j
        r0 = r1


def generate_synthetic(config: SyntheticConfig) -> MultiLabelGraph:
    """Generate a planted-partition multi-label graph.

    Community c's members all carry home label c and, with probability
    `rho`, community c's paired correlated label, so label co-occurrence is
    nonzero by construction. Labels that end up with no members (rho = 0)
    are dropped. Deterministic for a fixed seed.
    """
    k, size = config.communities, config.community_size
    n = k * size
    rng = rng_stream(config.seed, "synthetic")

    comm = np.arange(n) // size
    kept_i, kept_j = [], []
    # one draw a pair, in row-major order: consecutive draws give the
    # values of one draw over all pairs
    for iu, ju in _upper_pairs(n):
        prob = np.where(comm[iu] == comm[ju], config.p_intra, config.p_inter)
        keep = rng.random(iu.size) < prob
        kept_i.append(iu[keep])
        kept_j.append(ju[keep])
    ei, ej = np.concatenate(kept_i), np.concatenate(kept_j)

    extra = rng.random(n) < config.rho

    # node order as if read from files: first appearance among the kept
    # edges, then the nodes no edge touches (sorted last), in index order
    ends = np.column_stack([ei, ej]).ravel()
    first = np.full(n, ends.size)
    np.minimum.at(first, ends, np.arange(ends.size))
    order = np.argsort(first, kind="stable")
    index = np.argsort(order)
    # labels as if read from files: every home label, then the correlated
    # labels that have members, by community
    corr = np.unique(comm[extra])
    members = np.concatenate([np.arange(n), np.flatnonzero(extra)])
    labels = np.concatenate([comm, k + np.searchsorted(corr, comm[extra])])
    label_ids = [f"home{c}" for c in range(k)] + [f"corr{c}" for c in corr]

    edges = (index[ei], index[ej], np.ones(ei.size))
    return _assemble_graph([str(i) for i in order], label_ids, edges,
                           (index[members], labels), "synthetic")
