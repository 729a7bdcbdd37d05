"""Dataset ingestion: edge/label file parsing, statistics, synthetic graphs.

Both sources give the network alone (a `MultiLabelGraph`); the model's
input features are built from the train config by `training`.

File formats are one record per line. Edge files carry ``src<delim>dst``
with an optional third weight field; label files carry ``node<delim>label``.
Lines starting with '#' are comments; the delimiter is auto-detected among
comma, tab and whitespace unless forced.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .graph import MultiLabelGraph
from .matrices import SparseMatrix
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

    def canonical(self) -> str:
        return (f"synthetic:k={self.communities},size={self.community_size},"
                f"p_intra={self.p_intra!r},p_inter={self.p_inter!r},"
                f"rho={self.rho!r},seed={self.seed}")


def _records(stream: TextIO | Iterable[str] | str, delimiter: str | None,
             arity: tuple[int, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) for every record line: lines are
    stripped, blank and '#' lines skipped, and the field count checked."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    expected = " or ".join(map(str, arity))
    for no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        sep = delimiter
        if sep is None:
            sep = "\t" if "\t" in line else "," if "," in line else None
        fields = line.split(sep)
        if "" in fields:
            fields = [f for f in fields if f]
        if len(fields) not in arity:
            raise ParseError(no, f"expected {expected} fields, got {len(fields)}")
        yield no, fields


def parse_edge_list(stream, node_index: dict[str, int],
                    delimiter: str | None = None):
    """Parse an edge file into undirected weighted records.

    Node ids get indices through `node_index`, new ids appended in order of
    first appearance. Returns (src, dst, weight) arrays, one entry per line
    that is not a self-loop; a missing weight defaults to 1.0. Repeated
    pairs stay repeated here: `_assemble_graph` sums them.
    """
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    index = node_index.setdefault
    for no, fields in _records(stream, delimiter, (2, 3)):
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
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(weight, dtype=np.float64))


def parse_label_assignments(stream, node_index: dict[str, int],
                            label_index: dict[str, int],
                            delimiter: str | None = None):
    """Parse a label file into (node, label) index arrays, one entry per
    line, with ids indexed through `node_index` and `label_index` as in
    `parse_edge_list`."""
    nodes: list[int] = []
    labels: list[int] = []
    node, label = node_index.setdefault, label_index.setdefault
    for _, (v, lab) in _records(stream, delimiter, (2,)):
        nodes.append(node(v, len(node_index)))
        labels.append(label(lab, len(label_index)))
    return np.array(nodes, dtype=np.int64), np.array(labels, dtype=np.int64)


def _assemble_graph(node_ids, label_ids, edges, pairs) -> MultiLabelGraph:
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
        label_ids=tuple(label_ids))


def _parse_file(path, parse, *args):
    """`parse(stream, *args)` over the file at `path`; a ParseError is
    re-raised naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh, *args)
        except ParseError as exc:
            raise ParseError(exc.line_no, exc.message, path) from None


def load_dataset(edge_path, label_path,
                 delimiter: str | None = None) -> MultiLabelGraph:
    """Load a graph from an edge file plus a label file.

    External ids map to dense indices in first-appearance order (edge file
    first); nodes present only in the label file become isolated nodes.
    """
    node_index: dict[str, int] = {}
    label_index: dict[str, int] = {}
    edges = _parse_file(edge_path, parse_edge_list, node_index, delimiter)
    pairs = _parse_file(label_path, parse_label_assignments, node_index,
                        label_index, delimiter)
    if not label_index:
        raise ValueError("no labels")
    return _assemble_graph(list(node_index), list(label_index), edges, pairs)


def dataset_stats(g: MultiLabelGraph) -> DatasetStats:
    """Node/edge/label counts plus the number of co-occurring label pairs."""
    edge_count = g.adjacency.nnz // 2
    # B is nonnegative, so no entry of the co-occurrence counts B^T B
    # cancels to zero: each co-occurring pair is one nonzero on each side
    # of the diagonal
    b = g.label_assignments
    cooc = b.T @ b
    pairs = (cooc.nnz - np.count_nonzero(cooc.diagonal())) // 2
    return DatasetStats(g.node_count, edge_count, g.label_count, int(pairs))


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

    iu, ju = np.triu_indices(n, k=1)
    comm = np.arange(n) // size
    same = comm[iu] == comm[ju]
    prob = np.where(same, config.p_intra, config.p_inter)
    keep = rng.random(iu.size) < prob
    ei, ej = iu[keep], ju[keep]

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
                           (index[members], labels))
