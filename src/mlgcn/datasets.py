"""Dataset ingestion: edge/label file parsing, statistics, synthetic graphs.

File formats are one record per line. Edge files carry ``src<delim>dst``
with an optional third weight field; label files carry ``node<delim>label``.
Lines starting with '#' are comments; the delimiter is auto-detected among
comma, tab and whitespace unless forced.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .graph import MultiLabelGraph, one_hot_features
from .matrices import SparseMatrix
from .rng import rng_stream

__all__ = [
    "DatasetStats", "FeatureConfig", "SyntheticConfig", "ParseError",
    "parse_edge_list", "parse_label_assignments", "load_dataset",
    "dataset_stats", "generate_synthetic",
]


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DatasetStats:
    node_count: int
    edge_count: int
    label_count: int
    cooccurrence_count: int


@dataclass(frozen=True)
class FeatureConfig:
    """Initial feature choice: combined one-hot (default) or seeded Gaussian.

    One-hot uses the joint node+label index space (d = n + m, nodes on the
    leading columns). Gaussian draws n x dim and m x dim blocks from the
    'features' stream of `seed`, for bounding memory on large graphs.
    """

    kind: str = "one_hot"
    dim: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("one_hot", "gaussian"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "gaussian" and self.dim < 1:
            raise ValueError("gaussian features need dim >= 1")


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


def _lines(stream: TextIO | Iterable[str]) -> Iterable[tuple[int, str]]:
    for no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def _split(line: str, delimiter: str | None) -> list[str]:
    if delimiter is not None:
        return [f for f in line.split(delimiter) if f != ""]
    if "\t" in line:
        return [f for f in line.split("\t") if f != ""]
    if "," in line:
        return [f for f in line.split(",") if f != ""]
    return line.split()


def parse_edge_list(stream, delimiter: str | None = None):
    """Parse an edge file into undirected weighted records.

    Returns (edges, merged_duplicates, self_loops_dropped) where edges is a
    list of (src, dst, weight) with string ids. A missing weight defaults to
    1.0; duplicate undirected pairs are merged by summing weights; self-loops
    are dropped and counted.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    order: list[tuple[str, str]] = []
    weight: dict[tuple[str, str], float] = {}
    merged = 0
    self_loops = 0
    for no, line in _lines(stream):
        fields = _split(line, delimiter)
        if len(fields) not in (2, 3):
            raise ParseError(no, f"expected 2 or 3 fields, got {len(fields)}")
        src, dst = fields[0], fields[1]
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(no, f"bad weight {fields[2]!r}") from None
        else:
            w = 1.0
        if not math.isfinite(w) or w <= 0:
            raise ParseError(no, "nonpositive edge weight")
        if src == dst:
            self_loops += 1
            continue
        key = (src, dst) if (src, dst) in weight else (dst, src)
        if key in weight:
            weight[key] += w
            merged += 1
        else:
            key = (src, dst)
            weight[key] = w
            order.append(key)
    edges = [(s, d, weight[(s, d)]) for s, d in order]
    return edges, merged, self_loops


def parse_label_assignments(stream, delimiter: str | None = None):
    """Parse a label file into distinct (node id, label id) pairs."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    seen: set[tuple[str, str]] = set()
    pairs: list[tuple[str, str]] = []
    for no, line in _lines(stream):
        fields = _split(line, delimiter)
        if len(fields) != 2:
            raise ParseError(no, f"expected 2 fields, got {len(fields)}")
        pair = (fields[0], fields[1])
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def _build_features(n: int, m: int, config: FeatureConfig):
    if config.kind == "one_hot":
        d = n + m
        return one_hot_features(n, d, 0), one_hot_features(m, d, n)
    rng = rng_stream(config.seed, "features")
    scale = 1.0 / np.sqrt(config.dim)
    x = rng.normal(0.0, scale, size=(n, config.dim))
    y = rng.normal(0.0, scale, size=(m, config.dim))
    return x, y


def _assemble_graph(edges, pairs, features: FeatureConfig) -> MultiLabelGraph:
    node_index: dict[str, int] = {}
    for s, d, _ in edges:
        for v in (s, d):
            if v not in node_index:
                node_index[v] = len(node_index)
    label_index: dict[str, int] = {}
    for v, lab in pairs:
        if v not in node_index:
            node_index[v] = len(node_index)
        if lab not in label_index:
            label_index[lab] = len(label_index)
    n, m = len(node_index), len(label_index)

    ei = np.array([node_index[s] for s, _, _ in edges], dtype=np.int64)
    ej = np.array([node_index[d] for _, d, _ in edges], dtype=np.int64)
    ew = np.array([w for _, _, w in edges])
    adjacency = SparseMatrix.from_coo(
        n, n, np.concatenate([ei, ej]), np.concatenate([ej, ei]),
        np.concatenate([ew, ew]))

    bi = np.array([node_index[v] for v, _ in pairs], dtype=np.int64)
    bj = np.array([label_index[lab] for _, lab in pairs], dtype=np.int64)
    assignments = SparseMatrix.from_coo(n, m, bi, bj, np.ones(len(pairs)))

    x, y = _build_features(n, m, features)
    return MultiLabelGraph(
        node_count=n, label_count=m, adjacency=adjacency,
        label_assignments=assignments, node_features=x, label_features=y,
        node_ids=tuple(node_index), label_ids=tuple(label_index))


def load_dataset(edge_path, label_path, features: FeatureConfig | None = None,
                 delimiter: str | None = None) -> MultiLabelGraph:
    """Load a graph from an edge file plus a label file.

    External ids map to dense indices in first-appearance order (edge file
    first); nodes present only in the label file become isolated nodes.
    """
    with open(edge_path, "r", encoding="utf-8") as fh:
        edges, _, _ = parse_edge_list(fh, delimiter)
    with open(label_path, "r", encoding="utf-8") as fh:
        pairs = parse_label_assignments(fh, delimiter)
    if not pairs:
        raise ValueError("no labels")
    return _assemble_graph(edges, pairs, features or FeatureConfig())


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


def generate_synthetic(config: SyntheticConfig,
                       features: FeatureConfig | None = None) -> MultiLabelGraph:
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

    node_ids = [str(i) for i in range(n)]
    edges = [(node_ids[i], node_ids[j], 1.0) for i, j in zip(ei, ej)]
    pairs: list[tuple[str, str]] = []
    for i in range(n):
        pairs.append((node_ids[i], f"home{comm[i]}"))
    for i in range(n):
        if extra[i]:
            pairs.append((node_ids[i], f"corr{comm[i]}"))

    if features is None:
        features = FeatureConfig()
    g = _assemble_graph(edges, pairs, features)
    # _assemble_graph appends label-file-only nodes; the home-label pass
    # covers every node, so node order stays 0..n-1 even for isolated nodes.
    return g
