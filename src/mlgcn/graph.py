"""Multi-label graph container, split container, and structural validation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import SparseMatrix

__all__ = ["MultiLabelGraph", "DataSplit", "validate_graph", "one_hot_features"]


@dataclass(frozen=True)
class MultiLabelGraph:
    """A weighted undirected graph whose nodes carry label sets.

    `adjacency` is the n x n symmetric weight matrix with zero diagonal,
    `label_assignments` the n x m binary membership matrix, and
    `node_features` / `label_features` share one feature dimension so the
    two stacked feature matrices used downstream type-check.
    """

    node_count: int
    label_count: int
    adjacency: SparseMatrix
    label_assignments: SparseMatrix
    node_features: np.ndarray = field(repr=False)
    label_features: np.ndarray = field(repr=False)
    node_ids: tuple[str, ...] = field(repr=False)
    label_ids: tuple[str, ...] = field(repr=False)

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/validation/test node index sets covering all nodes."""

    train_nodes: np.ndarray
    val_nodes: np.ndarray
    test_nodes: np.ndarray

    def sizes(self) -> dict[str, int]:
        return {"train": self.train_nodes.size, "val": self.val_nodes.size,
                "test": self.test_nodes.size}


def one_hot_features(total: int, dim: int, offset: int) -> np.ndarray:
    """One-hot feature rows occupying a contiguous column slice.

    Row r gets a single 1.0 at column offset+r, so nodes and labels can share
    one combined identity space while staying on disjoint slices.
    """
    if offset + total > dim:
        raise ValueError("feature offset out of range")
    out = np.zeros((total, dim))
    out[np.arange(total), offset + np.arange(total)] = 1.0
    return out


def validate_graph(g: MultiLabelGraph) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the graph is valid. Violations are data, not errors:
    each message names the invariant and the offending index.
    """
    report: list[str] = []
    a, b = g.adjacency, g.label_assignments

    if a.shape != (g.node_count, g.node_count):
        report.append(f"adjacency shape {a.shape} != ({g.node_count}, {g.node_count})")
        return report
    if b.shape != (g.node_count, g.label_count):
        report.append(f"label matrix shape {b.shape} != ({g.node_count}, {g.label_count})")
        return report

    entries = a.tocoo()
    for i in entries.row[entries.row == entries.col]:
        report.append(f"self-loop at node {i}")
    for k in np.flatnonzero(entries.data <= 0):
        report.append(f"nonpositive weight at ({entries.row[k]}, {entries.col[k]})")

    # a pair is asymmetric if its weights differ or only one side is stored
    stored = SparseMatrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    asymmetric = ((a != a.T) + (stored != stored.T)).tocoo()
    upper = asymmetric.row < asymmetric.col
    for i, j in zip(asymmetric.row[upper], asymmetric.col[upper]):
        report.append(f"asymmetric edge ({i},{j})")

    labels = b.tocoo()
    bad = (labels.data != 1.0) & (labels.data != 0.0)
    for k in np.flatnonzero(bad):
        report.append(f"non-binary label entry ({labels.row[k]}, {labels.col[k]})")
    members = np.bincount(labels.col[labels.data == 1.0], minlength=g.label_count)
    for r in np.flatnonzero(members == 0):
        report.append(f"orphan label {r}")

    if g.node_features.shape[0] != g.node_count:
        report.append(f"node feature rows {g.node_features.shape[0]} != node count {g.node_count}")
    if g.label_features.shape[0] != g.label_count:
        report.append(f"label feature rows {g.label_features.shape[0]} != label count {g.label_count}")
    if g.node_features.shape[1] != g.label_features.shape[1]:
        report.append(
            f"feature dimension mismatch: nodes {g.node_features.shape[1]} "
            f"vs labels {g.label_features.shape[1]}")
    for name, feats in (("node", g.node_features), ("label", g.label_features)):
        if not np.all(np.isfinite(feats)):
            report.append(f"non-finite {name} features")

    if len(g.node_ids) != g.node_count:
        report.append("node id count mismatch")
    if len(g.label_ids) != g.label_count:
        report.append("label id count mismatch")
    return report
