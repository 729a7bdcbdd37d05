"""The multi-label network, the split container, and structural validation.

A `MultiLabelGraph` holds what the input files describe: adjacency, label
assignments and ids. Input features are a modelling choice and belong to
the model (`training.input_features`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import SparseMatrix

__all__ = ["MultiLabelGraph", "DataSplit", "validate_graph"]


@dataclass(frozen=True)
class MultiLabelGraph:
    """A weighted undirected graph whose nodes carry label sets.

    `adjacency` is the n x n symmetric weight matrix with zero diagonal,
    `label_assignments` the n x m binary membership matrix, and the ids map
    indices back to the input's node and label names. The graph is the
    network only: the model's input features are built by `training`.
    """

    node_count: int
    label_count: int
    adjacency: SparseMatrix
    label_assignments: SparseMatrix
    node_ids: tuple[str, ...] = field(repr=False)
    label_ids: tuple[str, ...] = field(repr=False)
    # "parsed", "cache" or "synthetic": how it was obtained, not the network
    source: str | None = field(default=None, compare=False)

    def label_indicators(self) -> np.ndarray:
        """The label assignments as a dense n x m bool array, True at each
        stored entry, made without a float64 dense copy; float arithmetic
        reads True and False as exactly 1.0 and 0.0."""
        return self.label_assignments.astype(bool).toarray()


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/validation/test node index sets covering all nodes."""

    train_nodes: np.ndarray
    val_nodes: np.ndarray
    test_nodes: np.ndarray

    def sizes(self) -> dict[str, int]:
        return {"train": self.train_nodes.size, "val": self.val_nodes.size,
                "test": self.test_nodes.size}


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

    if len(g.node_ids) != g.node_count:
        report.append("node id count mismatch")
    if len(g.label_ids) != g.label_count:
        report.append("label id count mismatch")
    return report
