"""Stratified graph construction and normalized propagation operators.

Two composite views of one multi-label graph:

* node-node-label: the original n x n structure with label nodes appended as
  attributes of their member nodes (nodes-first layout);
* label-label-node: labels linked by co-occurrence with member nodes
  appended as attributes (labels-first layout).

Each view yields a truncated symmetric-normalized operator over the full
composite index space plus an intra-block operator over the primary block
alone (with its own self-loops and degrees).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import MultiLabelGraph
from .matrices import SparseMatrix

__all__ = [
    "NormalizedOperator", "GraphOperators", "build_label_cooccurrence",
    "build_node_node_label_adj", "build_label_label_node_adj",
    "normalize_symmetric", "build_operators", "operator_sizes",
]


@dataclass(frozen=True)
class NormalizedOperator:
    """Propagation operators for one view: `truncated` keeps the primary
    block's rows of the normalized composite matrix; `intra` is the
    independently normalized primary-block adjacency."""

    truncated: SparseMatrix
    intra: SparseMatrix


@dataclass(frozen=True)
class GraphOperators:
    """Everything the two convolution stacks need, prebuilt once per run."""

    label: NormalizedOperator   # truncated: m x (n+m), intra: normalized co-occurrence
    node: NormalizedOperator    # truncated: n x (n+m), intra: normalized adjacency
    cooccurrence: SparseMatrix  # raw m x m counts (or binarized)


def build_label_cooccurrence(b: SparseMatrix, binarize: bool = False) -> SparseMatrix:
    """Co-occurrence counts C[r,s] = #nodes carrying both labels r and s.

    Equals B^T B with the diagonal removed; symmetric by construction. With
    `binarize`, counts collapse to 0/1 indicators.
    """
    c = b.T @ b
    c = SparseMatrix(c - sp.diags(c.diagonal()))
    if binarize:
        c.data[:] = 1.0
    return c


def build_node_node_label_adj(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Nodes-first (n+m) x (n+m) composite [[A, B], [B^T, 0]]."""
    return SparseMatrix(sp.bmat([[a, b], [b.T, None]], format="csr"))


def build_label_label_node_adj(c: SparseMatrix, b: SparseMatrix,
                               include_node_attrs: bool = True) -> SparseMatrix:
    """Labels-first (m+n) x (m+n) composite [[C, B^T], [B, 0]].

    `include_node_attrs=False` empties the cross blocks, leaving labels
    connected through co-occurrence alone.
    """
    cross = b.T if include_node_attrs else SparseMatrix(b.T.shape)
    return SparseMatrix(sp.bmat([[c, cross], [cross.T, None]], format="csr"))


def normalize_symmetric(m: SparseMatrix) -> SparseMatrix:
    """D^{-1/2} (M + I) D^{-1/2} with D the degree matrix of M + I.

    Self-loops guarantee every degree is at least 1, so no division by zero.
    Each entry is scaled by the product of its two factors, formed first,
    so symmetric inputs stay bitwise symmetric.
    """
    out = SparseMatrix(m + sp.identity(m.shape[0], format="csr"))
    degree = out @ np.ones(out.shape[1])
    inv_sqrt = 1.0 / np.sqrt(degree)
    row_scale = np.repeat(inv_sqrt, np.diff(out.indptr))
    out.data = out.data * (row_scale * inv_sqrt[out.indices])
    return out


def build_operators(g: MultiLabelGraph, variant: str = "full",
                    binarize_cooccurrence: bool = False) -> GraphOperators:
    """Build both views' operators for a graph under a model variant.

    Variant "node" removes the common-node attributes from the label view,
    so the label operator's cross-block columns are all zero.
    """
    a, b = g.adjacency, g.label_assignments
    c = build_label_cooccurrence(b, binarize_cooccurrence)

    e = build_node_node_label_adj(a, b)
    node_trunc = SparseMatrix(normalize_symmetric(e)[:g.node_count])
    node_intra = normalize_symmetric(a)

    f = build_label_label_node_adj(c, b, include_node_attrs=(variant != "node"))
    label_trunc = SparseMatrix(normalize_symmetric(f)[:g.label_count])
    label_intra = normalize_symmetric(c)

    return GraphOperators(
        label=NormalizedOperator(truncated=label_trunc, intra=label_intra),
        node=NormalizedOperator(truncated=node_trunc, intra=node_intra),
        cooccurrence=c,
    )


def operator_sizes(operators: GraphOperators) -> dict[str, dict[str, int]]:
    """nnz and index bytes (``indptr`` plus ``indices``) of each view's two
    propagation operators, keyed ``{view}_{name}``."""
    sizes = {}
    for view in ("node", "label"):
        for name in ("truncated", "intra"):
            op = getattr(getattr(operators, view), name)
            sizes[f"{view}_{name}"] = {
                "nnz": int(op.nnz),
                "index_bytes": int(op.indptr.nbytes + op.indices.nbytes)}
    return sizes
