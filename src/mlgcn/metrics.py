"""Split protocol, multi-label decision rules, and Micro/Macro-F1.

Micro-F1 pools true-positive/false-positive/false-negative counts across
labels; Macro-F1 averages per-label F1, with a zero-denominator label
contributing F1 = 0 (this convention matters for rare labels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DataSplit, MultiLabelGraph
from .kernels import sigmoid
from .matrices import SparseMatrix, index_array
from .operators import build_label_cooccurrence
from .rng import rng_stream

__all__ = [
    "LabelScore", "EvaluationReport", "split_dataset", "predict_labels",
    "compute_f1", "per_label_breakdown", "label_correlation_matrix",
    "evaluate",
]


@dataclass(frozen=True)
class LabelScore:
    label: int
    tp: int
    fp: int
    fn: int
    f1: float


@dataclass(frozen=True)
class EvaluationReport:
    micro_f1: float
    macro_f1: float
    per_label: tuple[LabelScore, ...]
    decision_rule: str
    subset_size: int


def split_dataset(graph: MultiLabelGraph | int, alpha: float, seed: int) -> DataSplit:
    """Sample round(alpha*n) training nodes; split the rest 10% validation,
    90% test. Deterministic for a fixed seed."""
    n = graph if isinstance(graph, int) else graph.node_count
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n_train = round(alpha * n)
    rest = n - n_train
    if n_train == 0:
        raise ValueError("alpha yields an empty training set")
    n_val = round(0.1 * rest)
    n_test = rest - n_val
    if n_test == 0:
        raise ValueError("alpha yields an empty test set")
    perm = rng_stream(seed, "split").permutation(n)
    return DataSplit(
        train_nodes=np.sort(perm[:n_train]),
        val_nodes=np.sort(perm[n_train:n_train + n_val]),
        test_nodes=np.sort(perm[n_train + n_val:]))


def predict_labels(scores: np.ndarray, rule: str = "top_k_true",
                   truth: np.ndarray | None = None,
                   threshold: float = 0.5) -> np.ndarray:
    """Turn an n x m score matrix into binary predictions.

    "threshold": predict sigmoid(score) >= threshold.
    "top_k_true": per node, predict its k highest-scoring labels where k is
    the node's true label count; score ties resolve to the lower label index.
    """
    if rule == "threshold":
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        return (sigmoid(scores) >= threshold).astype(np.int8)
    if rule == "top_k_true":
        if truth is None:
            raise ValueError("top_k_true requires the truth matrix")
        if truth.shape != scores.shape:
            raise ValueError("truth shape must match scores")
        k = np.asarray(truth).sum(axis=1).astype(np.int64)
        order = np.argsort(-scores, axis=1, kind="stable")
        pred = np.zeros(scores.shape, dtype=np.int8)
        cols = np.arange(scores.shape[1])
        take = cols[None, :] < k[:, None]
        rows = np.repeat(np.arange(scores.shape[0]), scores.shape[1])
        pred[rows[take.ravel()], order.ravel()[take.ravel()]] = 1
        return pred
    raise ValueError(f"unknown decision rule {rule!r}")


def compute_f1(pred: np.ndarray, truth: np.ndarray, subset: np.ndarray,
               decision_rule: str = "") -> EvaluationReport:
    """Per-label confusion counts over a node subset, an integer index
    array, plus pooled scores; `truth` may be float or bool indicators."""
    subset = index_array(subset, "subset")
    if subset.size == 0:
        raise ValueError("empty evaluation subset")
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth shapes differ")
    p = np.asarray(pred)[subset] > 0
    t = np.asarray(truth)[subset] > 0
    tp = (p & t).sum(axis=0)
    fp = (p & ~t).sum(axis=0)
    fn = (~p & t).sum(axis=0)

    denom = 2 * tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros(denom.size), where=denom > 0)
    micro_denom = int(denom.sum())
    micro = float(2 * tp.sum() / micro_denom) if micro_denom else 0.0
    per_label = tuple(
        LabelScore(label=i, tp=int(tp[i]), fp=int(fp[i]), fn=int(fn[i]),
                   f1=float(f1[i]))
        for i in range(denom.size))
    return EvaluationReport(micro_f1=micro, macro_f1=float(f1.mean()),
                            per_label=per_label, decision_rule=decision_rule,
                            subset_size=int(subset.size))


def per_label_breakdown(report: EvaluationReport) -> list[tuple[int, float]]:
    """(label index, F1) pairs ordered by label index."""
    return [(s.label, s.f1) for s in sorted(report.per_label, key=lambda s: s.label)]


def label_correlation_matrix(b: SparseMatrix) -> np.ndarray:
    """Co-occurrence counts scaled into [0, 1] by the largest off-diagonal
    count, with a unit diagonal; symmetric."""
    c = build_label_cooccurrence(b).to_dense()
    peak = c.max()
    out = c / peak if peak > 0 else np.zeros_like(c)
    np.fill_diagonal(out, 1.0)
    return out


def evaluate(scores: np.ndarray, truth: np.ndarray, subset: np.ndarray,
             rule: str = "top_k_true", threshold: float = 0.5) -> EvaluationReport:
    """Predict the subset's rows with the given rule, then score them. Both
    rules decide each row on its own, so this is the report of predicting
    every row and scoring the subset."""
    if np.shape(truth) != np.shape(scores):
        raise ValueError("truth shape must match scores")
    subset = index_array(subset, "subset")
    rows = np.asarray(truth)[subset]
    pred = predict_labels(scores[subset], rule=rule, truth=rows,
                          threshold=threshold)
    tag = rule if rule != "threshold" else f"threshold:{threshold}"
    return compute_f1(pred, rows, np.arange(subset.size), decision_rule=tag)
