"""Coupled graph convolutional networks for multi-label node classification.

A label-label-node view models label correlations while a node-node-label
view models node structure; the two convolution stacks train jointly under
one objective and periodically inject features into each other.
"""

from .datasets import (DatasetStats, ParseError, SyntheticConfig,
                       dataset_stats, generate_synthetic, load_dataset,
                       parse_edge_list, parse_label_assignments)
from .graph import DataSplit, MultiLabelGraph, validate_graph
from .matrices import SparseMatrix
from .metrics import (EvaluationReport, LabelScore, compute_f1, evaluate,
                      label_correlation_matrix, per_label_breakdown,
                      predict_labels, split_dataset)
from .operators import (GraphOperators, NormalizedOperator,
                        build_label_cooccurrence, build_label_label_node_adj,
                        build_node_node_label_adj, build_operators,
                        normalize_symmetric)
from .training import (DivergenceError, ModelState, TrainConfig, TrainHistory,
                       TrainState, forward_label_gcn, forward_node_gcn,
                       init_model, inject_label_features,
                       inject_node_features, input_features, load_checkpoint,
                       save_checkpoint, sgd_step, train)

__version__ = "0.1.0"

__all__ = [
    "SparseMatrix", "MultiLabelGraph", "DataSplit", "validate_graph",
    "DatasetStats", "SyntheticConfig", "ParseError", "parse_edge_list",
    "parse_label_assignments", "load_dataset", "dataset_stats",
    "generate_synthetic", "NormalizedOperator",
    "GraphOperators", "build_label_cooccurrence", "build_node_node_label_adj",
    "build_label_label_node_adj", "build_operators", "normalize_symmetric",
    "TrainConfig", "ModelState", "TrainHistory",
    "TrainState", "DivergenceError", "input_features", "init_model",
    "forward_label_gcn", "forward_node_gcn", "inject_label_features",
    "inject_node_features",
    "sgd_step", "train", "save_checkpoint", "load_checkpoint",
    "EvaluationReport", "LabelScore", "split_dataset", "predict_labels",
    "compute_f1", "per_label_breakdown", "label_correlation_matrix",
    "evaluate",
]
