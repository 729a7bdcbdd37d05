"""Helpers shared by the test modules."""

import numpy as np

from mlgcn.kernels import relu
from mlgcn.operators import build_operators
from mlgcn.training import forward_node_gcn, load_checkpoint


def node_block(model):
    """The label view's attribute block: the raw X before any node
    injection, else relu(node_logits @ proj_node), a new n x d array."""
    if model.node_logits is None:
        return model.node_features
    return relu(model.node_logits @ model.projections["proj_node"])


def assert_stored_embeddings(path, graph, embeddings):
    """The checkpoint at `path` stores `embeddings` (the logits `train`
    returned), and an eval-mode forward of the model it loads back, on
    operators built anew, computes them too: bitwise, at float64."""
    model, config, *_ = load_checkpoint(path)
    operators = build_operators(graph, config.variant,
                                config.binarize_cooccurrence)
    recomputed, _ = forward_node_gcn(operators, model, config, training=False)
    with np.load(path) as data:
        stored = data["embeddings"]
    for array in (stored, recomputed):
        assert array.dtype == embeddings.dtype == np.float64
        assert array.shape == embeddings.shape
        assert array.tobytes() == embeddings.tobytes()
