"""Helpers shared by the test modules."""

import numpy as np

from mlgcn.kernels import relu
from mlgcn.operators import build_operators
from mlgcn.training import forward_node_gcn, load_checkpoint

# view -> the projection of the logits injected into it
PROJECTIONS = {"label": "proj_node", "node": "proj_label"}


def attribute_block(model, view):
    """A view's attribute block: the other side's raw features (X for the
    label view, Y for the node view) before any injection into it, else
    relu(logits @ proj), a new array."""
    if view not in model.injected:
        return model.node_features if view == "label" else model.label_features
    return relu(model.injected[view] @ model.projections[PROJECTIONS[view]])


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
