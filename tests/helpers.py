"""Helpers shared by the test modules."""

from mlgcn.kernels import relu


def node_block(model):
    """The label view's attribute block: the raw X before any node
    injection, else relu(node_logits @ proj_node), a new n x d array."""
    if model.node_logits is None:
        return model.node_features
    return relu(model.node_logits @ model.projections["proj_node"])
