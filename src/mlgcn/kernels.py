"""Numerical kernels: sparse-dense products, convolution layers, losses,
and hand-derived reverse-mode gradients.

A convolution layer computes ``act(op @ dropout(H) @ W)`` where `op` is a
fixed sparse propagation operator. Each layer picks the cheaper association
of that product from the shapes alone (`propagates_first`): ``(op @ H) @ W``
when W widens its input, ``op @ (H @ W)`` when W narrows it, so the sparse
product runs over the narrower side. A sparse H (a `SparseMatrix`, such as
one-hot input features) always multiplies W first, and its dropout scales
only its stored entries. `forward_stack` walks a stack of such
layers and records everything the backward pass needs (the matrix W
multiplies, pre-activations, dropout masks); `backward` then walks the two
layer stacks in reverse, in the order each layer's forward used. A forward
that draws no dropout can hand the first layer a precomputed ``op @ H``
(`propagated`) in place of the sparse product. Gradients never flow into
the operators or the input feature blocks — those are constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .matrices import SparseMatrix

__all__ = [
    "LayerCache", "spmm", "relu", "sigmoid", "propagates_first",
    "gcn_layer_forward",
    "softmax_rows", "single_label_loss", "multi_label_loss",
    "single_label_loss_grad", "multi_label_loss_grad",
    "forward_stack", "backward", "backward_stack",
]

LOG_CLAMP = 1e-12  # fixed probability floor before logs; not configurable


def spmm(s: SparseMatrix, d: np.ndarray) -> np.ndarray:
    """Exact product of a CSR matrix with a dense matrix."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or s.shape[1] != d.shape[0]:
        raise ValueError(f"cannot multiply {s.shape} by {d.shape}")
    return s @ d


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class LayerCache:
    """Per-layer forward record used by the backward pass."""

    op: SparseMatrix
    weight: np.ndarray
    weight_input: np.ndarray | SparseMatrix  # what W multiplies, feeds dW:
                                  # op @ dropout(H) when propagated first,
                                  # else dropout(H), sparse when H is
    pre_activation: np.ndarray
    mask: np.ndarray | None       # inverted-dropout mask (0 or 1/(1-p)), one
                                  # value per stored entry of a sparse H;
                                  # None in eval and, in a stack, on the
                                  # first layer
    activation: str
    weight_key: str
    propagated_first: bool        # (op @ dropout(H)) @ W rather than op @ (dropout(H) @ W)


def propagates_first(op_shape: tuple[int, int], op_nnz: int,
                     w_shape: tuple[int, int]) -> bool:
    """Whether ``(op @ H) @ W`` costs no more flops than ``op @ (H @ W)``.

    With `op` rows x cols holding nnz entries and `W` d x h, the first
    order costs rows*d*h + nnz*d and the second cols*d*h + nnz*h; ties
    propagate first.
    """
    (rows, cols), (d, h) = op_shape, w_shape
    return rows * d * h + op_nnz * d <= cols * d * h + op_nnz * h


def gcn_layer_forward(op: SparseMatrix, h: np.ndarray | SparseMatrix,
                      w: np.ndarray,
                      activation: str = "relu", dropout: float = 0.0,
                      training: bool = False,
                      rng: np.random.Generator | None = None,
                      weight_key: str = "",
                      propagated: np.ndarray | None = None
                      ) -> tuple[np.ndarray, LayerCache]:
    """One convolution layer: act(op @ drop(H) @ W), associated in the
    order `propagates_first` picks from the operator and weight shapes.

    In training mode dropout zeroes input entries with probability p and
    scales survivors by 1/(1-p); in eval mode it is the identity. A sparse
    `h` draws as many values as its dense twin, so the generator advances
    alike, but applies only those at its stored entries, to a copy; it
    always multiplies W first: ``h @ W`` costs nnz(h) per output column.

    `propagated`, if given, is a precomputed ``op @ h``. It stands in for
    the sparse product when the layer propagates first; a layer that
    multiplies W first ignores it. It cannot be combined with a dropout
    draw, whose mask the product would not carry.
    """
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    if h.shape[0] != op.shape[1] or h.shape[1] != w.shape[0]:
        raise ValueError(
            f"shape mismatch: op {op.shape} @ H {h.shape} @ W {w.shape}")
    if activation not in ("relu", "identity"):
        raise ValueError(f"unknown activation {activation!r}")

    drawn = training and dropout > 0.0
    if propagated is not None:
        if drawn:
            raise ValueError("a precomputed op @ h cannot stand in for "
                             "op @ dropout(h)")
        if propagated.shape != (op.shape[0], h.shape[1]):
            raise ValueError(f"precomputed product {propagated.shape} is not "
                             f"op {op.shape} @ H {h.shape}")

    sparse = sp.issparse(h)
    mask = None
    hd = h
    if drawn:
        if rng is None:
            raise ValueError("training dropout needs an rng")
        # a sparse h draws its whole shape, so a run gets the masks, and
        # the trajectory, that dense features give; it uses only the draws
        # at its stored entries
        drawn_values = rng.random(h.shape)
        if sparse:
            rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
            drawn_values = drawn_values[rows, h.indices]
        mask = (drawn_values >= dropout) / (1.0 - dropout)
        if sparse:
            hd = h.copy()
            hd.data *= mask
        else:
            hd = h * mask
    first = not sparse and propagates_first(op.shape, op.nnz, w.shape)
    if first:
        weight_input = spmm(op, hd) if propagated is None else propagated
        z = weight_input @ w
    else:
        weight_input = hd
        z = spmm(op, hd @ w)
    out = relu(z) if activation == "relu" else z
    cache = LayerCache(op=op, weight=w, weight_input=weight_input,
                       pre_activation=z, mask=mask, activation=activation,
                       weight_key=weight_key, propagated_first=first)
    return out, cache


def softmax_rows(o: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = o - o.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def single_label_loss(z: np.ndarray, targets: np.ndarray) -> float:
    """Summed cross-entropy of row-stochastic predictions against one-hot
    targets; probabilities are clamped at 1e-12 before the log."""
    return float(-(targets * np.log(np.maximum(z, LOG_CLAMP))).sum())


def single_label_loss_grad(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the summed softmax cross-entropy w.r.t. the logits."""
    return z - targets


def multi_label_loss(o: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Summed binary cross-entropy on logits over the masked node rows.

    Each term is (1-y)*o + log(1+exp(-o)), evaluated through the
    overflow-safe split log(1+exp(-o)) = max(-o,0) + log1p(exp(-|o|)).
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("no labeled nodes")
    om = o[mask]
    tm = targets[mask]
    softplus_neg = np.maximum(-om, 0.0) + np.log1p(np.exp(-np.abs(om)))
    return float(((1.0 - tm) * om + softplus_neg).sum())


def multi_label_loss_grad(o: np.ndarray, targets: np.ndarray,
                          mask: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the logits: sigmoid(o) - y on masked rows, 0 elsewhere."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("no labeled nodes")
    g = np.zeros_like(o)
    g[mask] = sigmoid(o[mask]) - targets[mask]
    return g


def forward_stack(layers: list[tuple[SparseMatrix, str]], h: np.ndarray,
                  weights: dict[str, np.ndarray], dropout: float,
                  training: bool, rng: np.random.Generator | None,
                  propagated: np.ndarray | None = None
                  ) -> tuple[np.ndarray, list[LayerCache]]:
    """Walk one layer stack, given as (operator, weight key) per layer.

    Every layer but the last is rectified; dropout is drawn layer by layer
    in stack order. `propagated` is the first layer's precomputed
    ``op @ h`` (see `gcn_layer_forward`). Returns the output and the caches
    `backward_stack` needs.
    """
    caches = []
    for idx, (op, key) in enumerate(layers):
        activation = "identity" if idx == len(layers) - 1 else "relu"
        h, cache = gcn_layer_forward(op, h, weights[key], activation=activation,
                                     dropout=dropout, training=training,
                                     rng=rng, weight_key=key,
                                     propagated=propagated if idx == 0 else None)
        if idx == 0:
            # backward_stack reads a mask only to pass the gradient below
            # its layer, and no gradient goes below the first one
            cache.mask = None
        caches.append(cache)
    return h, caches


def backward_stack(caches: list[LayerCache], d_out: np.ndarray,
                   grads: dict[str, np.ndarray]):
    """Reverse through one layer stack, accumulating weight gradients.

    Each layer follows its forward order. A layer that propagated first
    takes dW from its cached op @ dropout(H) and, above the first layer,
    sends opᵀ @ (dZ @ Wᵀ) down. A layer that multiplied W first forms
    opᵀ @ dZ once, over W's fan-out columns, and takes both dW and the
    input gradient from it. That needs the transpose of the first layer's
    non-square operator too; scipy's ``.T`` view multiplies as fast as a
    built transpose. A sparse first-layer input gives dW as
    dropout(H)ᵀ @ (opᵀ @ dZ) over its stored entries alone. No gradient
    flows into the input features.
    """
    g = d_out
    for idx in range(len(caches) - 1, -1, -1):
        cache = caches[idx]
        if cache.activation == "relu":
            dz = g * (cache.pre_activation > 0.0)
        else:
            dz = g
        # gradient w.r.t. the product weight_input @ W
        d_prod = dz if cache.propagated_first else spmm(cache.op.T, dz)
        dw = cache.weight_input.T @ d_prod
        if cache.weight_key in grads:
            grads[cache.weight_key] += dw
        else:
            grads[cache.weight_key] = dw
        if idx > 0:
            d_hd = d_prod @ cache.weight.T
            if cache.propagated_first:
                d_hd = spmm(cache.op.T, d_hd)
            g = d_hd * cache.mask if cache.mask is not None else d_hd


def backward(label_caches: list[LayerCache] | None,
             d_label_logits: np.ndarray | None,
             node_caches: list[LayerCache],
             d_node_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the collective loss w.r.t. every trainable weight.

    `label_caches` is None when the model has no label stack.
    """
    if node_caches is None or (label_caches is not None and not label_caches):
        raise ValueError("missing forward cache")
    grads: dict[str, np.ndarray] = {}
    if label_caches is not None:
        backward_stack(label_caches, d_label_logits, grads)
    backward_stack(node_caches, d_node_logits, grads)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {key}")
    return grads
