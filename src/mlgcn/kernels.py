"""Numerical kernels: sparse-dense products, convolution layers, losses,
and hand-derived reverse-mode gradients.

A convolution layer computes ``act(op @ dropout(H) @ W)`` where `op` is a
fixed sparse propagation operator. Each layer picks the cheaper association
of that product from the shapes alone (`propagates_first`): ``(op @ H) @ W``
when W widens its input, ``op @ (H @ W)`` when W narrows it, so the sparse
product runs over the narrower side. A sparse H (a `SparseMatrix`, such as
one-hot input features) always multiplies W first, and its dropout scales
only its stored entries. `forward_stack` walks a stack of such layers and
records everything the backward pass needs (the matrix W multiplies, the
rectified output, dropout masks, as bytes); `backward` then walks the two
layer stacks in reverse, in the order each layer's forward used. A forward
that draws no dropout can hand the first layer a precomputed ``op @ H``
(`propagated`); a dense first layer is handed ``op @ dropout(H)`` the same
way from `_propagate`, which streams H in row blocks of about a MiB.
Gradients never flow into the operators or the input feature blocks —
those are constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .matrices import SparseMatrix

__all__ = [
    "LayerCache", "spmm", "relu", "sigmoid", "propagates_first",
    "gcn_layer_forward",
    "softmax_rows", "single_label_loss", "multi_label_loss",
    "single_label_loss_grad", "multi_label_loss_grad",
    "forward_stack", "backward", "backward_stack",
]

LOG_CLAMP = 1e-12  # fixed probability floor before logs; not configurable

# values per row block of a sparse input's dropout draw
_DRAW_BLOCK_VALUES = 1 << 20
# values per row block of a streamed first layer (1 MiB), and any block's
# fewest rows: a short row block of a GEMM can get other bits than the whole
_BLOCK_VALUES = 1 << 17
_BLOCK_ROWS_MIN = 32


def spmm(s: SparseMatrix, d: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """Exact product of a CSR or CSC matrix with a dense matrix; given a
    C-contiguous `out`, added into it by scipy's own `{format}_matvecs`."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or s.shape[1] != d.shape[0]:
        raise ValueError(f"cannot multiply {s.shape} by {d.shape}")
    if out is None:
        return s @ d
    if out.shape != (s.shape[0], d.shape[1]) or not out.flags.c_contiguous:
        raise ValueError(f"cannot add {s.shape} @ {d.shape} into {out.shape}")
    getattr(_sparsetools, f"{s.format}_matvecs")(
        *s.shape, d.shape[1], s.indptr, s.indices, s.data, d.ravel(),
        out.ravel())
    return out


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
    """Per-layer forward record used by the backward pass.

    `pre_activation` keeps its name but holds the rectified output for a
    relu layer: backward reads only where z > 0, and relu(z) > 0 marks
    exactly those entries, NaN and -0.0 included. The same array is the
    layer's return value, so nothing may write into either.
    """

    op: SparseMatrix
    weight: np.ndarray
    weight_input: np.ndarray | SparseMatrix  # what W multiplies, feeds dW:
                                  # op @ dropout(H) when propagated first,
                                  # else dropout(H), sparse when H is
    pre_activation: np.ndarray    # the layer's output: for a relu layer
                                  # relu(z), rectified in place, whose
                                  # positive entries are those of z; for
                                  # an identity layer z itself
    mask: np.ndarray | None       # keep mask draws >= p, bool, per entry (per
                                  # stored entry of a sparse H); None in eval
                                  # and, in a stack, on the first layer
    activation: str
    weight_key: str
    propagated_first: bool        # (op @ dropout(H)) @ W rather than op @ (dropout(H) @ W)
    dropout: float = 0.0          # p: survivors are scaled by 1/(1-p)


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
    scales survivors by 1/(1-p), multiplying by the bool mask and then by
    1/(1-p); in eval mode it is the identity. A sparse `h` draws as many
    values as its dense twin, so the generator advances alike, but applies
    only those at its stored entries, to a copy; it always multiplies W
    first: ``h @ W`` costs nnz(h) per output column.

    `propagated`, if given, is a precomputed ``op @ h``. It stands in for
    the sparse product when the layer propagates first; a layer that
    multiplies W first ignores it. With a dropout draw it must come without
    a generator: it is then ``op @ dropout(h)`` over draws the caller took
    (as `forward_stack` does for a first layer), and the layer draws
    nothing and records no mask. With a generator it is refused, since it
    would not carry the layer's own draw.
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
        if drawn and rng is not None:
            raise ValueError("a precomputed op @ h cannot stand in for "
                             "op @ dropout(h)")
        if propagated.shape != (op.shape[0], h.shape[1]):
            raise ValueError(f"precomputed product {propagated.shape} is not "
                             f"op {op.shape} @ H {h.shape}")

    sparse = sp.issparse(h)
    first = not sparse and propagates_first(op.shape, op.nnz, w.shape)
    mask, hd = None, h
    # a product handed over with a draw (and no generator) carries it
    if drawn and not (first and propagated is not None):
        if rng is None:
            raise ValueError("training dropout needs an rng")
        # a sparse h draws its whole shape, so a run gets the masks, and
        # the trajectory, that dense features give; it uses only the draws
        # at its stored entries
        drawn_values = _stored_draws(rng, h) if sparse else rng.random(h.shape)
        mask = drawn_values >= dropout
        hd = h.copy() if sparse else drawn_values  # reuses the spent draws
        values = hd.data if sparse else hd
        np.multiply(values if sparse else h, mask, out=values)
        np.multiply(values, 1.0 / (1.0 - dropout), out=values)
    if first:
        weight_input = spmm(op, hd) if propagated is None else propagated
        z = weight_input @ w
    else:
        weight_input = hd
        z = spmm(op, hd @ w)
    if activation == "relu":
        np.maximum(z, 0.0, out=z)
    cache = LayerCache(op=op, weight=w, weight_input=weight_input,
                       pre_activation=z, mask=mask, activation=activation,
                       weight_key=weight_key, propagated_first=first,
                       dropout=dropout)
    return z, cache


def _row_blocks(rows: int, cols: int, values: int) -> list[tuple[int, int]]:
    """Row ranges of about `values` values and `_BLOCK_ROWS_MIN` rows or
    more; a shorter last range joins the one before."""
    step = max(_BLOCK_ROWS_MIN, values // max(cols, 1))
    starts = list(range(0, max(rows - _BLOCK_ROWS_MIN + 1, 1), step))
    return list(zip(starts, starts[1:] + [rows]))


def _propagate(op: SparseMatrix, h, shape: tuple[int, int], dropout: float,
               rng: np.random.Generator | None) -> np.ndarray:
    """``op @ dropout(h)`` over row blocks of a dense first-layer input.

    `h` (`shape`) is an array or a row writer, ``h(start, stop, out)``,
    which writes rows [start, stop) into `out`. Each block is written into
    a reused buffer, drawn in row order (so the generator ends where one
    whole draw leaves it), masked in place, and its product with the
    matching column block of one CSC copy of `op` added into the output.
    csc_matvecs adds each output row's terms in column order, as
    csr_matvecs does over the whole operator: the bits of the whole
    product, at any block size. No mask is kept.
    """
    csc, out = op.tocsc(), np.zeros((op.shape[0], shape[1]))
    blocks = _row_blocks(*shape, _BLOCK_VALUES)
    size = (max(stop - start for start, stop in blocks), shape[1])
    written = np.empty(size) if callable(h) else None
    drawn = np.empty(size) if dropout > 0.0 else None
    for start, stop in blocks:
        block = h[start:stop] if written is None else written[:stop - start]
        if written is not None:
            h(start, stop, block)
        if drawn is not None:
            keep = rng.random(out=drawn[:stop - start])
            np.greater_equal(keep, dropout, out=keep)
            block = np.multiply(block, keep, out=block if callable(h)
                                else keep)
            np.multiply(block, 1.0 / (1.0 - dropout), out=block)
        lo, hi = csc.indptr[start], csc.indptr[stop]
        part = sp.csc_array((csc.data[lo:hi], csc.indices[lo:hi],
                             csc.indptr[start:stop + 1] - lo),
                            shape=(op.shape[0], stop - start))
        spmm(part, block, out=out)
    return out


def _stored_draws(rng: np.random.Generator, h: SparseMatrix) -> np.ndarray:
    """The values of one ``rng.random(h.shape)`` draw at `h`'s stored
    entries, in storage order.

    The shape is drawn in `_row_blocks` of `_DRAW_BLOCK_VALUES` into one
    reused buffer; the generator yields the same values, and ends in the
    same state, as from one call.
    """
    blocks = _row_blocks(*h.shape, _DRAW_BLOCK_VALUES)
    buffer = np.empty((max(b - a for a, b in blocks), h.shape[1]))
    values = np.empty(h.nnz)
    for start, stop in blocks:
        block = buffer[:stop - start]
        rng.random(out=block)
        lo, hi = h.indptr[start], h.indptr[stop]
        local = np.repeat(np.arange(stop - start),
                          np.diff(h.indptr[start:stop + 1]))
        values[lo:hi] = block[local, h.indices[lo:hi]]
    return values


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


def forward_stack(layers: list[tuple[SparseMatrix, str]], h,
                  weights: dict[str, np.ndarray], dropout: float,
                  training: bool, rng: np.random.Generator | None,
                  propagated: np.ndarray | None = None
                  ) -> tuple[np.ndarray, list[LayerCache]]:
    """Walk one layer stack, given as (operator, weight key) per layer.

    Every layer but the last is rectified; dropout is drawn layer by layer
    in stack order. `h` is an array, a sparse matrix, a row writer (see
    `_propagate`), or None when `propagated`, the first layer's ``op @ h``
    (see `gcn_layer_forward`), is given. A dense first layer that
    propagates first and draws dropout or reads a row writer takes ``op @
    dropout(h)`` from `_propagate`, and itself sees a NaN stand-in of the
    input's shape. Returns the output and the caches `backward_stack` needs.
    """
    if training and dropout > 0.0 and rng is None:
        raise ValueError("training dropout needs an rng")
    caches = []
    for idx, (op, key) in enumerate(layers):
        activation = "identity" if idx == len(layers) - 1 else "relu"
        w, layer_rng, product = weights[key], rng, None
        if idx == 0:
            product, shape = propagated, (op.shape[1], w.shape[0])
            streamed = callable(h) or (training and dropout > 0.0)
            if (product is None and streamed and not sp.issparse(h)
                    and propagates_first(op.shape, op.nnz, w.shape)):
                # no mask of a first layer is read: the layer is handed
                # the product, with the draws already taken
                product = _propagate(op, h, shape, dropout if training
                                     else 0.0, rng)
                layer_rng = None
            if callable(h) and product is None:  # W first: the whole input
                h, write = np.empty(shape), h
                write(0, shape[0], h)
            elif h is None or callable(h):
                h = np.broadcast_to(np.nan, shape)
        h, cache = gcn_layer_forward(op, h, w, activation=activation,
                                     dropout=dropout, training=training,
                                     rng=layer_rng, weight_key=key,
                                     propagated=product)
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

    The ReLU gate, the dropout mask and then its 1/(1-p) are applied in
    place, but only to gradient arrays made here: `d_out` and the caches
    are read, never written. Each layer's temporaries are dropped before
    the next layer.
    """
    g, owned = d_out, False
    for idx in range(len(caches) - 1, -1, -1):
        cache = caches[idx]
        if cache.activation == "relu":
            # the cache holds relu(z), positive exactly where z is
            g = np.multiply(g, cache.pre_activation > 0.0,
                            out=g if owned else None)
        # gradient w.r.t. the product weight_input @ W
        d_prod = g if cache.propagated_first else spmm(cache.op.T, g)
        del g
        dw = cache.weight_input.T @ d_prod
        if cache.weight_key in grads:
            grads[cache.weight_key] += dw
        else:
            grads[cache.weight_key] = dw
        if idx == 0:
            break
        g = d_prod @ cache.weight.T
        del d_prod
        if cache.propagated_first:
            g = spmm(cache.op.T, g)
        if cache.mask is not None:
            np.multiply(g, cache.mask, out=g)
            np.multiply(g, 1.0 / (1.0 - cache.dropout), out=g)
        owned = True


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
