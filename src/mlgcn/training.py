"""Alternating training of the coupled label and node convolution stacks.

Every epoch runs the label view (single-label classification of the label
nodes against themselves), the node view (masked multi-label classification
of the training nodes), injects each view's logits into the other view's
attribute feature block on its schedule, and takes one optimizer step on the
summed objective. Injected blocks are constants for backprop, and the fixed
random projections that produce them are never trained.

`layer_table` is the one place that lays out each variant's layer stacks;
weight shapes, both forwards and the training loop all derive from it.
`input_features` is the one place that builds the raw input features.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .files import replacing
from .graph import DataSplit, MultiLabelGraph
from .kernels import (LayerCache, backward, forward_stack, multi_label_loss,
                      multi_label_loss_grad, relu, single_label_loss,
                      single_label_loss_grad, softmax_rows)
from .matrices import SparseMatrix
from .metrics import evaluate
from .operators import GraphOperators, build_operators
from .rng import rng_stream

__all__ = [
    "VARIANTS", "TrainConfig", "ModelState", "TrainHistory", "TrainState",
    "DivergenceError", "CheckpointError", "layer_table", "weight_shapes",
    "projection_shapes", "input_features", "init_model", "forward_label_gcn",
    "forward_node_gcn", "inject_label_features", "inject_node_features",
    "sgd_step", "train_epoch", "train", "save_checkpoint", "read_checkpoint",
    "load_checkpoint",
]

VARIANTS = ("full", "node", "1n", "2l", "gcn_baseline")

CHECKPOINT_VERSION = 7

# values per row block of an optimizer step (at least one row)
_STEP_CHUNK_VALUES = 1 << 16


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, message: str = "diverged"):
        super().__init__(f"{message} at epoch {epoch}")
        self.epoch = epoch


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back into a model."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.02
    epochs: int = 300
    hidden_dim: int = 400
    train_ratio: float = 0.2
    update_freq_nodes: int = 50   # N: node logits -> label-view attributes
    update_freq_labels: int = 50  # M: label logits -> node-view attributes
    dropout: float = 0.5
    weight_decay: float = 0.0
    node_gcn_layers: int = 2
    label_gcn_layers: int = 1
    variant: str = "full"
    seed: int = 0
    optimizer: str = "gd"
    skip_epoch0_injection: bool = False
    binarize_cooccurrence: bool = False
    feature_dim: int = 0  # 0: one-hot over the joint node+label space

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError("train_ratio must lie in (0, 1)")
        if self.update_freq_nodes < 1 or self.update_freq_labels < 1:
            raise ValueError("update frequencies must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.node_gcn_layers not in (1, 2) or self.label_gcn_layers not in (1, 2):
            raise ValueError("layer counts must be 1 or 2")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.feature_dim < 0:
            raise ValueError("feature_dim must be >= 0 (0 selects one-hot "
                             "features)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def layer_table(config: TrainConfig) -> dict[str, list[tuple[str, str]]]:
    """The layer layout of each view's stack: per layer, first to last, the
    name of the view's operator it applies and the key of its weight.

    The stacks start with the truncated operator and continue with the
    intra-view one; `1n` and `2l` override the node and label layer counts.
    The plain-GCN baseline has no label stack, and its node stack applies
    the intra-node operator `node_gcn_layers` times.
    """
    if config.variant == "gcn_baseline":
        names = {"label": [], "node": ["intra"] * config.node_gcn_layers}
    else:
        label = 2 if config.variant == "2l" else config.label_gcn_layers
        node = 1 if config.variant == "1n" else config.node_gcn_layers
        names = {"label": ["truncated", "intra"][:label],
                 "node": ["truncated", "intra"][:node]}
    return {view: [(name, f"w{i}_{view}") for i, name in enumerate(ops)]
            for view, ops in names.items()}


@dataclass
class ModelState:
    """Trainable weights, frozen projections, the raw input features, what
    the injections put into each view, and the dropout stream. It caches
    nothing: `TrainState` keeps the first-layer products that it reuses.

    The raw features come from `input_features` and are never stored: a
    checkpoint rebuilds them from its config. The label view's attribute
    block is the raw X until a node injection and relu(node_logits @
    proj_node) after it; only the n x m logits are kept, and the label view
    writes the block's rows into its streamed input (`_label_input`). The
    node view's attribute block starts as the raw Y. Injections replace the
    logits and the label block, and never write into them.
    """

    weights: dict[str, np.ndarray]
    projections: dict[str, np.ndarray]
    node_features: np.ndarray | SparseMatrix  # raw X (n x d), the node view's
                                              # leading rows; CSR when one-hot
    label_features: np.ndarray  # raw Y (m x d), the label view's leading rows
    node_logits: np.ndarray | None  # last node logits injected into the label
                                    # view (n x m); None before the first
    label_block: np.ndarray     # attribute features of the node view (starts as raw Y)
    dropout_rng: np.random.Generator


@dataclass
class TrainHistory:
    label_loss: list[float] = field(default_factory=list)
    node_loss: list[float] = field(default_factory=list)
    total_loss: list[float] = field(default_factory=list)
    val_micro_f1: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.total_loss)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def weight_shapes(config: TrainConfig, d: int,
                  m: int) -> dict[str, tuple[int, int]]:
    """Each weight's (fan-in, fan-out) for feature width d and m labels, in
    `layer_table` order: each stack's widths run d -> hidden -> ... -> m."""
    shapes: dict[str, tuple[int, int]] = {}
    for layers in layer_table(config).values():
        widths = [d] + [config.hidden_dim] * (len(layers) - 1) + [m]
        for (_, key), fan_in, fan_out in zip(layers, widths, widths[1:]):
            shapes[key] = (fan_in, fan_out)
    return shapes


def projection_shapes(config: TrainConfig, d: int,
                      m: int) -> dict[str, tuple[int, int]]:
    """The frozen projections' shapes, in draw order. Only a model with a
    label stack injects logits into feature blocks, so only it has them."""
    keys = ("proj_node", "proj_label") if layer_table(config)["label"] else ()
    return dict.fromkeys(keys, (m, d))


def input_features(n: int, m: int, config: TrainConfig
                   ) -> tuple[np.ndarray | SparseMatrix, np.ndarray]:
    """Raw node (n x d) and label (m x d) features for `config`.

    With `feature_dim` 0 they are one-hot rows over the joint node+label
    index space (d = n + m, nodes on the leading columns, labels on the
    last m); X is then a CSR matrix holding its n unit entries, and Y a
    dense array. Otherwise they are dense Gaussian rows of width
    `feature_dim` and scale 1/sqrt(d), drawn nodes first from the seed's
    features stream; they bound memory on large graphs.
    """
    d = config.feature_dim
    if d == 0:
        diag = np.arange(n)
        return (SparseMatrix.from_coo(n, n + m, diag, diag, np.ones(n)),
                np.eye(m, n + m, k=n))
    rng = rng_stream(config.seed, "features")
    scale = 1.0 / np.sqrt(d)
    return (rng.normal(0.0, scale, size=(n, d)),
            rng.normal(0.0, scale, size=(m, d)))


def init_model(graph: MultiLabelGraph, config: TrainConfig) -> ModelState:
    """Glorot-uniform weights, then projections, from the seed's init
    stream in `weight_shapes` and `projection_shapes` order; the raw
    features from `input_features`, which the attribute blocks start as."""
    m = graph.label_count
    x, y = input_features(graph.node_count, m, config)
    d = x.shape[1]
    rng = rng_stream(config.seed, "init")

    weights = {key: _glorot(rng, *shape)
               for key, shape in weight_shapes(config, d, m).items()}
    projections = {key: _glorot(rng, *shape)
                   for key, shape in projection_shapes(config, d, m).items()}

    return ModelState(
        weights=weights, projections=projections, node_features=x,
        label_features=y, node_logits=None, label_block=y,
        dropout_rng=rng_stream(config.seed, "dropout"))


def _stack(operators: GraphOperators, config: TrainConfig,
           view: str) -> list[tuple[SparseMatrix, str]]:
    """(operator, weight key) per layer of one view's stack."""
    view_ops = getattr(operators, view)
    return [(getattr(view_ops, name), key)
            for name, key in layer_table(config)[view]]


def _stacked(blocks: list[np.ndarray | SparseMatrix]
             ) -> np.ndarray | SparseMatrix:
    """Blocks stacked row-wise: as one CSR matrix when any block is sparse
    (the one-hot X), else as a dense array."""
    if len(blocks) == 1:
        return blocks[0]
    if any(map(sp.issparse, blocks)):
        return SparseMatrix(sp.vstack(blocks, format="csr"))
    return np.vstack(blocks)


def _label_input(model: ModelState):
    """The label view's input [Y; node block]: over the one-hot X, before
    any node injection, one CSR matrix (`_stacked`); otherwise a row writer
    (see `kernels.forward_stack`) of Y's rows, then X's, or, once node
    logits are injected, relu(logits[rows] @ proj_node) rectified in place."""
    y, x, logits = model.label_features, model.node_features, model.node_logits
    if logits is None and sp.issparse(x):
        return _stacked([y, x])
    m = y.shape[0]

    def write(start: int, stop: int, out: np.ndarray):
        head = max(min(stop, m) - start, 0)
        out[:head] = y[start:start + head]
        nodes, rows = slice(max(start, m) - m, max(stop, m) - m), out[head:]
        if logits is None:
            rows[...] = x[nodes]
        else:
            np.matmul(logits[nodes], model.projections["proj_node"], out=rows)
            np.maximum(rows, 0.0, out=rows)
    return write


def _node_input(model: ModelState, config: TrainConfig):
    """The node view's input: the raw node features over the injected
    label block, or, without a label stack, the raw node features alone."""
    blocks = [model.node_features]
    if layer_table(config)["label"]:
        blocks.append(model.label_block)
    return _stacked(blocks)


def forward_label_gcn(operators: GraphOperators, model: ModelState,
                      config: TrainConfig, training: bool = False, *,
                      propagated: np.ndarray | None = None
                      ) -> tuple[np.ndarray, list[LayerCache]]:
    """Label-view logits (m x m) from the raw label features over the
    injected node block (`_label_input`), or from `propagated`, the first
    layer's ``op @ H`` over that input: a row writer's, handed over
    unwritten beside it so that `forward_stack` takes the product."""
    return forward_stack(_stack(operators, config, "label"),
                         _label_input(model), model.weights, config.dropout,
                         training, model.dropout_rng, propagated)


def forward_node_gcn(operators: GraphOperators, model: ModelState,
                     config: TrainConfig, training: bool = False, *,
                     propagated: np.ndarray | None = None,
                     h: SparseMatrix | None = None
                     ) -> tuple[np.ndarray, list[LayerCache]]:
    """Node-view logits (n x m) from `_node_input`, built in the argument
    list so no local outlives it, or from `h`, a sparse one built from the
    current blocks; `propagated` is as for `forward_label_gcn`."""
    return forward_stack(_stack(operators, config, "node"),
                         None if propagated is not None else
                         _node_input(model, config) if h is None else h,
                         model.weights, config.dropout, training,
                         model.dropout_rng, propagated)


def inject_node_features(model: ModelState, node_logits: np.ndarray) -> np.ndarray:
    """Replace the label view's attribute block with projected node logits.

    The block, relu(node_logits @ proj_node), is n x d; the model keeps a
    copy of the n x m logits instead, which it returns, and the label view
    rebuilds the block's rows on each forward that needs them."""
    model.node_logits = np.array(node_logits, dtype=np.float64)
    return model.node_logits


def inject_label_features(model: ModelState, label_logits: np.ndarray) -> np.ndarray:
    """Replace the node view's attribute block with projected label logits."""
    model.label_block = relu(label_logits @ model.projections["proj_label"])
    return model.label_block


class _Optimizer:
    """Plain gradient descent or Adam; weight decay enters as an L2 term.

    A step updates the weights, and Adam's moments, in place, one block of
    rows at a time: row slices are views, even of a non-contiguous weight.
    Its temporaries live in one pair of buffers of `_STEP_CHUNK_VALUES`
    values (one row at least) that every weight shares, and every value is
    computed by the same operations in the same order as the textbook
    formulas in the comments.
    """

    def __init__(self, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.buffers = (np.empty(0), np.empty(0))

    def step(self, model: ModelState, grads: dict[str, np.ndarray]):
        cfg = self.config
        adam = cfg.optimizer == "adam"
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.step_count += 1
        for key, g in grads.items():
            if np.any(np.isnan(g)):
                raise ValueError(f"diverged: NaN gradient for {key}")
            w = model.weights[key]
            if adam and key not in self.m:
                self.m[key], self.v[key] = np.zeros_like(w), np.zeros_like(w)
            rows = max(1, _STEP_CHUNK_VALUES // max(w.shape[1], 1))
            size = min(rows, w.shape[0]) * w.shape[1]
            if self.buffers[0].size < size:
                self.buffers = (np.empty(size), np.empty(size))
            for start in range(0, w.shape[0], rows):
                block = slice(start, start + rows)
                wb = w[block]
                a, b = (buf[:wb.size].reshape(wb.shape)
                        for buf in self.buffers)
                # a = g + decay * w
                np.multiply(cfg.weight_decay, wb, out=a)
                np.add(g[block], a, out=a)
                if not adam:
                    # w = w - lr * a
                    np.multiply(cfg.learning_rate, a, out=a)
                    np.subtract(wb, a, out=wb)
                    continue
                m, v = self.m[key][block], self.v[key][block]
                # m = b1 * m + (1 - b1) * a
                np.multiply(b1, m, out=m)
                np.multiply(1 - b1, a, out=b)
                np.add(m, b, out=m)
                # v = b2 * v + (1 - b2) * a * a
                np.multiply(b2, v, out=v)
                np.multiply(1 - b2, a, out=b)
                np.multiply(b, a, out=b)
                np.add(v, b, out=v)
                # w = w - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
                np.divide(m, 1 - b1 ** self.step_count, out=a)
                np.multiply(cfg.learning_rate, a, out=a)
                np.divide(v, 1 - b2 ** self.step_count, out=b)
                np.sqrt(b, out=b)
                np.add(b, eps, out=b)
                np.divide(a, b, out=a)
                np.subtract(wb, a, out=wb)


def sgd_step(model: ModelState, grads: dict[str, np.ndarray],
             config: TrainConfig, optimizer: _Optimizer | None = None) -> ModelState:
    """One optimizer step; raises on NaN gradients."""
    (optimizer or _Optimizer(config)).step(model, grads)
    return model


@dataclass
class TrainState:
    """One run of the schedule: its operators, model, config, optimizer,
    history and last eval-mode node logits, and what its forwards reuse.

    At dropout 0 a training forward draws nothing and computes what an
    eval-mode one does, and nothing between an epoch's validation forward
    and the next epoch's node forward changes the weights or the injected
    blocks; so that validation forward, caches and all, waits in
    `node_forward` to double as the next epoch's node-view training forward.

    A view's first-layer ``op @ H`` changes only with its input, at an
    injection into that view. So each forward that draws no dropout is
    handed the product of its view's last such forward (`products`), and
    builds no input, until `inject` drops that product. A sparse node-view
    input is built once per label block (`node_input`) and handed to every
    node forward; one that draws dropout masks a copy.
    """

    operators: GraphOperators
    model: ModelState
    config: TrainConfig
    optimizer: _Optimizer
    history: TrainHistory = field(default_factory=TrainHistory)
    embeddings: np.ndarray | None = None  # eval-mode node logits, n x m
    products: dict[str, np.ndarray] = field(default_factory=dict)
    node_input: SparseMatrix | None = None
    node_forward: tuple[np.ndarray, list[LayerCache]] | None = None

    def __post_init__(self):
        if sp.issparse(self.model.node_features):
            self.node_input = _node_input(self.model, self.config)

    def forward(self, view: str, training: bool):
        drawn = training and self.config.dropout > 0.0
        fn = forward_label_gcn if view == "label" else forward_node_gcn
        out, caches = fn(self.operators, self.model, self.config,
                         training=training,
                         propagated=None if drawn else self.products.get(view),
                         **({"h": self.node_input} if view == "node" else {}))
        if not drawn and caches[0].propagated_first:
            self.products[view] = caches[0].weight_input
        return out, caches

    def inject(self, view: str, logits: np.ndarray):
        """Inject the other view's logits into `view`; drop the view's
        product and, for the node view, rebuild its one-hot input."""
        if view == "label":
            inject_node_features(self.model, logits)
        else:
            inject_label_features(self.model, logits)
            if self.node_input is not None:
                self.node_input = _node_input(self.model, self.config)
        self.products.pop(view, None)


def train_epoch(state: TrainState, epoch: int, targets: np.ndarray,
                split: DataSplit, rule: str, threshold: float):
    """One epoch, appended to `state.history`: label forward (skipped
    without a label stack, as in the plain-GCN baseline, where the label
    loss is identically zero), node forward with the masked multi-label
    loss against `targets` (n x m), scheduled cross-injections, one
    optimizer step on the summed loss, and an eval-mode validation Micro-F1."""
    t0 = time.perf_counter()
    config, train_mask = state.config, split.train_nodes
    coupled = bool(layer_table(config)["label"])
    label_loss, label_caches, d_label = 0.0, None, None
    if coupled:
        label_logits, label_caches = state.forward("label", training=True)
        z, eye = softmax_rows(label_logits), np.eye(targets.shape[1])
        label_loss = single_label_loss(z, eye)
        d_label = single_label_loss_grad(z, eye)

    node_logits, node_caches = (state.node_forward
                                or state.forward("node", training=True))
    state.node_forward = None
    node_loss = multi_label_loss(node_logits, targets, train_mask)
    total = label_loss + node_loss
    if not np.isfinite(total):
        raise DivergenceError(epoch)

    if coupled and not (config.skip_epoch0_injection and epoch == 0):
        if epoch % config.update_freq_nodes == 0:
            state.inject("label", node_logits)
        if epoch % config.update_freq_labels == 0:
            state.inject("node", label_logits)

    d_node = multi_label_loss_grad(node_logits, targets, train_mask)
    # backward empties the cache lists; this keeps the caches until the
    # step is done. Freed inside backward, they let the first step's Adam
    # moments fill their holes, and glibc then trimmed and faulted back the
    # heap above every epoch (about 10 MB an epoch on onehot_train, in half
    # of its seeds)
    spent = [*(label_caches or ()), *node_caches]
    try:
        grads = backward(label_caches, d_label, node_caches, d_node)
        sgd_step(state.model, grads, config, state.optimizer)
    except (FloatingPointError, ValueError) as exc:
        raise DivergenceError(epoch, str(exc)) from exc
    # spent: freeing them here keeps them out of the validation forward and
    # out of the next epoch's forwards, where memory peaks
    del label_caches, node_caches, grads, spent

    if split.val_nodes.size:
        state.embeddings, caches = state.forward("node", training=False)
        if config.dropout == 0.0:
            state.node_forward = state.embeddings, caches
        del caches
        val_f1 = evaluate(state.embeddings, targets, split.val_nodes,
                          rule=rule, threshold=threshold).micro_f1
    else:
        val_f1 = float("nan")

    state.history.label_loss.append(label_loss)
    state.history.node_loss.append(node_loss)
    state.history.total_loss.append(total)
    state.history.val_micro_f1.append(val_f1)
    state.history.epoch_seconds.append(time.perf_counter() - t0)


def train(graph: MultiLabelGraph, split: DataSplit, config: TrainConfig,
          rule: str = "top_k_true", threshold: float = 0.5) -> TrainState:
    """Run `config.epochs` epochs of `train_epoch`, deterministic for a
    fixed (seed, config); the state it returns holds nothing for reuse."""
    if split.train_nodes.size == 0:
        raise ValueError("no labeled nodes")
    state = TrainState(build_operators(graph, config.variant,
                                       config.binarize_cooccurrence),
                       init_model(graph, config), config, _Optimizer(config))
    targets = graph.label_indicators()
    for epoch in range(config.epochs):
        train_epoch(state, epoch, targets, split, rule, threshold)
    # the last epoch's validation forward doubles as the final one
    if state.embeddings is None:
        state.embeddings, _ = state.forward("node", training=False)
    state.products, state.node_input, state.node_forward = {}, None, None
    return state


# -- checkpointing ----------------------------------------------------------

def save_checkpoint(path, model: ModelState, config: TrainConfig,
                    epoch: int, fingerprint: str,
                    optimizer: _Optimizer | None = None, *,
                    embeddings: np.ndarray):
    """Versioned npz dump of weights, projections, rng state, config, the
    dataset fingerprint, the model's final eval-mode node logits
    (`embeddings`, n x m), which `eval` scores, and what injections put
    into the views: the node logits (n x m), once injected, and the label
    block, once replaced; what is still the raw features is left for
    `load_checkpoint` to rebuild. A failed write leaves `path` as it was
    (`files.replacing`)."""
    injected = {}
    if model.node_logits is not None:
        injected["node_logits"] = model.node_logits
    if model.label_block is not model.label_features:
        injected["label_block"] = model.label_block
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "epoch": epoch,
        "fingerprint": fingerprint,
        "node_count": model.node_features.shape[0],
        "label_count": model.label_features.shape[0],
        "injected": list(injected),
        "weight_keys": list(model.weights),
        "projection_keys": list(model.projections),
        "dropout_rng_state": model.dropout_rng.bit_generator.state,
        "optimizer_steps": optimizer.step_count if optimizer else 0,
    }
    arrays = {"embeddings": np.asarray(embeddings, dtype=np.float64),
              **injected}
    for key, w in model.weights.items():
        arrays[f"weight__{key}"] = w
    for key, w in model.projections.items():
        arrays[f"projection__{key}"] = w
    if optimizer is not None and config.optimizer == "adam":
        for key, a in optimizer.m.items():
            arrays[f"adam_m__{key}"] = a
        for key, a in optimizer.v.items():
            arrays[f"adam_v__{key}"] = a
    with replacing(path) as fh:
        np.savez(fh, __meta__=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


def read_checkpoint(path):
    """Read and check a checkpoint without building a model; returns
    (meta, config, arrays, dropout_rng), where `arrays` holds the
    embeddings, the listed injected arrays, and each weight and projection
    under its `weight__` or `projection__` name.

    Raises CheckpointError for a file that is not a complete checkpoint
    archive, lacks an entry, carries an unknown config field, another
    version than this build writes, counts, an epoch or a fingerprint of
    the wrong type or a dropout rng state that does not load, or holds
    embeddings, node logits, a label block, weights or projections of
    other shapes than its config lays out.
    """
    try:
        # np.load leaves a file it opened open when the archive is broken
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            if meta["version"] != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {meta['version']} "
                    f"(this build reads version {CHECKPOINT_VERSION})")
            config = TrainConfig(**meta["config"])
            n, m = meta["node_count"], meta["label_count"]
            # a shape check passes a float or bool count that equals it
            if not (type(n) is type(m) is type(meta["epoch"]) is int
                    and isinstance(meta["fingerprint"], str)):
                raise CheckpointError(f"{path}: bad counts, epoch or "
                                      f"fingerprint in the metadata")
            d = config.feature_dim or n + m  # as `input_features` lays out
            injected = {"node_logits": (n, m), "label_block": (m, d)}
            expected = {"embeddings": (n, m)}
            expected.update((name, injected[name]) for name in meta["injected"])
            arrays = {}
            for name, shape in expected.items():
                arrays[name] = data[name]
                if arrays[name].shape != shape:
                    raise CheckpointError(
                        f"{path}: {name} {arrays[name].shape} does not "
                        f"match the expected {shape}")
            layouts = {"weight": weight_shapes(config, d, m),
                       "projection": projection_shapes(config, d, m)}
            for kind, layout in layouts.items():
                stored = {k: data[f"{kind}__{k}"] for k in meta[f"{kind}_keys"]}
                shapes = {k: a.shape for k, a in stored.items()}
                if shapes != layout:
                    raise CheckpointError(
                        f"{path}: {kind} shapes {shapes} do not match the "
                        f"{config.variant} layout {layout}")
                arrays.update((f"{kind}__{k}", a) for k, a in stored.items())
            dropout_rng = rng_stream(config.seed, "dropout")
            dropout_rng.bit_generator.state = meta["dropout_rng_state"]
            return meta, config, arrays, dropout_rng
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint "
                              f"({type(exc).__name__}: {exc})") from exc


def load_checkpoint(path):
    """Load a checkpoint (`read_checkpoint`); returns (model, config,
    epoch, fingerprint).

    `input_features` rebuilds the raw features for the stored n and m;
    without stored node logits the label view reads the raw X, and an
    unlisted label block is the raw Y itself.
    """
    meta, config, arrays, dropout_rng = read_checkpoint(path)
    x, y = input_features(meta["node_count"], meta["label_count"], config)
    injected = {"node_logits": None, "label_block": y}
    injected.update((name, arrays[name]) for name in meta["injected"])
    model = ModelState(
        weights={k: arrays[f"weight__{k}"] for k in meta["weight_keys"]},
        projections={k: arrays[f"projection__{k}"]
                     for k in meta["projection_keys"]},
        node_features=x, label_features=y, **injected,
        dropout_rng=dropout_rng)
    return model, config, meta["epoch"], meta["fingerprint"]
