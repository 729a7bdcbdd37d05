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

from .graph import DataSplit, MultiLabelGraph
from .kernels import (LayerCache, backward, forward_stack, multi_label_loss,
                      multi_label_loss_grad, relu, single_label_loss,
                      single_label_loss_grad, softmax_rows)
from .matrices import SparseMatrix
from .metrics import evaluate
from .operators import GraphOperators, build_operators
from .rng import rng_stream

__all__ = [
    "VARIANTS", "TrainConfig", "ModelState", "TrainHistory", "TrainResult",
    "DivergenceError", "CheckpointError", "layer_table", "weight_shapes",
    "input_features", "init_model", "forward_label_gcn", "forward_node_gcn",
    "inject_label_features", "inject_node_features", "sgd_step", "train",
    "save_checkpoint", "load_checkpoint",
]

VARIANTS = ("full", "node", "1n", "2l", "gcn_baseline")

CHECKPOINT_VERSION = 3


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
    """Trainable weights, frozen projections, the raw input features, the
    current injected feature blocks, and the dropout stream.

    The raw features come from `input_features` and are never stored: a
    checkpoint rebuilds them from its config. The injected blocks start as
    the raw features and are replaced, never written in place.

    `propagated` holds, per view, the first layer's ``op @ H`` together
    with the operator and the input blocks it was computed from. It is
    derived from the rest, so checkpoints do not store it.
    """

    weights: dict[str, np.ndarray]
    projections: dict[str, np.ndarray]
    node_features: np.ndarray | SparseMatrix  # raw X (n x d), the node view's
                                              # leading rows; CSR when one-hot
    label_features: np.ndarray  # raw Y (m x d), the label view's leading rows
    node_block: np.ndarray | SparseMatrix  # attribute features of the label
                                           # view (starts as raw X)
    label_block: np.ndarray     # attribute features of the node view (starts as raw Y)
    dropout_rng: np.random.Generator
    propagated: dict[str, tuple[tuple, np.ndarray]] = field(
        default_factory=dict, repr=False)


@dataclass
class TrainHistory:
    label_loss: list[float] = field(default_factory=list)
    node_loss: list[float] = field(default_factory=list)
    total_loss: list[float] = field(default_factory=list)
    val_micro_f1: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.total_loss)


@dataclass
class TrainResult:
    model: ModelState
    history: TrainHistory
    embeddings: np.ndarray  # final eval-mode node logits, n x m
    optimizer: _Optimizer   # its step count and Adam moments go into checkpoints


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
    """Glorot-uniform weights and projections from the seed's init stream,
    drawn in `weight_shapes` order; the raw features from `input_features`,
    which the injected blocks start as."""
    m = graph.label_count
    x, y = input_features(graph.node_count, m, config)
    d = x.shape[1]
    rng = rng_stream(config.seed, "init")

    weights = {key: _glorot(rng, *shape)
               for key, shape in weight_shapes(config, d, m).items()}
    projections: dict[str, np.ndarray] = {}
    if layer_table(config)["label"]:
        projections["proj_node"] = _glorot(rng, m, d)   # maps node logits to features
        projections["proj_label"] = _glorot(rng, m, d)  # maps label logits to features

    return ModelState(
        weights=weights, projections=projections, node_features=x,
        label_features=y, node_block=x, label_block=y,
        dropout_rng=rng_stream(config.seed, "dropout"))


def _stack(operators: GraphOperators, config: TrainConfig,
           view: str) -> list[tuple[SparseMatrix, str]]:
    """(operator, weight key) per layer of one view's stack."""
    view_ops = getattr(operators, view)
    return [(getattr(view_ops, name), key)
            for name, key in layer_table(config)[view]]


def _forward_view(operators: GraphOperators, model: ModelState,
                  config: TrainConfig, view: str,
                  blocks: list[np.ndarray | SparseMatrix], training: bool
                  ) -> tuple[np.ndarray, list[LayerCache]]:
    """Walk one view's stack over its input blocks, stacked row-wise: as
    one CSR matrix when any block is sparse (the one-hot X, or the label
    view's node block before its first injection), else as a dense array.

    A forward that draws no dropout takes the first layer's ``op @ H`` from
    `model.propagated` when it was computed from this very operator and
    these very blocks, and otherwise stores the one it computes. Identity
    suffices because blocks are replaced, never written in place, so an
    injection makes the next forward of the other view recompute.
    """
    layers = _stack(operators, config, view)
    if len(blocks) == 1:
        h = blocks[0]
    elif any(map(sp.issparse, blocks)):
        h = SparseMatrix(sp.vstack(blocks, format="csr"))
    else:
        h = np.vstack(blocks)
    drawn = training and config.dropout > 0.0
    sources = (layers[0][0], *blocks) if layers else ()
    product = None
    if not drawn and view in model.propagated:
        stored_sources, stored = model.propagated[view]
        # both tuples hold their objects alive, so equal ids mean `is`
        if list(map(id, stored_sources)) == list(map(id, sources)):
            product = stored
    out, caches = forward_stack(layers, h, model.weights, config.dropout,
                                training, model.dropout_rng, product)
    if not drawn and product is None and caches and caches[0].propagated_first:
        model.propagated[view] = (sources, caches[0].weight_input)
    return out, caches


def forward_label_gcn(operators: GraphOperators, model: ModelState,
                      config: TrainConfig, training: bool = False
                      ) -> tuple[np.ndarray, list[LayerCache]]:
    """Label-view logits (m x m) from the raw label features over the
    injected node block."""
    return _forward_view(operators, model, config, "label",
                         [model.label_features, model.node_block], training)


def forward_node_gcn(operators: GraphOperators, model: ModelState,
                     config: TrainConfig, training: bool = False
                     ) -> tuple[np.ndarray, list[LayerCache]]:
    """Node-view logits (n x m): from the raw node features over the
    injected label block, or, for a model without a label stack (the
    plain-GCN baseline), from the raw node features alone."""
    blocks = [model.node_features]
    if layer_table(config)["label"]:
        blocks.append(model.label_block)
    return _forward_view(operators, model, config, "node", blocks, training)


def inject_node_features(model: ModelState, node_logits: np.ndarray) -> np.ndarray:
    """Replace the label view's attribute block with projected node logits."""
    model.node_block = relu(node_logits @ model.projections["proj_node"])
    return model.node_block


def inject_label_features(model: ModelState, label_logits: np.ndarray) -> np.ndarray:
    """Replace the node view's attribute block with projected label logits."""
    model.label_block = relu(label_logits @ model.projections["proj_label"])
    return model.label_block


class _Optimizer:
    """Plain gradient descent or Adam; weight decay enters as an L2 term.

    A step updates the weights, and Adam's moments, in place. Its
    temporaries live in two buffers per weight, allocated on the first
    step, and every value is computed by the same operations in the same
    order as the textbook formulas in the comments.
    """

    def __init__(self, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.buffers: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, model: ModelState, grads: dict[str, np.ndarray]):
        cfg = self.config
        self.step_count += 1
        for key, g in grads.items():
            if np.any(np.isnan(g)):
                raise ValueError(f"diverged: NaN gradient for {key}")
            w = model.weights[key]
            if key not in self.buffers:
                self.buffers[key] = (np.empty_like(w), np.empty_like(w))
            a, b = self.buffers[key]
            # a = g + decay * w
            np.multiply(cfg.weight_decay, w, out=a)
            np.add(g, a, out=a)
            if cfg.optimizer == "gd":
                # w = w - lr * a
                np.multiply(cfg.learning_rate, a, out=a)
                np.subtract(w, a, out=w)
                continue
            b1, b2, eps = 0.9, 0.999, 1e-8
            if key not in self.m:
                self.m[key], self.v[key] = np.zeros_like(w), np.zeros_like(w)
            m, v = self.m[key], self.v[key]
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
            np.subtract(w, a, out=w)


def sgd_step(model: ModelState, grads: dict[str, np.ndarray],
             config: TrainConfig, optimizer: _Optimizer | None = None) -> ModelState:
    """One optimizer step; raises on NaN gradients."""
    (optimizer or _Optimizer(config)).step(model, grads)
    return model


def train(graph: MultiLabelGraph, split: DataSplit, config: TrainConfig,
          rule: str = "top_k_true", threshold: float = 0.5) -> TrainResult:
    """Run the full alternating schedule for `config.epochs` epochs.

    Per epoch: label forward (skipped when there is no label stack, as in
    the plain-GCN baseline, where the label loss is identically zero), node
    forward with the masked multi-label loss, scheduled cross-injections,
    one optimizer step on the summed loss, and an eval-mode validation
    Micro-F1. Deterministic for a fixed (seed, config).
    """
    if split.train_nodes.size == 0:
        raise ValueError("no labeled nodes")
    coupled = bool(layer_table(config)["label"])
    operators = build_operators(graph, config.variant,
                                config.binarize_cooccurrence)
    model = init_model(graph, config)
    optimizer = _Optimizer(config)
    history = TrainHistory()

    node_targets = graph.label_assignments.to_dense()
    label_targets = np.eye(graph.label_count)
    train_mask = split.train_nodes
    # the last epoch's eval-mode validation forward doubles as the final one
    embeddings = None

    for epoch in range(config.epochs):
        t0 = time.perf_counter()

        label_loss, label_caches, d_label = 0.0, None, None
        if coupled:
            label_logits, label_caches = forward_label_gcn(
                operators, model, config, training=True)
            z = softmax_rows(label_logits)
            label_loss = single_label_loss(z, label_targets)
            d_label = single_label_loss_grad(z, label_targets)

        node_logits, node_caches = forward_node_gcn(
            operators, model, config, training=True)
        node_loss = multi_label_loss(node_logits, node_targets, train_mask)
        total = label_loss + node_loss
        if not np.isfinite(total):
            raise DivergenceError(epoch)

        if coupled:
            skip = config.skip_epoch0_injection and epoch == 0
            if epoch % config.update_freq_nodes == 0 and not skip:
                inject_node_features(model, node_logits)
            if epoch % config.update_freq_labels == 0 and not skip:
                inject_label_features(model, label_logits)

        d_node = multi_label_loss_grad(node_logits, node_targets, train_mask)
        try:
            grads = backward(label_caches, d_label, node_caches, d_node)
            sgd_step(model, grads, config, optimizer)
        except (FloatingPointError, ValueError) as exc:
            raise DivergenceError(epoch, str(exc)) from exc
        # spent: freeing them here keeps them out of the validation forward
        # and out of the next epoch's forwards, where memory peaks
        del label_caches, node_caches, grads

        if split.val_nodes.size:
            embeddings, _ = forward_node_gcn(operators, model, config,
                                             training=False)
            val_f1 = evaluate(embeddings, node_targets, split.val_nodes,
                              rule=rule, threshold=threshold).micro_f1
        else:
            val_f1 = float("nan")

        history.label_loss.append(label_loss)
        history.node_loss.append(node_loss)
        history.total_loss.append(total)
        history.val_micro_f1.append(val_f1)
        history.epoch_seconds.append(time.perf_counter() - t0)

    if embeddings is None:
        embeddings, _ = forward_node_gcn(operators, model, config,
                                         training=False)
    return TrainResult(model=model, history=history, embeddings=embeddings,
                       optimizer=optimizer)


# -- checkpointing ----------------------------------------------------------

def save_checkpoint(path, model: ModelState, config: TrainConfig,
                    epoch: int, fingerprint: str,
                    optimizer: _Optimizer | None = None):
    """Versioned npz dump of weights, projections, injected blocks, rng
    state, config and the dataset fingerprint."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "epoch": epoch,
        "fingerprint": fingerprint,
        "weight_keys": list(model.weights),
        "projection_keys": list(model.projections),
        "dropout_rng_state": model.dropout_rng.bit_generator.state,
        "optimizer_steps": optimizer.step_count if optimizer else 0,
    }
    arrays: dict[str, np.ndarray] = {}
    for key, w in model.weights.items():
        arrays[f"weight__{key}"] = w
    for key, w in model.projections.items():
        arrays[f"projection__{key}"] = w
    # until its first injection the node block is the sparse raw X
    node_block = model.node_block
    arrays["node_block"] = (node_block.toarray() if sp.issparse(node_block)
                            else node_block)
    arrays["label_block"] = model.label_block
    if optimizer is not None and config.optimizer == "adam":
        for key, a in optimizer.m.items():
            arrays[f"adam_m__{key}"] = a
        for key, a in optimizer.v.items():
            arrays[f"adam_v__{key}"] = a
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


def load_checkpoint(path):
    """Load a checkpoint; returns (model, config, epoch, fingerprint).

    The raw features are rebuilt by `input_features` for the n and m rows
    of the stored injected blocks. Raises CheckpointError for a file that
    is not a complete checkpoint archive, lacks an entry, carries an
    unknown config field, has another version than this build writes,
    holds blocks of another shape than those features, or holds other
    weights than `weight_shapes` lays out for its config.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            if meta["version"] != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {meta['version']} "
                    f"(this build reads version {CHECKPOINT_VERSION})")
            config = TrainConfig(**meta["config"])
            weights = {k: data[f"weight__{k}"] for k in meta["weight_keys"]}
            node_block, label_block = data["node_block"], data["label_block"]
            x, y = input_features(len(node_block), len(label_block), config)
            if (node_block.shape, label_block.shape) != (x.shape, y.shape):
                raise CheckpointError(
                    f"{path}: injected blocks node_block {node_block.shape} "
                    f"and label_block {label_block.shape} do not match the "
                    f"features its config gives, {x.shape} and {y.shape}")
            # a block saved before its first injection is X written dense;
            # it resumes as the sparse X that training stacks
            if sp.issparse(x) and np.array_equal(node_block, x.toarray()):
                node_block = x
            m, d = y.shape
            shapes = weight_shapes(config, d, m)
            stored = {k: w.shape for k, w in weights.items()}
            if stored != shapes:
                raise CheckpointError(
                    f"{path}: weight shapes {stored} do not match the "
                    f"{config.variant} layout {shapes}")
            projections = {k: data[f"projection__{k}"]
                           for k in meta["projection_keys"]}
            model = ModelState(
                weights=weights, projections=projections, node_features=x,
                label_features=y, node_block=node_block,
                label_block=label_block,
                dropout_rng=rng_stream(config.seed, "dropout"))
            model.dropout_rng.bit_generator.state = meta["dropout_rng_state"]
            return model, config, meta["epoch"], meta["fingerprint"]
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint "
                              f"({type(exc).__name__}: {exc})") from exc
