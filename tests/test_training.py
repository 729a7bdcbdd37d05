import dataclasses
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from mlgcn import training
from mlgcn.datasets import SyntheticConfig, generate_synthetic
from mlgcn.kernels import (gcn_layer_forward, multi_label_loss,
                           single_label_loss, single_label_loss_grad,
                           softmax_rows)
from mlgcn.graph import DataSplit
from mlgcn.metrics import split_dataset
from mlgcn.operators import build_operators
from mlgcn.training import (VARIANTS, DivergenceError, ModelState,
                            TrainConfig, TrainState, forward_label_gcn,
                            forward_node_gcn, init_model,
                            inject_label_features, inject_node_features,
                            input_features, layer_table, _Optimizer, sgd_step,
                            train, train_epoch)
from mlgcn.matrices import SparseMatrix
from mlgcn.rng import rng_stream

from helpers import assert_stored_embeddings, node_block


def small_graph(seed=0, size=8, rho=0.7):
    return generate_synthetic(SyntheticConfig(communities=2,
                              community_size=size, p_intra=0.4, p_inter=0.1,
                              rho=rho, seed=seed))


def small_config(**kw):
    defaults = dict(epochs=5, hidden_dim=8, dropout=0.0, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def dense(block):
    """A feature block as a dense array; the one-hot X is stored as CSR."""
    return block.toarray() if sp.issparse(block) else block


def label_view_input(model):
    """Raw label features over the injected node block."""
    return np.vstack([model.label_features, dense(node_block(model))])


def node_view_input(model):
    """Raw node features over the injected label block."""
    return np.vstack([dense(model.node_features), model.label_block])


def raw_features(g, cfg):
    return input_features(g.node_count, g.label_count, cfg)


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.02
        assert cfg.epochs == 300
        assert cfg.hidden_dim == 400
        assert cfg.train_ratio == 0.2
        assert cfg.update_freq_nodes == 50
        assert cfg.update_freq_labels == 50
        assert cfg.dropout == 0.5
        assert cfg.weight_decay == 0.0
        assert cfg.node_gcn_layers == 2
        assert cfg.label_gcn_layers == 1
        assert cfg.variant == "full"
        assert cfg.optimizer == "gd"

    def test_variant_presets_override_layer_counts(self):
        def ops(**kw):
            return {view: [name for name, _ in layers]
                    for view, layers in layer_table(TrainConfig(**kw)).items()}
        full = {"label": ["truncated"], "node": ["truncated", "intra"]}
        assert ops() == ops(variant="node") == full
        assert ops(variant="1n", node_gcn_layers=2) == {
            "label": ["truncated"], "node": ["truncated"]}
        assert ops(variant="2l", label_gcn_layers=1) == {
            "label": ["truncated", "intra"], "node": ["truncated", "intra"]}
        assert ops(label_gcn_layers=2, node_gcn_layers=1) == {
            "label": ["truncated", "intra"], "node": ["truncated"]}
        assert ops(variant="gcn_baseline") == {
            "label": [], "node": ["intra", "intra"]}
        assert ops(variant="gcn_baseline", node_gcn_layers=1) == {
            "label": [], "node": ["intra"]}
        assert layer_table(TrainConfig(variant="2l"))["label"] == [
            ("truncated", "w0_label"), ("intra", "w1_label")]

    @pytest.mark.parametrize("kw", [
        dict(learning_rate=-0.1), dict(epochs=0), dict(train_ratio=0.0),
        dict(train_ratio=1.0), dict(update_freq_nodes=0), dict(dropout=1.0),
        dict(node_gcn_layers=3), dict(variant="bogus"), dict(optimizer="sgd"),
        dict(feature_dim=-1),
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestInputFeatures:
    def test_identity_slice(self):
        x, _ = input_features(3, 2, TrainConfig())
        assert np.array_equal(x.toarray(), [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                            [0, 0, 1, 0, 0]])

    def test_shifted_slice(self):
        _, y = input_features(3, 2, TrainConfig())
        assert np.array_equal(y, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])

    def test_each_row_single_one(self):
        x, y = input_features(7, 3, TrainConfig())
        for f in (x.toarray(), y):
            assert f.dtype == np.float64 and f.shape[1] == 10
            assert np.array_equal(f.sum(axis=1), np.ones(len(f)))
            assert set(np.unique(f)) <= {0.0, 1.0}

    def test_gaussian_features(self):
        cfg = TrainConfig(feature_dim=8, seed=3)
        x, y = input_features(2, 1, cfg)
        assert x.shape == (2, 8)
        assert y.shape == (1, 8)
        again_x, again_y = input_features(2, 1, cfg)
        assert np.array_equal(x, again_x) and np.array_equal(y, again_y)
        # node rows first, then label rows, from the seed's features stream
        rng = rng_stream(3, "features")
        assert np.array_equal(x, rng.normal(0.0, 1 / np.sqrt(8), size=(2, 8)))
        assert np.array_equal(y, rng.normal(0.0, 1 / np.sqrt(8), size=(1, 8)))


class TestInitModel:
    def test_same_seed_identical_weights(self):
        g = small_graph()
        cfg = small_config()
        a = init_model(g, cfg)
        b = init_model(g, cfg)
        for key in a.weights:
            assert np.array_equal(a.weights[key], b.weights[key])
        for key in a.projections:
            assert np.array_equal(a.projections[key], b.projections[key])

    def test_default_first_layer_shape(self):
        g = small_graph()
        model = init_model(g, TrainConfig())
        d = g.node_count + g.label_count
        assert model.weights["w0_node"].shape == (d, 400)
        assert model.weights["w1_node"].shape == (400, g.label_count)
        assert model.weights["w0_label"].shape == (d, g.label_count)
        assert model.projections["proj_node"].shape == (g.label_count, d)

    def test_blocks_start_as_raw_features(self):
        g = small_graph()
        cfg = small_config()
        model = init_model(g, cfg)
        x, y = raw_features(g, cfg)
        assert np.array_equal(model.node_features.toarray(), x.toarray())
        assert np.array_equal(model.label_features, y)
        assert np.array_equal(node_block(model).toarray(), x.toarray())
        assert np.array_equal(model.label_block, y)

    def test_weights_take_the_feature_width(self):
        g = small_graph()
        model = init_model(g, small_config(feature_dim=6))
        assert model.node_features.shape == (g.node_count, 6)
        assert model.label_features.shape == (g.label_count, 6)
        assert model.weights["w0_node"].shape == (6, 8)
        assert model.projections["proj_label"].shape == (g.label_count, 6)

    def test_baseline_has_no_label_side(self):
        g = small_graph()
        model = init_model(g, small_config(variant="gcn_baseline"))
        assert set(model.weights) == {"w0_node", "w1_node"}
        assert model.projections == {}

    def test_projections_never_in_gradient_keys(self):
        g = small_graph()
        cfg = small_config()
        split = split_dataset(g, 0.25, seed=0)
        model = init_model(g, cfg)
        before = {k: v.copy() for k, v in model.projections.items()}
        result = train(g, split, cfg)
        for key, value in before.items():
            assert np.array_equal(result.model.projections[key], value)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("node_layers", [1, 2])
@pytest.mark.parametrize("label_layers", [1, 2])
def test_init_weights_are_the_weights_the_forwards_read(variant, node_layers,
                                                       label_layers):
    g = small_graph()
    cfg = small_config(variant=variant, node_gcn_layers=node_layers,
                       label_gcn_layers=label_layers, epochs=2)
    result = train(g, split_dataset(g, 0.25, seed=0), cfg)
    assert len(result.history) == 2
    ops = build_operators(g, variant)
    model = init_model(g, cfg)
    _, label_caches = forward_label_gcn(ops, model, cfg)
    _, node_caches = forward_node_gcn(ops, model, cfg)
    assert set(model.weights) == {c.weight_key
                                  for c in label_caches + node_caches}


class TestForwardLabelGcn:
    def test_zero_weights_give_uniform_softmax(self):
        g = small_graph()
        cfg = small_config()
        model = init_model(g, cfg)
        model.weights["w0_label"] = np.zeros_like(model.weights["w0_label"])
        logits, _ = forward_label_gcn(build_operators(g), model, cfg)
        z = softmax_rows(logits)
        m = g.label_count
        assert np.allclose(z, np.full((m, m), 1.0 / m), atol=1e-15)

    def test_one_layer_matches_dense_oracle(self):
        g = small_graph(seed=3)
        cfg = small_config()
        ops = build_operators(g)
        model = init_model(g, cfg)
        logits, _ = forward_label_gcn(ops, model, cfg)
        oracle = (ops.label.truncated.to_dense()
                  @ label_view_input(model)
                  @ model.weights["w0_label"])
        assert np.abs(logits - oracle).max() <= 1e-12

    def test_two_layer_composes_through_intra_operator(self):
        g = small_graph(seed=4)
        cfg = small_config(variant="2l")
        ops = build_operators(g)
        model = init_model(g, cfg)
        model.weights["w1_label"] = np.eye(cfg.hidden_dim, g.label_count)
        logits, _ = forward_label_gcn(ops, model, cfg)
        hidden_oracle = np.maximum(
            ops.label.truncated.to_dense() @ label_view_input(model)
            @ model.weights["w0_label"], 0.0)
        oracle = (ops.label.intra.to_dense() @ hidden_oracle
                  @ model.weights["w1_label"])
        assert np.abs(logits - oracle).max() <= 1e-12


class TestForwardNodeGcn:
    def test_zero_weights_loss_closed_form(self):
        g = small_graph()
        cfg = small_config()
        model = init_model(g, cfg)
        model.weights["w0_node"] = np.zeros_like(model.weights["w0_node"])
        model.weights["w1_node"] = np.zeros_like(model.weights["w1_node"])
        logits, _ = forward_node_gcn(build_operators(g), model, cfg)
        mask = np.arange(5)
        loss = multi_label_loss(logits, g.label_assignments.to_dense(), mask)
        expected = mask.size * g.label_count * np.log(2.0)
        assert abs(loss - expected) < 1e-9

    def test_two_layer_matches_dense_oracle(self):
        g = small_graph(seed=5)
        cfg = small_config()
        ops = build_operators(g)
        model = init_model(g, cfg)
        logits, _ = forward_node_gcn(ops, model, cfg)
        hidden = np.maximum(
            ops.node.truncated.to_dense() @ node_view_input(model)
            @ model.weights["w0_node"], 0.0)
        oracle = ops.node.intra.to_dense() @ hidden @ model.weights["w1_node"]
        assert np.abs(logits - oracle).max() <= 1e-12

    def test_one_layer_variant_skips_relu_and_intra(self):
        g = small_graph(seed=6)
        cfg = small_config(variant="1n")
        ops = build_operators(g)
        model = init_model(g, cfg)
        assert set(model.weights) == {"w0_node", "w0_label"}
        logits, caches = forward_node_gcn(ops, model, cfg)
        assert len(caches) == 1
        oracle = (ops.node.truncated.to_dense()
                  @ node_view_input(model) @ model.weights["w0_node"])
        assert np.abs(logits - oracle).max() <= 1e-12
        assert logits.min() < 0  # no relu on the output

    def test_baseline_is_plain_two_layer_gcn(self):
        g = small_graph(seed=7)
        cfg = small_config(variant="gcn_baseline")
        ops = build_operators(g, "gcn_baseline")
        model = init_model(g, cfg)
        logits, _ = forward_node_gcn(ops, model, cfg)
        a_norm = ops.node.intra.to_dense()
        x, _ = raw_features(g, cfg)
        hidden = np.maximum(a_norm @ x @ model.weights["w0_node"], 0.0)
        oracle = a_norm @ hidden @ model.weights["w1_node"]
        assert np.abs(logits - oracle).max() <= 1e-12


class TestInjections:
    def test_zero_logits_zero_blocks(self):
        g = small_graph()
        model = init_model(g, small_config())
        inject_node_features(model, np.zeros((g.node_count, g.label_count)))
        inject_label_features(model, np.zeros((g.label_count, g.label_count)))
        assert np.all(node_block(model) == 0)
        assert np.all(model.label_block == 0)

    def test_hand_product(self):
        g = small_graph()
        model = init_model(g, small_config())
        logits = np.arange(g.node_count * g.label_count,
                           dtype=float).reshape(g.node_count, -1) - 10.0
        kept = inject_node_features(model, logits)
        # the model keeps its own copy of the logits
        assert kept is model.node_logits and kept is not logits
        assert np.array_equal(kept, logits)
        oracle = np.maximum(logits @ model.projections["proj_node"], 0.0)
        assert np.array_equal(node_block(model), oracle)

    def test_stacks_keep_raw_primary_blocks(self):
        # each view's input is the raw features, untouched by injections,
        # over the other view's injected block
        g = small_graph()
        cfg = small_config()
        ops = build_operators(g)
        model = init_model(g, cfg)
        inject_node_features(model, np.ones((g.node_count, g.label_count)))
        inject_label_features(model, np.ones((g.label_count, g.label_count)))
        x, y = raw_features(g, cfg)
        label_logits, _ = forward_label_gcn(ops, model, cfg)
        oracle = (ops.label.truncated.to_dense()
                  @ np.vstack([y, node_block(model)]) @ model.weights["w0_label"])
        assert np.abs(label_logits - oracle).max() <= 1e-12
        node_logits, _ = forward_node_gcn(ops, model, cfg)
        hidden = np.maximum(ops.node.truncated.to_dense()
                            @ np.vstack([x.toarray(), model.label_block])
                            @ model.weights["w0_node"], 0.0)
        oracle = ops.node.intra.to_dense() @ hidden @ model.weights["w1_node"]
        assert np.abs(node_logits - oracle).max() <= 1e-12


def stacked_label_forward(ops, model, cfg, rng):
    """The label view's training forward written as before the node logits
    were kept: [Y; relu(logits @ proj_node)] stacked by `np.vstack` (or
    `scipy.sparse.vstack` over the one-hot X before any node injection),
    then each layer drawing its own dropout with its generator. Returns the
    stacked input, the logits and the caches."""
    x, y = model.node_features, model.label_features
    if model.node_logits is not None:
        h = np.vstack([y, np.maximum(
            model.node_logits @ model.projections["proj_node"], 0.0)])
    elif sp.issparse(x):
        h = SparseMatrix(sp.vstack([y, x], format="csr"))
    else:
        h = np.vstack([y, x])
    stacked, caches = h, []
    layers = layer_table(cfg)["label"]
    for idx, (name, key) in enumerate(layers):
        h, cache = gcn_layer_forward(
            getattr(ops.label, name), h, model.weights[key],
            activation="identity" if idx == len(layers) - 1 else "relu",
            dropout=cfg.dropout, training=True, rng=rng, weight_key=key)
        caches.append(cache)
    return stacked, h, caches


def record_layer_inputs(monkeypatch):
    """Every layer's input `h`, in call order. A first layer that streams
    its input (`kernels._propagate`) sees only a stand-in of its shape; it
    is recorded with the input it streamed, written whole when it came from
    a row writer."""
    import mlgcn.kernels as kernels
    seen, streamed = [], []
    layer, propagate = kernels.gcn_layer_forward, kernels._propagate

    def recording(op, h, *args, **kwargs):
        seen.append(streamed.pop() if streamed else h)
        return layer(op, h, *args, **kwargs)

    def streaming(op, h, shape, *args):
        whole = h
        if callable(h):
            whole = np.empty(shape)
            h(0, shape[0], whole)
        streamed.append(whole)
        return propagate(op, h, shape, *args)
    monkeypatch.setattr(kernels, "gcn_layer_forward", recording)
    monkeypatch.setattr(kernels, "_propagate", streaming)
    return seen


def stored_bytes(a):
    if a is None:
        return None
    return a.data.tobytes() if sp.issparse(a) else a.tobytes()


def model_arrays(value):
    """Every array a model holds, walking dataclass fields, dicts and
    tuples."""
    if isinstance(value, (np.ndarray, SparseMatrix)):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from model_arrays(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from model_arrays(v)
    elif isinstance(value, ModelState):
        for name in ModelState.__dataclass_fields__:
            yield from model_arrays(getattr(value, name))


class TestLabelInput:
    """The label view streams [Y; relu(logits @ proj_node)] from the kept
    node logits, and gives the stacked formula's bits."""

    @pytest.mark.parametrize("feature_dim", [0, 5])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("variant",
                             [v for v in VARIANTS if v != "gcn_baseline"])
    def test_matches_the_stacked_formula(self, monkeypatch, variant, dropout,
                                         feature_dim):
        g = small_graph(seed=35)
        cfg = small_config(variant=variant, dropout=dropout,
                           feature_dim=feature_dim)
        ops = build_operators(g, variant)
        model = init_model(g, cfg)
        seen = record_layer_inputs(monkeypatch)
        for injected in (False, True):
            if injected:
                node_logits, _ = forward_node_gcn(ops, model, cfg)
                inject_node_features(model, node_logits)
            ref_rng = np.random.default_rng()
            ref_rng.bit_generator.state = model.dropout_rng.bit_generator.state
            stacked, ref, ref_caches = stacked_label_forward(ops, model, cfg,
                                                             ref_rng)
            seen.clear()
            out, caches = forward_label_gcn(ops, model, cfg, training=True)
            assert isinstance(seen[0], np.ndarray) == (
                injected or feature_dim > 0)
            if sp.issparse(stacked):
                assert np.array_equal(seen[0].toarray(), stacked.toarray())
            else:
                assert seen[0].tobytes() == stacked.tobytes()
            assert out.tobytes() == ref.tobytes()
            assert (model.dropout_rng.bit_generator.state
                    == ref_rng.bit_generator.state)
            for idx, (cache, want) in enumerate(zip(caches, ref_caches)):
                assert cache.propagated_first == want.propagated_first
                assert (stored_bytes(cache.weight_input)
                        == stored_bytes(want.weight_input))
                assert (cache.pre_activation.tobytes()
                        == want.pre_activation.tobytes())
                if idx:
                    assert stored_bytes(cache.mask) == stored_bytes(want.mask)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_no_node_by_feature_array_is_kept(self, dropout):
        # one-hot features: X is sparse, the node logits are n x m, and the
        # label view's input is built per forward and not kept
        g = small_graph(seed=37, size=30)
        split = split_dataset(g, 0.25, seed=37)
        n, m = g.node_count, g.label_count
        cfg = small_config(epochs=3, dropout=dropout, update_freq_nodes=2)
        model = train(g, split, cfg).model
        assert model.node_logits.shape == (n, m)
        dense_sizes = [a.size for a in model_arrays(model)
                       if isinstance(a, np.ndarray)]
        assert max(dense_sizes) < n * (n + m)

    @pytest.mark.parametrize("size", [200, 600])
    def test_dropout_forward_holds_two_blocks(self, size):
        # after an injection a dropout label forward holds two row blocks,
        # the written rows and their draws, and the m x d product: its peak
        # does not grow with the node count
        import tracemalloc
        import mlgcn.kernels as kernels
        g = small_graph(seed=38, size=size)
        n, m = g.node_count, g.label_count
        d = n + m
        cfg = small_config(dropout=0.5)
        ops = build_operators(g)
        model = init_model(g, cfg)
        node_logits, _ = forward_node_gcn(ops, model, cfg)
        inject_node_features(model, node_logits)
        del node_logits
        blocks = kernels._row_blocks(m + n, d, kernels._BLOCK_VALUES)
        assert len(blocks) > 1
        block = max(stop - start for start, stop in blocks) * d * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            forward_label_gcn(ops, model, cfg, training=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = kernels._BLOCK_VALUES * 8 / 4
        assert peak - base <= 2 * block + m * d * 8 + slack

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("n,m,d,folded", [
        (600, 8, 608, False),     # onehot_train's label view (d = n + m)
        (10312, 39, 128, False),  # bc's (BlogCatalog-sized, 128-d features)
        (427, 8, 608, True),      # 435 rows: a 5-row tail joins the last block
        (2019, 39, 128, True),    # 2058 rows: a 10-row tail does
    ])
    def test_streamed_forward_matches_the_stacked_formula(self, n, m, d,
                                                          folded, dropout):
        # at the shipped block size, against [Y; relu(logits @ proj_node)]
        # stacked whole and one whole draw
        import mlgcn.kernels as kernels
        from mlgcn.kernels import forward_stack
        rng = np.random.default_rng(n)
        dense_op = rng.random((m, m + n)) * (rng.random((m, m + n)) < 0.04)
        op = SparseMatrix(dense_op / np.maximum(dense_op.sum(1, keepdims=True),
                                                1.0))
        limit = np.sqrt(6.0 / (m + d))
        model = ModelState(
            weights={"w0_label": rng.uniform(-limit, limit, (d, m))},
            projections={"proj_node": rng.uniform(-limit, limit, (m, d))},
            node_features=np.zeros((n, d)),
            label_features=rng.normal(0.0, 1 / np.sqrt(d), (m, d)),
            node_logits=rng.standard_normal((n, m)) * 3,
            label_block=np.zeros((m, d)), dropout_rng=rng_stream(n, "dropout"))
        blocks = kernels._row_blocks(m + n, d, kernels._BLOCK_VALUES)
        sizes = [stop - start for start, stop in blocks]
        assert len(blocks) > 1 and (sizes[-1] > sizes[0]) == folded
        layers = [(op, "w0_label")]
        stacked = np.vstack([model.label_features, np.maximum(
            model.node_logits @ model.projections["proj_node"], 0.0)])
        ref_rng = rng_stream(n, "dropout")
        ref, ref_cache = gcn_layer_forward(
            op, stacked, model.weights["w0_label"], activation="identity",
            dropout=dropout, training=True, rng=ref_rng, weight_key="w0_label")
        assert ref_cache.propagated_first
        out, caches = forward_stack(layers, training._label_input(model),
                                    model.weights, dropout, True,
                                    model.dropout_rng)
        assert out.tobytes() == ref.tobytes()
        assert (caches[0].weight_input.tobytes()
                == ref_cache.weight_input.tobytes())
        assert (model.dropout_rng.bit_generator.state
                == ref_rng.bit_generator.state)


class TestSgdStep:
    def tiny_model(self, w):
        return ModelState(weights={"w": np.array(w, dtype=float)},
                          projections={},
                          node_features=np.zeros((1, 1)),
                          label_features=np.zeros((1, 1)),
                          node_logits=None,
                          label_block=np.zeros((1, 1)),
                          dropout_rng=rng_stream(0, "dropout"))

    def test_zero_gradient_no_change(self):
        model = self.tiny_model([[1.0, -2.0]])
        sgd_step(model, {"w": np.zeros((1, 2))}, small_config())
        assert np.array_equal(model.weights["w"], [[1.0, -2.0]])

    def test_scalar_arithmetic(self):
        model = self.tiny_model([[1.0]])
        sgd_step(model, {"w": np.array([[0.5]])},
                 small_config(learning_rate=0.02))
        assert abs(model.weights["w"][0, 0] - 0.99) < 1e-15

    def test_weight_decay_term(self):
        model = self.tiny_model([[2.0]])
        sgd_step(model, {"w": np.array([[0.0]])},
                 small_config(learning_rate=0.1, weight_decay=0.5))
        # w <- w - lr * decay * w = 2 - 0.1*0.5*2
        assert abs(model.weights["w"][0, 0] - 1.9) < 1e-15

    def test_nan_gradient_rejected(self):
        model = self.tiny_model([[1.0]])
        with pytest.raises(ValueError, match="diverged"):
            sgd_step(model, {"w": np.array([[np.nan]])}, small_config())

    def test_adam_first_step_is_signed_lr(self):
        model = self.tiny_model([[1.0, 1.0]])
        cfg = small_config(optimizer="adam", learning_rate=0.1)
        sgd_step(model, {"w": np.array([[0.5, -0.25]])}, cfg)
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        assert np.allclose(model.weights["w"], [[0.9, 1.1]], atol=1e-6)

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_in_place_step_equals_the_formula_bitwise(self, optimizer,
                                                      monkeypatch):
        self.check_step_against_the_formula(optimizer, None)
        # with 12-value chunks "c" and the transposed "t" are larger than a
        # chunk and not a multiple of it (blocks of 2 rows)
        monkeypatch.setattr(training, "_STEP_CHUNK_VALUES", 12)
        self.check_step_against_the_formula(optimizer, 12)

    def check_step_against_the_formula(self, optimizer, chunk):
        # the textbook update, one fresh array per operation, five steps
        rng = np.random.default_rng(7)
        cfg = small_config(optimizer=optimizer, learning_rate=0.03,
                           weight_decay=0.1)
        start = {"a": rng.standard_normal((4, 3)),
                 "b": rng.standard_normal((3, 2)),
                 "c": rng.standard_normal((11, 5)),
                 "t": rng.standard_normal((6, 7)).T}
        model = self.tiny_model([[0.0]])
        model.weights = {k: w.copy(order="K") for k, w in start.items()}
        held = dict(model.weights)
        assert not model.weights["t"].flags.c_contiguous
        opt = _Optimizer(cfg)
        ref_w = {k: w.copy() for k, w in start.items()}
        ref_m = {k: np.zeros_like(w) for k, w in start.items()}
        ref_v = {k: np.zeros_like(w) for k, w in start.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
        for t in range(1, 6):
            grads = {k: rng.standard_normal(w.shape) for k, w in start.items()}
            grads["a"][0] = 0.0
            sgd_step(model, grads, cfg, opt)
            for k, g in grads.items():
                w = ref_w[k]
                g = g + cfg.weight_decay * w
                if optimizer == "gd":
                    ref_w[k] = w - lr * g
                    continue
                ref_m[k] = b1 * ref_m[k] + (1 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1 - b2) * g * g
                mhat = ref_m[k] / (1 - b1 ** t)
                vhat = ref_v[k] / (1 - b2 ** t)
                ref_w[k] = w - lr * mhat / (np.sqrt(vhat) + eps)
        assert opt.step_count == 5
        for k in start:
            assert model.weights[k] is held[k]
            assert model.weights[k].tobytes() == ref_w[k].tobytes()
            if optimizer == "adam":
                assert opt.m[k].tobytes() == ref_m[k].tobytes()
                assert opt.v[k].tobytes() == ref_v[k].tobytes()
        # one pair of buffers, at most a chunk (one row at least) each
        limit = max(12 if chunk else training._STEP_CHUNK_VALUES, 7)
        assert all(buf.size <= limit for buf in opt.buffers)


class TestFirstLayerReuse:
    """A forward handed its first-layer op @ H, and train's reuse of it."""

    def setup_method(self):
        self.g = small_graph(seed=21)
        self.ops = build_operators(self.g)
        # narrow features under a wider hidden layer: both first layers
        # propagate first
        self.cfg = small_config(feature_dim=3, hidden_dim=8)
        self.model = init_model(self.g, self.cfg)

    def truncated_products(self, monkeypatch):
        """Operators of every first-layer product: `_propagate` makes each
        one, whole or over row blocks."""
        import mlgcn.kernels as kernels
        calls, propagate = [], kernels._propagate

        def counting(op, *args):
            calls.append(op)
            return propagate(op, *args)
        monkeypatch.setattr(kernels, "_propagate", counting)
        return calls

    @pytest.mark.parametrize("view", ["label", "node"])
    def test_handed_product_gives_the_same_forward(self, monkeypatch, view):
        from mlgcn.kernels import spmm
        model, ops, cfg = self.model, self.ops, self.cfg
        forward, view_input = {
            "label": (forward_label_gcn, label_view_input),
            "node": (forward_node_gcn, node_view_input)}[view]
        node_logits, _ = forward_node_gcn(ops, model, cfg)
        inject_node_features(model, node_logits)
        ref, ref_caches = forward(ops, model, cfg)
        product = ref_caches[0].weight_input
        assert ref_caches[0].propagated_first
        assert np.array_equal(product, spmm(getattr(ops, view).truncated,
                                            view_input(model)))
        built = []
        for name in ("_label_input", "_stacked"):
            def recording(*args, fn=getattr(training, name), name=name):
                built.append(name)
                return fn(*args)
            monkeypatch.setattr(training, name, recording)
        out, caches = forward(ops, model, cfg, propagated=product)
        # the label view's input is a row writer, made but never written
        assert built == (["_label_input"] if view == "label" else [])
        assert out.tobytes() == ref.tobytes()
        assert len(caches) == len(ref_caches)
        for cache, want in zip(caches, ref_caches):
            for f in dataclasses.fields(cache):
                got, expected = getattr(cache, f.name), getattr(want, f.name)
                if isinstance(got, np.ndarray):
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
                else:
                    assert got is expected or got == expected

    def test_other_operators_recompute(self, monkeypatch):
        model, cfg = self.model, self.cfg
        logits, caches = forward_node_gcn(self.ops, model, cfg)
        calls = self.truncated_products(monkeypatch)
        other = build_operators(self.g)
        again, other_caches = forward_node_gcn(other, model, cfg)
        assert calls == [other.node.truncated]
        assert other_caches[0].weight_input is not caches[0].weight_input
        assert np.array_equal(again, logits)

    def test_handed_product_refused_when_w_multiplies_first(self):
        # at hidden 2 over 50-wide features the node view's first layer
        # multiplies W first: handed a product, it would read only the
        # NaN stand-in of its input
        from mlgcn.kernels import spmm
        g = generate_synthetic(SyntheticConfig(communities=4,
                                               community_size=5))
        ops = build_operators(g)
        cfg = TrainConfig(hidden_dim=2, feature_dim=50, dropout=0)
        model = init_model(g, cfg)
        product = spmm(ops.node.truncated, node_view_input(model))
        with pytest.raises(ValueError, match="precomputed"):
            forward_node_gcn(ops, model, cfg, propagated=product)
        logits, caches = forward_node_gcn(ops, model, cfg)
        assert not caches[0].propagated_first
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("freq_n,freq_m", [(10, 10), (2, 3)])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_run_propagates_once_per_injection(self, monkeypatch, dropout,
                                               freq_n, freq_m):
        # a forward that draws dropout propagates its own dropped-out input,
        # one per epoch and view. One that draws none (every forward at
        # dropout 0, the validation forwards otherwise) reuses the last
        # such product of its view, until an injection changes that view's
        # input: a node injection at epoch e makes the label forward of
        # epoch e + 1 recompute, and a label injection at epoch e the node
        # validation forward of epoch e. At dropout 0 that validation
        # forward doubles as the next node training forward. Every product
        # handed over is that of the view's current input.
        from mlgcn.kernels import spmm
        handed = {"label": 0, "node": 0}
        for view, view_input in (("label", label_view_input),
                                 ("node", node_view_input)):
            name = f"forward_{view}_gcn"

            def checking(operators, model, *args, fn=getattr(training, name),
                         view=view, view_input=view_input, **kwargs):
                product = kwargs.get("propagated")
                if product is not None:
                    handed[view] += 1
                    op = getattr(operators, view).truncated
                    assert (product.tobytes()
                            == spmm(op, view_input(model)).tobytes())
                return fn(operators, model, *args, **kwargs)
            monkeypatch.setattr(training, name, checking)
        calls = self.truncated_products(monkeypatch)
        split = split_dataset(self.g, 0.25, seed=21)
        assert split.val_nodes.size
        epochs = 6
        cfg = small_config(feature_dim=3, hidden_dim=8, epochs=epochs,
                           dropout=dropout, update_freq_nodes=freq_n,
                           update_freq_labels=freq_m)
        train(self.g, split, cfg)
        label_injections = len(range(0, epochs, freq_m))
        if dropout:
            label, node = epochs, epochs + label_injections
        else:
            label = 1 + len(range(0, epochs - 1, freq_n))
            node = 1 + label_injections
        shapes = [op.shape for op in calls]
        assert shapes.count(self.ops.label.truncated.shape) == label
        assert shapes.count(self.ops.node.truncated.shape) == node
        assert handed["node"] and bool(handed["label"]) == (dropout == 0.0)

    @pytest.mark.parametrize("feature_dim", [0, 3])
    def test_hidden_one_label_writer_keeps_its_product(self, feature_dim):
        # at hidden 1 the 2l label stack's first layer multiplies W first by
        # its shapes, but over a row writer it propagates first: the product
        # is kept and handed to the next label forward, which gives the
        # bits of the first, and a whole run at dropout 0 reuses it
        from mlgcn.kernels import propagates_first
        cfg = small_config(variant="2l", hidden_dim=1, epochs=4,
                           feature_dim=feature_dim, update_freq_nodes=2)
        ops = build_operators(self.g, "2l")
        model = init_model(self.g, cfg)
        op = ops.label.truncated
        assert not propagates_first(op.shape, op.nnz,
                                    (model.label_features.shape[1], 1))
        state = TrainState(ops, model, cfg, _Optimizer(cfg))
        node_logits, _ = state.forward("node", training=False)
        state.inject("label", node_logits)
        first, caches = state.forward("label", training=True)
        assert caches[0].propagated_first
        assert state.products["label"] is caches[0].weight_input
        again, _ = state.forward("label", training=True)
        assert again.tobytes() == first.tobytes()
        split = split_dataset(self.g, 0.25, seed=21)
        assert len(train(self.g, split, cfg).history.epoch_seconds) == 4

    def test_inject_drops_only_its_views_product(self):
        state = TrainState(self.ops, self.model, self.cfg,
                           _Optimizer(self.cfg))
        label_logits, _ = state.forward("label", training=False)
        node_logits, _ = state.forward("node", training=False)
        kept = dict(state.products)
        assert sorted(kept) == ["label", "node"]
        state.inject("label", node_logits)
        assert list(state.products) == ["node"]
        assert state.products["node"] is kept["node"]
        assert np.array_equal(self.model.node_logits, node_logits)
        state.forward("label", training=False)
        kept = dict(state.products)
        state.inject("node", label_logits)
        assert list(state.products) == ["label"]
        assert state.products["label"] is kept["label"]
        assert state.node_input is None

    def test_node_injection_rebuilds_the_one_hot_input(self):
        cfg = small_config()
        model = init_model(self.g, cfg)
        state = TrainState(self.ops, model, cfg, _Optimizer(cfg))
        first = state.node_input
        assert isinstance(first, SparseMatrix)
        assert np.array_equal(first.toarray(), node_view_input(model))
        label_logits, _ = state.forward("label", training=False)
        node_logits, _ = state.forward("node", training=False)
        state.inject("label", node_logits)
        assert state.node_input is first
        state.inject("node", label_logits)
        assert state.node_input is not first
        assert np.array_equal(state.node_input.toarray(),
                              node_view_input(model))
        assert "node" not in state.products

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "before CPython 3.11 a caller keeps its call's arguments alive "
        "until the call returns"))
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_node_input_dies_before_its_first_layer(self, monkeypatch,
                                                    dropout):
        # the dense node-view input is built in forward_stack's argument
        # list: once the first layer has its op @ H, nothing holds the
        # (n+m) x d input through the layer's GEMM
        import mlgcn.kernels as kernels
        refs, dead = [], []
        build, layer = training._node_input, kernels.gcn_layer_forward

        def building(*args):
            h = build(*args)
            refs.append(weakref.ref(h))
            return h

        def recording(op, *args, **kwargs):
            if op.shape == self.ops.node.truncated.shape:
                dead.append(refs[-1]() is None)
            return layer(op, *args, **kwargs)
        monkeypatch.setattr(training, "_node_input", building)
        monkeypatch.setattr(kernels, "gcn_layer_forward", recording)
        split = split_dataset(self.g, 0.25, seed=21)
        train(self.g, split, small_config(feature_dim=3, hidden_dim=8,
                                          epochs=3, dropout=dropout))
        assert refs and dead and all(dead)


def densified(model):
    """The same model with its one-hot X, and any block still equal to it,
    stored as dense arrays."""
    return ModelState(
        weights={k: w.copy() for k, w in model.weights.items()},
        projections=model.projections, node_features=dense(model.node_features),
        label_features=model.label_features,
        node_logits=model.node_logits, label_block=model.label_block,
        dropout_rng=rng_stream(0, "dropout"))


class TestSparseInput:
    """One-hot X is stored as CSR; a view stacks sparse while any of its
    blocks is."""

    def test_one_hot_x_is_csr(self):
        x, y = input_features(5, 2, TrainConfig())
        assert isinstance(x, SparseMatrix) and x.format == "csr"
        assert x.nnz == 5 and isinstance(y, np.ndarray)
        x, _ = input_features(5, 2, TrainConfig(feature_dim=3))
        assert isinstance(x, np.ndarray)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_node_input_built_once_per_label_injection(self, monkeypatch,
                                                       dropout):
        # train keeps the node view's sparse [X; label block] until a label
        # injection replaces the block; a forward that draws masks a copy
        g = small_graph(seed=33)
        split = split_dataset(g, 0.25, seed=33)
        assert split.val_nodes.size
        built, stacked = [], training._stacked

        def recording(blocks):
            built.append(blocks[0].shape[0])
            return stacked(blocks)
        monkeypatch.setattr(training, "_stacked", recording)
        epochs, freq_m = 7, 3
        cfg = small_config(epochs=epochs, dropout=dropout, update_freq_nodes=2,
                           update_freq_labels=freq_m)
        train(g, split, cfg)
        # the node view's blocks start with X's n rows, the label view's
        # with Y's m
        assert built.count(g.node_count) == 1 + len(range(0, epochs, freq_m))

    def test_view_inputs_stack_sparse_until_injected(self, monkeypatch):
        g = small_graph(seed=31)
        n, m = g.node_count, g.label_count
        cfg = small_config()
        ops = build_operators(g)
        model = init_model(g, cfg)
        seen = record_layer_inputs(monkeypatch)
        label_logits, _ = forward_label_gcn(ops, model, cfg, training=True)
        node_logits, _ = forward_node_gcn(ops, model, cfg, training=True)
        label_h, node_h = seen[0], seen[1]
        for h, want, nnz in ((label_h, label_view_input(model), m + n),
                             (node_h, node_view_input(model), n + m)):
            assert isinstance(h, SparseMatrix) and h.format == "csr"
            assert h.nnz == nnz
            assert np.array_equal(h.toarray(), want)

        inject_label_features(model, label_logits)
        inject_node_features(model, node_logits)
        seen.clear()
        forward_label_gcn(ops, model, cfg, training=True)
        forward_node_gcn(ops, model, cfg, training=True)
        label_h, node_h = seen[0], seen[1]
        assert isinstance(label_h, np.ndarray)
        assert np.array_equal(label_h, label_view_input(model))
        # the node view stays sparse: X over the label block's nonzeros
        assert isinstance(node_h, SparseMatrix) and node_h.format == "csr"
        assert node_h.nnz == n + np.count_nonzero(model.label_block)
        assert np.array_equal(node_h.toarray(), node_view_input(model))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_features(self, variant):
        from mlgcn.kernels import backward
        g = small_graph(seed=32)
        cfg = small_config(variant=variant)
        ops = build_operators(g, variant)
        model = init_model(g, cfg)
        coupled = bool(layer_table(cfg)["label"])
        for injected in (False, True):
            twin = densified(model)
            outputs = []
            for state in (model, twin):
                label_logits, label_caches, d_label = None, None, None
                if coupled:
                    label_logits, label_caches = forward_label_gcn(
                        ops, state, cfg, training=True)
                    d_label = single_label_loss_grad(
                        softmax_rows(label_logits), np.eye(g.label_count))
                node_logits, node_caches = forward_node_gcn(
                    ops, state, cfg, training=True)
                grads = backward(label_caches, d_label, node_caches,
                                 node_logits - 0.5)
                outputs.append((label_logits, node_logits, grads))
            (la, na, ga), (lb, nb, gb) = outputs
            if coupled:
                np.testing.assert_allclose(la, lb, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(na, nb, rtol=1e-12, atol=1e-15)
            assert set(ga) == set(gb)
            for key in ga:
                np.testing.assert_allclose(ga[key], gb[key], rtol=1e-12,
                                           atol=1e-14)
            if coupled and not injected:
                inject_label_features(model, la)
                inject_node_features(model, na)

    def test_dropout_draws_the_dense_shape(self):
        g = small_graph(seed=33)
        cfg = small_config(dropout=0.5)
        model = init_model(g, cfg)
        forward_node_gcn(build_operators(g), model, cfg, training=True)
        n, m = g.node_count, g.label_count
        rng = rng_stream(cfg.seed, "dropout")
        rng.random((n + m, n + m))
        rng.random((n, cfg.hidden_dim))
        assert model.dropout_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_run_matches_dense_features(self, optimizer, dropout,
                                        monkeypatch):
        import mlgcn.training as training
        g = small_graph(seed=34)
        split = split_dataset(g, 0.25, seed=34)
        cfg = small_config(epochs=6, update_freq_nodes=2,
                           update_freq_labels=3, optimizer=optimizer,
                           dropout=dropout)
        result = train(g, split, cfg)
        features = training.input_features

        def dense_features(n, m, config):
            x, y = features(n, m, config)
            return x.toarray(), y
        monkeypatch.setattr(training, "input_features", dense_features)
        ref = train(g, split, cfg)
        for name in ("label_loss", "node_loss", "total_loss"):
            np.testing.assert_allclose(getattr(result.history, name),
                                       getattr(ref.history, name),
                                       rtol=1e-9, atol=0)
        np.testing.assert_allclose(result.embeddings, ref.embeddings,
                                   rtol=1e-9, atol=1e-12)


class TestTrain:
    def test_history_length_and_additivity(self):
        g = small_graph()
        split = split_dataset(g, 0.25, seed=0)
        result = train(g, split, small_config(epochs=7))
        h = result.history
        assert len(h) == 7
        for e in range(7):
            assert h.total_loss[e] == h.label_loss[e] + h.node_loss[e]

    def test_loss_decreases_on_synthetic(self):
        # the >=50% decrease at full paper defaults is asserted in the
        # acceptance suite; this exercises learning progress at small scale
        g = generate_synthetic(SyntheticConfig(community_size=30, p_intra=0.3,
                                               p_inter=0.05, seed=1))
        split = split_dataset(g, 0.2, seed=1)
        cfg = TrainConfig(epochs=120, hidden_dim=32, seed=1, optimizer="adam",
                          learning_rate=0.01)
        h = train(g, split, cfg).history
        assert h.total_loss[-1] < 0.7 * h.total_loss[0]

    def test_same_seed_identical_history(self):
        g = small_graph(seed=2)
        split = split_dataset(g, 0.25, seed=2)
        cfg = small_config(dropout=0.5, seed=2, epochs=6)
        h1 = train(g, split, cfg).history
        h2 = train(g, split, cfg).history
        assert h1.total_loss == h2.total_loss
        assert h1.val_micro_f1 == h2.val_micro_f1

    def test_zero_learning_rate_freezes_weights(self):
        g = small_graph(seed=3)
        split = split_dataset(g, 0.25, seed=3)
        cfg = small_config(learning_rate=0.0, epochs=4, seed=3)
        init = init_model(g, cfg)
        result = train(g, split, cfg)
        for key in init.weights:
            assert np.array_equal(result.model.weights[key], init.weights[key])

    def test_zero_learning_rate_static_features_all_constant(self):
        g = small_graph(seed=3)
        split = split_dataset(g, 0.25, seed=3)
        cfg = small_config(learning_rate=0.0, epochs=5, seed=3,
                           update_freq_nodes=10, update_freq_labels=10,
                           skip_epoch0_injection=True)
        h = train(g, split, cfg).history
        assert len(set(h.total_loss)) == 1
        assert len(set(h.val_micro_f1)) == 1

    def test_injection_schedule_fires_at_multiples(self):
        # replay the whole loop from public primitives with the documented
        # schedule (fire iff epoch % freq == 0, epoch starting at 0) and
        # demand the identical history and final blocks
        from mlgcn.kernels import backward, multi_label_loss_grad
        g = small_graph(seed=4)
        cfg = small_config(epochs=7, update_freq_nodes=2, update_freq_labels=3)
        split = split_dataset(g, 0.25, seed=4)
        result = train(g, split, cfg)

        ops = build_operators(g)
        model = init_model(g, cfg)
        targets = g.label_assignments.to_dense()
        eye = np.eye(g.label_count)
        losses = []
        for epoch in range(cfg.epochs):
            label_logits, lc = forward_label_gcn(ops, model, cfg, training=True)
            z = softmax_rows(label_logits)
            l1 = single_label_loss(z, eye)
            node_logits, nc = forward_node_gcn(ops, model, cfg, training=True)
            l2 = multi_label_loss(node_logits, targets, split.train_nodes)
            losses.append(l1 + l2)
            if epoch % 2 == 0:
                inject_node_features(model, node_logits)
            if epoch % 3 == 0:
                inject_label_features(model, label_logits)
            grads = backward(lc, single_label_loss_grad(z, eye), nc,
                             multi_label_loss_grad(node_logits, targets,
                                                   split.train_nodes))
            sgd_step(model, grads, cfg)
        assert losses == result.history.total_loss
        assert np.array_equal(node_block(model), node_block(result.model))
        assert np.array_equal(model.label_block, result.model.label_block)
        for key in model.weights:
            assert np.array_equal(model.weights[key], result.model.weights[key])

    @pytest.mark.parametrize("feature_dim", [0, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("variant", ["full", "gcn_baseline"])
    def test_matches_a_hand_driven_loop(self, variant, dropout, feature_dim):
        # every epoch from public functions, with a node training forward of
        # its own and no first-layer product handed over: train's reuse of
        # the dropout-0 validation forward and of each view's first-layer
        # product (both views propagate first at feature_dim 3) must leave
        # every loss, F1 and embedding bitwise as it was
        from mlgcn.kernels import backward, multi_label_loss_grad
        from mlgcn.metrics import evaluate
        g = small_graph(seed=12, size=20)
        split = split_dataset(g, 0.25, seed=12)
        cfg = small_config(epochs=7, optimizer="adam", learning_rate=0.05,
                           update_freq_nodes=3, update_freq_labels=2,
                           variant=variant, dropout=dropout,
                           feature_dim=feature_dim)
        result = train(g, split, cfg)

        ops = build_operators(g, variant)
        model = init_model(g, cfg)
        optimizer = _Optimizer(cfg)
        targets = g.label_assignments.to_dense()
        eye = np.eye(g.label_count)
        coupled = variant != "gcn_baseline"
        label_losses, node_losses, f1s = [], [], []
        for epoch in range(cfg.epochs):
            label_loss, lc, d_label = 0.0, None, None
            if coupled:
                label_logits, lc = forward_label_gcn(ops, model, cfg,
                                                     training=True)
                z = softmax_rows(label_logits)
                label_loss = single_label_loss(z, eye)
                d_label = single_label_loss_grad(z, eye)
            node_logits, nc = forward_node_gcn(ops, model, cfg, training=True)
            label_losses.append(label_loss)
            node_losses.append(multi_label_loss(node_logits, targets,
                                                split.train_nodes))
            if coupled and epoch % 3 == 0:
                inject_node_features(model, node_logits)
            if coupled and epoch % 2 == 0:
                inject_label_features(model, label_logits)
            grads = backward(lc, d_label, nc,
                             multi_label_loss_grad(node_logits, targets,
                                                   split.train_nodes))
            sgd_step(model, grads, cfg, optimizer)
            embeddings, _ = forward_node_gcn(ops, model, cfg)
            f1s.append(evaluate(embeddings, targets,
                                split.val_nodes).micro_f1)
        h = result.history
        assert label_losses == h.label_loss
        assert node_losses == h.node_loss
        assert f1s == h.val_micro_f1
        # the schedule moves the losses and, in the one-hot dropout-0 run,
        # the predictions too; on this small graph the other runs' F1 can
        # sit still
        assert len(set(node_losses)) > 1
        if dropout == 0.0 and feature_dim == 0:
            assert len(set(f1s)) > 1
        assert np.array_equal(embeddings, result.embeddings)

    @pytest.mark.parametrize("feature_dim", [0, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_is_its_epochs_over_one_state(self, dropout, feature_dim):
        g = small_graph(seed=12, size=20)
        split = split_dataset(g, 0.25, seed=12)
        cfg = small_config(epochs=6, optimizer="adam", learning_rate=0.05,
                           update_freq_nodes=3, update_freq_labels=2,
                           dropout=dropout, feature_dim=feature_dim)
        result = train(g, split, cfg)
        state = TrainState(build_operators(g), init_model(g, cfg), cfg,
                           _Optimizer(cfg))
        targets = g.label_indicators()
        for epoch in range(cfg.epochs):
            train_epoch(state, epoch, targets, split, "top_k_true", 0.5)
        for name in ("label_loss", "node_loss", "total_loss", "val_micro_f1"):
            assert getattr(state.history, name) == getattr(result.history,
                                                           name)
        assert len(state.history.epoch_seconds) == cfg.epochs
        assert state.embeddings.tobytes() == result.embeddings.tobytes()
        assert state.optimizer.step_count == result.optimizer.step_count

    @pytest.mark.parametrize("feature_dim", [0, 3])
    def test_returned_state_holds_nothing_for_reuse(self, feature_dim):
        # at dropout 0 every epoch keeps a product, and the last one a
        # pending node forward; the one-hot run keeps its node input
        g = small_graph(seed=21)
        split = split_dataset(g, 0.25, seed=21)
        assert split.val_nodes.size
        result = train(g, split, small_config(feature_dim=feature_dim,
                                              epochs=3))
        assert result.products == {}
        assert result.node_input is None and result.node_forward is None
        assert result.embeddings.shape == (g.node_count, g.label_count)
        assert len(result.history) == 3

    @pytest.mark.parametrize("dropout,forwards", [(0.0, 6), (0.5, 10)])
    def test_node_forwards_per_run(self, monkeypatch, dropout, forwards):
        # at dropout 0 each validation forward doubles as the next epoch's
        # node training forward, so only epoch 0 runs one of its own
        import mlgcn.training as training_module
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("training", False))
            return forward_node_gcn(*args, **kwargs)

        monkeypatch.setattr(training_module, "forward_node_gcn", counting)
        g = small_graph(seed=8)
        split = split_dataset(g, 0.25, seed=8)
        assert split.val_nodes.size
        train(g, split, small_config(epochs=5, dropout=dropout))
        assert len(calls) == forwards
        assert calls.count(True) == forwards - 5

    def test_one_eval_forward_per_epoch(self, monkeypatch):
        # the last epoch's validation forward is the embedding forward; only
        # a split without validation nodes needs a separate final one
        import mlgcn.training as training_module
        eval_logits = []

        def recording(*args, **kwargs):
            logits, caches = forward_node_gcn(*args, **kwargs)
            if not kwargs.get("training", False):
                eval_logits.append(logits)
            return logits, caches

        monkeypatch.setattr(training_module, "forward_node_gcn", recording)
        g = small_graph(seed=8)
        split = split_dataset(g, 0.25, seed=8)
        assert split.val_nodes.size
        result = train(g, split, small_config(epochs=5, dropout=0.5))
        assert len(eval_logits) == 5
        assert result.embeddings is eval_logits[-1]

        eval_logits.clear()
        no_val = DataSplit(split.train_nodes, np.array([], dtype=np.int64),
                           split.test_nodes)
        result = train(g, no_val, small_config(epochs=5, dropout=0.5))
        assert len(eval_logits) == 1
        assert result.embeddings is eval_logits[-1]

    def test_large_frequencies_with_skip_keep_features_static(self):
        g = small_graph(seed=5)
        split = split_dataset(g, 0.25, seed=5)
        cfg = small_config(epochs=4, update_freq_nodes=99,
                           update_freq_labels=99, skip_epoch0_injection=True)
        result = train(g, split, cfg)
        x, y = raw_features(g, cfg)
        assert np.array_equal(node_block(result.model).toarray(), x.toarray())
        assert np.array_equal(result.model.label_block, y)

    def test_large_frequencies_without_skip_fire_only_at_epoch0(self):
        g = small_graph(seed=5)
        split = split_dataset(g, 0.25, seed=5)
        cfg = small_config(epochs=4, update_freq_nodes=99,
                           update_freq_labels=99)
        result = train(g, split, cfg)
        # blocks were replaced exactly once, using the initial logits
        model0 = init_model(g, cfg)
        ops = build_operators(g)
        node_logits, _ = forward_node_gcn(ops, model0, cfg, training=False)
        label_logits, _ = forward_label_gcn(ops, model0, cfg, training=False)
        assert np.array_equal(
            node_block(result.model),
            np.maximum(node_logits @ model0.projections["proj_node"], 0.0))
        assert np.array_equal(
            result.model.label_block,
            np.maximum(label_logits @ model0.projections["proj_label"], 0.0))

    def test_baseline_skips_label_loss_and_injections(self):
        g = small_graph(seed=6)
        split = split_dataset(g, 0.25, seed=6)
        cfg = small_config(variant="gcn_baseline", epochs=4)
        result = train(g, split, cfg)
        assert result.history.label_loss == [0.0] * 4
        x, y = raw_features(g, cfg)
        assert np.array_equal(node_block(result.model).toarray(), x.toarray())
        assert np.array_equal(result.model.label_block, y)

    def test_node_variant_runs_with_stripped_label_view(self):
        g = small_graph(seed=7)
        split = split_dataset(g, 0.25, seed=7)
        result = train(g, split, small_config(variant="node", epochs=4))
        ops = build_operators(g, "node")
        assert ops.label.truncated.to_dense()[:, g.label_count:].sum() == 0
        assert len(result.history) == 4

    def test_divergence_reports_epoch(self):
        g = small_graph(seed=8)
        split = split_dataset(g, 0.25, seed=8)
        # one step at this rate pushes weights to ~1e154; the next forward
        # overflows the logits and the loss stops being finite
        cfg = small_config(learning_rate=1e154, epochs=50, seed=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                train(g, split, cfg)
        assert err.value.epoch >= 0

    def test_empty_train_split_rejected(self):
        g = small_graph(seed=9)
        split = split_dataset(g, 0.25, seed=9)
        from mlgcn.graph import DataSplit
        empty = DataSplit(train_nodes=np.array([], dtype=int),
                          val_nodes=split.val_nodes,
                          test_nodes=split.test_nodes)
        with pytest.raises(ValueError, match="no labeled nodes"):
            train(g, empty, small_config())

    def test_embeddings_shape_matches_labels(self):
        g = small_graph(seed=10)
        split = split_dataset(g, 0.25, seed=10)
        result = train(g, split, small_config(epochs=3))
        assert result.embeddings.shape == (g.node_count, g.label_count)

    def test_adam_optimizer_trains(self):
        g = small_graph(seed=11)
        split = split_dataset(g, 0.25, seed=11)
        cfg = small_config(optimizer="adam", epochs=30, learning_rate=0.01,
                           seed=11)
        h = train(g, split, cfg).history
        assert h.total_loss[-1] < h.total_loss[0]


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        from mlgcn.training import load_checkpoint, save_checkpoint
        g = small_graph(seed=14)
        split = split_dataset(g, 0.25, seed=14)
        cfg = small_config(epochs=4, seed=14, dropout=0.3)
        result = train(g, split, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, result.model, cfg, cfg.epochs, "abc123",
                        embeddings=result.embeddings)
        model, config, epoch, fingerprint = load_checkpoint(path)
        assert config == cfg
        assert epoch == 4
        assert fingerprint == "abc123"
        for key in result.model.weights:
            assert np.array_equal(model.weights[key], result.model.weights[key])
        for key in result.model.projections:
            assert np.array_equal(model.projections[key],
                                  result.model.projections[key])
        assert np.array_equal(node_block(model), node_block(result.model))
        assert np.array_equal(model.label_block, result.model.label_block)
        assert np.array_equal(model.node_features.toarray(),
                              result.model.node_features.toarray())
        assert np.array_equal(model.label_features,
                              result.model.label_features)
        assert (model.dropout_rng.bit_generator.state
                == result.model.dropout_rng.bit_generator.state)

    def test_reloaded_model_reproduces_embeddings(self, tmp_path):
        from mlgcn.training import load_checkpoint, save_checkpoint
        g = small_graph(seed=15)
        split = split_dataset(g, 0.25, seed=15)
        cfg = small_config(epochs=3, seed=15)
        result = train(g, split, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, result.model, cfg, cfg.epochs, "fp",
                        embeddings=result.embeddings)
        model, config, _, _ = load_checkpoint(path)
        ops = build_operators(g, config.variant, config.binarize_cooccurrence)
        logits, _ = forward_node_gcn(ops, model, config, training=False)
        assert np.array_equal(logits, result.embeddings)

    def test_gaussian_features_rebuilt_on_load(self, tmp_path):
        from mlgcn.training import load_checkpoint, save_checkpoint
        g = small_graph(seed=16)
        split = split_dataset(g, 0.25, seed=16)
        cfg = small_config(epochs=3, seed=16, feature_dim=5)
        result = train(g, split, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, result.model, cfg, cfg.epochs, "fp",
                        embeddings=result.embeddings)
        with np.load(path) as data:
            assert "node_features" not in data.files
        model, config, _, _ = load_checkpoint(path)
        assert np.array_equal(model.node_features, result.model.node_features)
        assert np.array_equal(model.label_features,
                              result.model.label_features)
        ops = build_operators(g, config.variant, config.binarize_cooccurrence)
        logits, _ = forward_node_gcn(ops, model, config, training=False)
        assert np.array_equal(logits, result.embeddings)

    @pytest.mark.parametrize("variant,feature_dim,injected", [
        ("full", 0, False), ("full", 0, True),
        ("full", 5, False), ("full", 5, True),
        ("gcn_baseline", 0, False),
    ])
    def test_only_injected_blocks_are_stored(self, tmp_path, monkeypatch,
                                             variant, feature_dim, injected):
        from mlgcn.training import load_checkpoint, save_checkpoint
        g = small_graph(seed=17)
        split = split_dataset(g, 0.25, seed=17)
        # one epoch injects at epoch 0 unless it is skipped
        cfg = small_config(epochs=1, seed=17, variant=variant,
                           feature_dim=feature_dim,
                           skip_epoch0_injection=not injected)
        result = train(g, split, cfg)
        model = result.model
        ops = build_operators(g, cfg.variant, cfg.binarize_cooccurrence)

        def no_dense(self, *args, **kwargs):
            raise AssertionError("a sparse matrix was densified")
        monkeypatch.setattr(SparseMatrix, "toarray", no_dense)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, cfg, cfg.epochs, "fp",
                        embeddings=result.embeddings)
        loaded, *_ = load_checkpoint(path)
        with np.load(path) as data:
            files = set(data.files)
        # the label view's node block is stored as the n x m node logits
        assert "node_block" not in files
        assert (model.node_logits is not None) == injected
        if injected:
            assert "node_logits" in files
            assert model.node_logits.shape == (g.node_count, g.label_count)
            assert loaded.node_logits.dtype == model.node_logits.dtype
            assert loaded.node_logits.shape == model.node_logits.shape
            assert loaded.node_logits.tobytes() == model.node_logits.tobytes()
            assert (node_block(loaded).tobytes()
                    == node_block(model).tobytes())
        else:
            assert "node_logits" not in files
            assert loaded.node_logits is None
            assert node_block(loaded) is loaded.node_features
        block, loaded_block = model.label_block, loaded.label_block
        assert (block is not model.label_features) == injected
        if injected:
            assert "label_block" in files
            assert loaded_block.dtype == block.dtype
            assert loaded_block.shape == block.shape
            assert loaded_block.tobytes() == block.tobytes()
        else:
            assert "label_block" not in files
            assert loaded_block is loaded.label_features
        assert (sorted(f for f in files if f.startswith("projection__"))
                == sorted(f"projection__{k}" for k in model.projections))
        logits, _ = forward_node_gcn(ops, loaded, cfg, training=False)
        assert np.array_equal(logits, result.embeddings)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("feature_dim", [0, 8])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stored_embeddings_are_the_eval_forward(self, tmp_path, variant,
                                                    feature_dim, dropout):
        # eval and case-study score the stored embeddings, so they must be
        # the logits that train returned and that an eval-mode forward of
        # the stored model computes
        from mlgcn.training import save_checkpoint
        g = small_graph(seed=19)
        split = split_dataset(g, 0.25, seed=19)
        # both injections fire at epoch 2 of 4, mid-run
        cfg = small_config(epochs=4, seed=19, variant=variant,
                           feature_dim=feature_dim, dropout=dropout,
                           update_freq_nodes=2, update_freq_labels=2,
                           skip_epoch0_injection=True)
        state = train(g, split, cfg)
        coupled = bool(layer_table(cfg)["label"])
        assert (state.model.node_logits is not None) == coupled
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state.model, cfg, cfg.epochs, "fp",
                        state.optimizer, embeddings=state.embeddings)
        assert_stored_embeddings(path, g, state.embeddings)

    def test_failed_write_keeps_the_existing_checkpoint(self, tmp_path,
                                                        monkeypatch):
        from mlgcn.training import save_checkpoint
        g = small_graph(seed=18)
        cfg = small_config(epochs=1, seed=18)
        model = init_model(g, cfg)
        embeddings = np.zeros((g.node_count, g.label_count))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, cfg, 1, "fp", embeddings=embeddings)
        before = path.read_bytes()

        def failing_savez(file, *args, **kwargs):
            file.write(b"partial")
            raise OSError("no space left")
        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, model, cfg, 2, "other",
                            embeddings=embeddings)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_version_check(self, tmp_path):
        import json
        from mlgcn.training import load_checkpoint
        meta = {"version": 99}
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)
