import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from mlgcn import kernels
from mlgcn.kernels import (LayerCache, backward, backward_stack,
                           forward_stack, gcn_layer_forward, multi_label_loss,
                           multi_label_loss_grad, propagates_first,
                           single_label_loss, single_label_loss_grad,
                           softmax_rows, spmm)
from mlgcn.matrices import SparseMatrix


class TestSpmm:
    def test_identity_times_dense(self):
        rng = np.random.default_rng(0)
        d = rng.random((4, 3))
        assert np.array_equal(spmm(SparseMatrix(np.eye(4)), d), d)

    def test_zero_times_dense(self):
        d = np.ones((4, 3))
        assert np.array_equal(spmm(SparseMatrix((2, 4)), d), np.zeros((2, 3)))

    def test_random_against_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            r, k, c = (int(x) for x in rng.integers(1, 9, size=3))
            dense = rng.random((r, k))
            dense[rng.random((r, k)) < 0.5] = 0.0
            s = SparseMatrix(dense)
            d = rng.standard_normal((k, c))
            assert np.abs(spmm(s, d) - dense @ d).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmm(SparseMatrix(np.eye(3)), np.ones((4, 2)))


class TestLayerForward:
    def test_identity_layer_passes_through(self):
        h = np.arange(6, dtype=float).reshape(3, 2)
        out, cache = gcn_layer_forward(SparseMatrix(np.eye(3)), h, np.eye(2),
                                       activation="identity", dropout=0.0)
        assert np.array_equal(out, h)
        assert cache.mask is None

    def test_relu_clamps(self):
        h = np.array([[-1.0, 2.0]])
        out, _ = gcn_layer_forward(SparseMatrix(np.eye(1)), h, np.eye(2),
                                   activation="relu", dropout=0.0)
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_dropout_zeroes_and_rescales(self):
        rng = np.random.default_rng(42)
        h = np.ones((20, 10))
        out, cache = gcn_layer_forward(SparseMatrix(np.eye(20)), h, np.eye(10),
                                       activation="identity", dropout=0.5,
                                       training=True, rng=rng)
        values = np.unique(out)
        assert set(values.tolist()) <= {0.0, 2.0}
        assert (out == 0).any() and (out == 2.0).any()
        # replaying the recorded mask, then 1/(1-p), reproduces the output
        assert np.array_equal(h * cache.mask * (1.0 / (1.0 - 0.5)), out)

    def test_eval_mode_ignores_dropout(self):
        h = np.ones((5, 4))
        out, cache = gcn_layer_forward(SparseMatrix(np.eye(5)), h, np.eye(4),
                                       activation="identity", dropout=0.5,
                                       training=False)
        assert np.array_equal(out, h)
        assert cache.mask is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gcn_layer_forward(SparseMatrix(np.eye(3)), np.ones((3, 2)),
                              np.ones((3, 2)))


def random_op(rng, rows, cols, density=0.4):
    dense = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    return SparseMatrix(dense)


class TestAssociationOrder:
    # (op rows, op cols, fan-in, fan-out, order that should be chosen)
    BRANCHES = [
        (6, 9, 12, 2, False),   # W narrows: H @ W first, non-square op
        (6, 9, 2, 12, True),    # W widens: op @ H first, non-square op
        (7, 7, 10, 3, False),
        (7, 7, 3, 10, True),
    ]

    def test_choice_for_benchmark_shapes(self):
        # BlogCatalog-shaped graph: 10312 nodes, 39 labels, 128-d features
        assert not propagates_first((10312, 10312), 678278, (400, 39))
        assert propagates_first((10312, 10351), 692756, (128, 400))
        assert propagates_first((39, 10351), 15131, (128, 400))
        # planted partition of 600 nodes with one-hot features, d = 608
        assert not propagates_first((600, 600), 6262, (400, 8))
        assert propagates_first((600, 608), 7337, (608, 400))
        assert propagates_first((8, 608), 1091, (608, 400))

    def test_tie_propagates_first(self):
        assert propagates_first((5, 5), 10, (4, 4))

    @pytest.mark.parametrize("rows,cols,d,h,first", BRANCHES)
    def test_forward_matches_dense_oracle(self, rows, cols, d, h, first):
        rng = np.random.default_rng(rows * 100 + d)
        op = random_op(rng, rows, cols)
        x = rng.standard_normal((cols, d))
        w = rng.standard_normal((d, h))
        assert propagates_first(op.shape, op.nnz, w.shape) == first
        out, cache = gcn_layer_forward(op, x, w, activation="relu",
                                       dropout=0.3, training=True,
                                       rng=np.random.default_rng(4))
        assert cache.propagated_first == first
        assert cache.mask is not None and (cache.mask == 0).any()
        want = np.maximum(op.toarray() @ (x * cache.mask / 0.7) @ w, 0.0)
        assert np.abs(out - want).max() <= 1e-12

    @pytest.mark.parametrize("widths,first", [
        # non-square first layer W-first, then op-first, then W-first
        ((12, 3, 10, 2), [False, True, False]),
        # non-square first layer op-first, then W-first
        ((2, 12, 3), [True, False]),
    ])
    def test_stack_gradients_match_finite_differences(self, widths, first):
        rng = np.random.default_rng(len(widths))
        n, cols = 7, 9
        ops = [random_op(rng, n, cols)] + [random_op(rng, n, n)
                                           for _ in widths[2:]]
        keys = [f"w{i}" for i in range(len(ops))]
        weights = {k: rng.standard_normal((a, b)) * 0.5
                   for k, a, b in zip(keys, widths, widths[1:])}
        x = rng.standard_normal((cols, widths[0]))
        upstream = rng.standard_normal((n, widths[-1]))
        layers = list(zip(ops, keys))

        def forward():
            # a fresh stream per call replays the same dropout masks
            return forward_stack(layers, x, weights, dropout=0.2,
                                 training=True, rng=np.random.default_rng(8))

        def loss():
            return float((forward()[0] * upstream).sum())

        _, caches = forward()
        assert [c.propagated_first for c in caches] == first
        grads = {}
        backward_stack(caches, upstream, grads)
        assert set(grads) == set(keys)
        eps = 1e-6
        for key, analytic in grads.items():
            w = weights[key]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + eps
                lp = loss()
                w[idx] = orig - eps
                lm = loss()
                w[idx] = orig
                fd = (lp - lm) / (2 * eps)
                diff = abs(analytic[idx] - fd)
                assert diff <= 1e-8 or diff <= 1e-5 * max(abs(analytic[idx]), abs(fd)), \
                    f"{key}{idx}: analytic={analytic[idx]} fd={fd}"


    def test_stack_keeps_no_first_layer_mask(self):
        # backward_stack never sends a gradient below the first layer, so
        # forward_stack drops that layer's mask; the gradients equal those
        # of the same layers with every mask kept
        rng = np.random.default_rng(3)
        ops = [random_op(rng, 7, 9), random_op(rng, 7, 7)]
        weights = {"w0": rng.standard_normal((4, 5)),
                   "w1": rng.standard_normal((5, 3))}
        x = rng.standard_normal((9, 4))
        upstream = rng.standard_normal((7, 3))
        _, caches = forward_stack(list(zip(ops, weights)), x, weights,
                                  dropout=0.3, training=True,
                                  rng=np.random.default_rng(6))
        assert caches[0].mask is None
        assert caches[1].mask is not None

        kept_rng = np.random.default_rng(6)
        h, first = gcn_layer_forward(ops[0], x, weights["w0"], dropout=0.3,
                                     training=True, rng=kept_rng,
                                     weight_key="w0")
        _, second = gcn_layer_forward(ops[1], h, weights["w1"],
                                      activation="identity", dropout=0.3,
                                      training=True, rng=kept_rng,
                                      weight_key="w1")
        assert first.mask is not None
        grads, kept = {}, {}
        backward_stack(caches, upstream, grads)
        backward_stack([first, second], upstream, kept)
        assert set(grads) == set(kept) == set(weights)
        for key in kept:
            assert np.array_equal(grads[key], kept[key])


class TestPrecomputedProduct:
    """A first layer handed its ``op @ h`` skips the sparse product."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        # widening weights, so the layer propagates first
        self.op = random_op(rng, 6, 9)
        self.h = rng.standard_normal((9, 3))
        self.w = rng.standard_normal((3, 7))
        assert propagates_first(self.op.shape, self.op.nnz, self.w.shape)

    @pytest.mark.parametrize("training", [False, True])
    def test_same_output_and_cache_without_dropout(self, training):
        # dropout 0 draws nothing in either mode
        product = spmm(self.op, self.h)
        out, cache = gcn_layer_forward(self.op, self.h, self.w,
                                       training=training, propagated=product)
        ref, ref_cache = gcn_layer_forward(self.op, self.h, self.w,
                                           training=training)
        assert np.array_equal(out, ref)
        assert cache.weight_input is product
        assert np.array_equal(ref_cache.weight_input, product)

    def test_rejected_with_a_dropout_draw(self):
        # refused up front, before any layer draws
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="dropout"):
            forward_stack([(self.op, "w0")], self.h, {"w0": self.w},
                          dropout=0.5, training=True, rng=rng,
                          propagated=spmm(self.op, self.h))
        assert rng.bit_generator.state == state

    def test_rejected_by_other_first_layers(self):
        # a narrowing W multiplies first, and a sparse input always does
        narrow = np.random.default_rng(13).standard_normal((3, 1))
        assert not propagates_first(self.op.shape, self.op.nnz, narrow.shape)
        for h, w in ((self.h, narrow), (None, narrow),
                     (SparseMatrix(sp.csr_array(self.h)), self.w)):
            with pytest.raises(ValueError, match="precomputed"):
                forward_stack([(self.op, "w0")], h, {"w0": w}, dropout=0.0,
                              training=False, rng=None,
                              propagated=spmm(self.op, self.h))

    def test_multiplied_by_a_narrowing_w(self):
        # without it this layer would multiply W first
        narrow = np.random.default_rng(13).standard_normal((3, 1))
        assert not propagates_first(self.op.shape, self.op.nnz, narrow.shape)
        product = spmm(self.op, self.h)
        out, cache = gcn_layer_forward(self.op, self.h, narrow,
                                       propagated=product)
        assert cache.propagated_first and cache.weight_input is product
        assert np.array_equal(out, np.maximum(product @ narrow, 0.0))

    def test_eval_mode_with_dropout_accepts_it(self):
        product = spmm(self.op, self.h)
        out, _ = gcn_layer_forward(self.op, self.h, self.w, dropout=0.5,
                                   training=False, propagated=product)
        ref, _ = gcn_layer_forward(self.op, self.h, self.w, dropout=0.5,
                                   training=False)
        assert np.array_equal(out, ref)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="precomputed"):
            gcn_layer_forward(self.op, self.h, self.w,
                              propagated=np.zeros((6, 4)))

    def test_stack_passes_it_to_the_first_layer_only(self):
        rng = np.random.default_rng(12)
        ops = [self.op, random_op(rng, 6, 6)]
        weights = {"w0": self.w, "w1": rng.standard_normal((7, 2))}
        product = spmm(self.op, self.h)
        out, caches = forward_stack(list(zip(ops, weights)), self.h, weights,
                                    dropout=0.0, training=True, rng=None,
                                    propagated=product)
        ref, _ = forward_stack(list(zip(ops, weights)), self.h, weights,
                               dropout=0.0, training=True, rng=None)
        assert np.array_equal(out, ref)
        assert caches[0].weight_input is product
        assert caches[1].weight_input is not product


class TestSparseInput:
    """A sparse H multiplies W first and drops out only its stored entries,
    drawing what a dense twin draws."""

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("rows,cols,d,h,first",
                             TestAssociationOrder.BRANCHES)
    def test_matches_dense_twin(self, rows, cols, d, h, first, activation):
        rng = np.random.default_rng(rows * 100 + d + 7)
        op = random_op(rng, rows, cols)
        x = random_op(rng, cols, d)
        w = rng.standard_normal((d, h))
        upstream = rng.standard_normal((rows, h))
        for training in (False, True):
            out, cache = gcn_layer_forward(op, x, w, activation=activation,
                                           training=training, weight_key="w")
            ref, ref_cache = gcn_layer_forward(op, x.toarray(), w,
                                               activation=activation,
                                               training=training,
                                               weight_key="w")
            assert not cache.propagated_first
            assert ref_cache.propagated_first == first
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0)
            grads, ref_grads = {}, {}
            backward_stack([cache], upstream, grads)
            backward_stack([ref_cache], upstream, ref_grads)
            assert isinstance(grads["w"], np.ndarray)
            np.testing.assert_allclose(grads["w"], ref_grads["w"],
                                       rtol=1e-12, atol=0)

    def test_dropout_draws_like_its_dense_twin(self):
        rng = np.random.default_rng(5)
        op = random_op(rng, 6, 9)
        x = random_op(rng, 9, 4)
        w = rng.standard_normal((4, 3))
        before = x.toarray()
        layer_rng = np.random.default_rng(9)
        out, cache = gcn_layer_forward(op, x, w, activation="identity",
                                       dropout=0.5, training=True,
                                       rng=layer_rng)
        twin_rng = np.random.default_rng(9)
        ref, ref_cache = gcn_layer_forward(op, before, w,
                                           activation="identity",
                                           dropout=0.5, training=True,
                                           rng=twin_rng)
        # the generator advances by the dense shape, as the twin's does
        assert layer_rng.bit_generator.state == twin_rng.bit_generator.state
        replay = np.random.default_rng(9)
        keep = replay.random(x.shape) >= 0.5
        assert layer_rng.bit_generator.state == replay.bit_generator.state
        assert cache.mask.shape == (x.nnz,)
        dropped = cache.weight_input
        assert np.array_equal(x.toarray(), before)
        # the same stored pattern, scaled or zeroed entry by entry
        assert np.array_equal(dropped.indptr, x.indptr)
        assert np.array_equal(dropped.indices, x.indices)
        stored = keep[np.nonzero(before)]
        assert np.array_equal(dropped.data, x.data * stored * 2.0)
        assert (~stored).any() and stored.any()
        assert np.array_equal(dropped.toarray(), before * keep * 2.0)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-15)
        grads, ref_grads = {}, {}
        upstream = rng.standard_normal(out.shape)
        backward_stack([cache], upstream, grads)
        backward_stack([ref_cache], upstream, ref_grads)
        np.testing.assert_allclose(grads[""], ref_grads[""], rtol=1e-12,
                                   atol=1e-15)

    def test_stack_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        ops = [random_op(rng, 7, 9), random_op(rng, 7, 7)]
        weights = {"w0": rng.standard_normal((6, 5)) * 0.5,
                   "w1": rng.standard_normal((5, 3)) * 0.5}
        x = random_op(rng, 9, 6)
        upstream = rng.standard_normal((7, 3))
        layers = list(zip(ops, weights))

        def loss():
            out, _ = forward_stack(layers, x, weights, dropout=0.2,
                                   training=True,
                                   rng=np.random.default_rng(8))
            return float((out * upstream).sum())

        _, caches = forward_stack(layers, x, weights, dropout=0.2,
                                  training=True, rng=np.random.default_rng(8))
        grads = {}
        backward_stack(caches, upstream, grads)
        eps = 1e-6
        for key, analytic in grads.items():
            w = weights[key]
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + eps
                lp = loss()
                w[idx] = orig - eps
                lm = loss()
                w[idx] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(analytic[idx] - fd) <= 1e-8 + 1e-5 * abs(fd), \
                    f"{key}{idx}: analytic={analytic[idx]} fd={fd}"


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]],
                           atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-15)
        assert np.isfinite(out).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        o = rng.uniform(-50, 50, size=(40, 7))
        assert np.abs(softmax_rows(o).sum(axis=1) - 1.0).max() <= 1e-12


class TestSingleLabelLoss:
    def test_perfect_prediction(self):
        assert single_label_loss(np.eye(3), np.eye(3)) == 0.0

    def test_uniform_closed_form(self):
        z = np.full((3, 3), 1.0 / 3.0)
        assert abs(single_label_loss(z, np.eye(3)) - 3.0 * np.log(3.0)) < 1e-9

    def test_zero_probability_clamped(self):
        z = np.array([[0.0, 1.0], [0.0, 1.0]])
        loss = single_label_loss(z, np.eye(2))
        assert np.isfinite(loss)
        assert abs(loss - (-np.log(1e-12))) < 1e-6


class TestMultiLabelLoss:
    def test_zero_logits_closed_form(self):
        o = np.zeros((1, 2))
        y = np.array([[1.0, 0.0]])
        loss = multi_label_loss(o, y, np.array([0]))
        assert abs(loss - 2.0 * np.log(2.0)) < 1e-9

    def test_confident_correct_is_tiny(self):
        o = np.array([[40.0]])
        y = np.array([[1.0]])
        assert multi_label_loss(o, y, np.array([0])) < 1e-12

    def test_huge_negative_logit_no_overflow(self):
        o = np.array([[-1000.0]])
        y = np.array([[0.0]])
        loss = multi_label_loss(o, y, np.array([0]))
        assert np.isfinite(loss) and loss < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no labeled nodes"):
            multi_label_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.array([], dtype=int))

    # a bool mask [False, False, True] used to index rows 0, 0 and 1 (loss
    # 0.040 instead of row 2's 1.386), and floats were truncated
    @pytest.mark.parametrize("mask", [[False, False, True], [2.0], [1.5]])
    def test_loss_refuses_non_integer_masks(self, mask):
        o = np.array([[4.0], [4.0], [0.0]])
        y = np.array([[1.0], [1.0], [0.0]])
        assert multi_label_loss(o, y, [2]) == pytest.approx(np.log(2.0))
        with pytest.raises(ValueError, match="must hold integers"):
            multi_label_loss(o, y, mask)

    @pytest.mark.parametrize("mask", [[False, False, True], [2.0], [1.5]])
    def test_gradient_refuses_non_integer_masks(self, mask):
        o = np.array([[4.0], [4.0], [0.0]])
        y = np.array([[1.0], [1.0], [0.0]])
        assert multi_label_loss_grad(o, y, [2])[2, 0] == 0.5
        with pytest.raises(ValueError, match="must hold integers"):
            multi_label_loss_grad(o, y, mask)

    def test_matches_naive_sigmoid_oracle(self):
        # the naive formula cancels catastrophically in float64 near |o|=30,
        # so the oracle evaluates it literally in 50-digit decimal arithmetic
        from decimal import Decimal, getcontext
        getcontext().prec = 50

        def naive_term(o, y):
            s = 1 / (1 + (-Decimal(o)).exp())
            return -(Decimal(y) * s.ln() + (1 - Decimal(y)) * (1 - s).ln())

        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            o = rng.uniform(-30, 30, size=(n, m))
            y = (rng.random((n, m)) < 0.5).astype(float)
            mask = np.flatnonzero(rng.random(n) < 0.7)
            if mask.size == 0:
                mask = np.array([0])
            naive = float(sum(naive_term(o[i, r], y[i, r])
                              for i in mask for r in range(m)))
            assert abs(multi_label_loss(o, y, mask) - naive) <= 1e-9

    def test_mask_restricts_rows(self):
        o = np.array([[0.0], [100.0]])
        y = np.array([[1.0], [0.0]])
        assert abs(multi_label_loss(o, y, np.array([0])) - np.log(2.0)) < 1e-12


def tiny_instance(seed, n=5, m=3, dh=4, two_label_layers=False):
    """Random two-stack setup mirroring the trained architectures."""
    rng = np.random.default_rng(seed)
    d = n + m
    op_node = SparseMatrix(np.abs(rng.random((n, d))) * (rng.random((n, d)) < 0.5))
    op_node_sq_dense = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    op_node_sq_dense = (op_node_sq_dense + op_node_sq_dense.T) / 2
    op_node_sq = SparseMatrix(op_node_sq_dense)
    op_label = SparseMatrix(np.abs(rng.random((m, d))) * (rng.random((m, d)) < 0.7))
    op_label_sq_dense = rng.random((m, m)) * (rng.random((m, m)) < 0.7)
    op_label_sq_dense = (op_label_sq_dense + op_label_sq_dense.T) / 2
    op_label_sq = SparseMatrix(op_label_sq_dense)
    feats = rng.standard_normal((d, d))
    weights = {
        "w0_node": rng.standard_normal((d, dh)) * 0.5,
        "w1_node": rng.standard_normal((dh, m)) * 0.5,
    }
    if two_label_layers:
        weights["w0_label"] = rng.standard_normal((d, dh)) * 0.5
        weights["w1_label"] = rng.standard_normal((dh, m)) * 0.5
    else:
        weights["w0_label"] = rng.standard_normal((d, m)) * 0.5
    y = (rng.random((n, m)) < 0.5).astype(float)
    mask = np.arange(0, n, 2)
    return (op_node, op_node_sq, op_label, op_label_sq, feats, weights, y,
            mask, rng)


def run_forward(op_node, op_node_sq, op_label, op_label_sq, feats, weights,
                y, mask, two_label_layers=False):
    if two_label_layers:
        h0, c0 = gcn_layer_forward(op_label, feats, weights["w0_label"],
                                   activation="relu", weight_key="w0_label")
        ol, c1 = gcn_layer_forward(op_label_sq, h0, weights["w1_label"],
                                   activation="identity", weight_key="w1_label")
        label_caches = [c0, c1]
    else:
        ol, c0 = gcn_layer_forward(op_label, feats, weights["w0_label"],
                                   activation="identity", weight_key="w0_label")
        label_caches = [c0]
    hidden, n0 = gcn_layer_forward(op_node, feats, weights["w0_node"],
                                   activation="relu", weight_key="w0_node")
    ov, n1 = gcn_layer_forward(op_node_sq, hidden, weights["w1_node"],
                               activation="identity", weight_key="w1_node")
    m = ol.shape[0]
    z = softmax_rows(ol)
    loss = single_label_loss(z, np.eye(m)) + multi_label_loss(ov, y, mask)
    return loss, z, ol, ov, label_caches, [n0, n1]


class TestBackward:
    def grad_check(self, seed, two_label_layers=False):
        (op_node, op_node_sq, op_label, op_label_sq, feats, weights, y, mask,
         rng) = tiny_instance(seed, two_label_layers=two_label_layers)
        loss, z, ol, ov, lc, nc = run_forward(
            op_node, op_node_sq, op_label, op_label_sq, feats, weights, y,
            mask, two_label_layers)
        m = ol.shape[0]
        grads = backward(lc, single_label_loss_grad(z, np.eye(m)), nc,
                         multi_label_loss_grad(ov, y, mask))
        eps = 1e-6
        for key, analytic in grads.items():
            w = weights[key]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + eps
                lp = run_forward(op_node, op_node_sq, op_label, op_label_sq,
                                 feats, weights, y, mask, two_label_layers)[0]
                w[idx] = orig - eps
                lm = run_forward(op_node, op_node_sq, op_label, op_label_sq,
                                 feats, weights, y, mask, two_label_layers)[0]
                w[idx] = orig
                fd = (lp - lm) / (2 * eps)
                diff = abs(analytic[idx] - fd)
                # entries below the central-difference noise floor pass on
                # the absolute test; everything else at 1e-5 relative
                assert diff <= 1e-8 or diff <= 1e-5 * max(abs(analytic[idx]), abs(fd)), \
                    f"{key}{idx}: analytic={analytic[idx]} fd={fd}"

    def test_gradients_match_finite_differences(self):
        for seed in range(4):
            self.grad_check(seed)

    def test_two_layer_label_stack_gradients(self):
        self.grad_check(11, two_label_layers=True)

    def test_zero_final_weights_cut_the_chain(self):
        (op_node, op_node_sq, op_label, op_label_sq, feats, weights, y, mask,
         _) = tiny_instance(5)
        weights["w1_node"] = np.zeros_like(weights["w1_node"])
        loss, z, ol, ov, lc, nc = run_forward(
            op_node, op_node_sq, op_label, op_label_sq, feats, weights, y, mask)
        grads = backward(lc, single_label_loss_grad(z, np.eye(ol.shape[0])),
                         nc, multi_label_loss_grad(ov, y, mask))
        assert np.all(grads["w0_node"] == 0.0)
        assert not np.all(grads["w1_node"] == 0.0)

    def test_doubling_upstream_doubles_gradients(self):
        (op_node, op_node_sq, op_label, op_label_sq, feats, weights, y, mask,
         _) = tiny_instance(6)
        loss, z, ol, ov, lc, nc = run_forward(
            op_node, op_node_sq, op_label, op_label_sq, feats, weights, y, mask)
        dl = single_label_loss_grad(z, np.eye(ol.shape[0]))
        dn = multi_label_loss_grad(ov, y, mask)
        g1 = backward(lc, dl, nc, dn)
        # backward consumes its caches: the second call gets a fresh forward
        *_, lc, nc = run_forward(
            op_node, op_node_sq, op_label, op_label_sq, feats, weights, y, mask)
        g2 = backward(lc, 2.0 * dl, nc, 2.0 * dn)
        for key in g1:
            assert np.allclose(2.0 * g1[key], g2[key], atol=1e-12)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_consumed_caches_fail_loudly(self, dropout):
        # backward consumes both cache lists, writes neither the first
        # layers' input products nor the stacks' outputs, and a second call
        # on the same lists raises a one-line ValueError
        rng = np.random.default_rng(4)
        n, m, d, hidden = 30, 4, 3, 12
        x = rng.standard_normal((n + m, d))
        weights, outs, stacks, upstream = {}, {}, {}, {}
        for view, rows in (("label", m), ("node", n)):
            layers = [(random_op(rng, rows, n + m), f"w0_{view}"),
                      (random_op(rng, rows, rows), f"w1_{view}")]
            weights[f"w0_{view}"] = rng.standard_normal((d, hidden))
            weights[f"w1_{view}"] = rng.standard_normal((hidden, m))
            outs[view], stacks[view] = forward_stack(
                layers, x, weights, dropout, True, np.random.default_rng(5))
            assert stacks[view][0].propagated_first
            upstream[view] = rng.standard_normal((rows, m))
        kept = [a for view in stacks
                for a in (outs[view], stacks[view][0].weight_input)]
        kept_bytes = [a.tobytes() for a in kept]
        grads = backward(stacks["label"], upstream["label"], stacks["node"],
                         upstream["node"])
        assert set(grads) == set(weights)
        assert stacks == {"label": [], "node": []}
        assert [a.tobytes() for a in kept] == kept_bytes
        again = [
            lambda: backward(stacks["label"], upstream["label"],
                             stacks["node"], upstream["node"]),
            lambda: backward(None, None, stacks["node"], upstream["node"]),
            lambda: backward_stack(stacks["node"], upstream["node"], {}),
        ]
        for call in again:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == "missing forward cache"

    def test_dropout_mask_replayed_from_cache(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((6, 5))
        w = rng.standard_normal((5, 3))
        out, cache = gcn_layer_forward(SparseMatrix(np.eye(6)), h, w,
                                       activation="identity", dropout=0.4,
                                       training=True, rng=rng)
        assert np.array_equal((h * cache.mask * (1.0 / (1.0 - 0.4))) @ w, out)

    def test_missing_cache_rejected(self):
        with pytest.raises(ValueError, match="missing forward cache"):
            backward([], np.zeros((2, 2)), None, np.zeros((2, 2)))


# -- the out-of-place formulas the in-place kernels must match bit for bit --

def reference_layer(op, h, w, activation, dropout, training, rng, key):
    """`gcn_layer_forward` written out of place: one fresh array per
    operation, a whole-shape draw, a bool mask, and z cached unrectified."""
    sparse = sp.issparse(h)
    mask, hd = None, h
    if training and dropout > 0.0:
        drawn = rng.random(h.shape)
        if sparse:
            rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
            drawn = drawn[rows, h.indices]
        mask = drawn >= dropout
        if sparse:
            hd = h.copy()
            hd.data = hd.data * mask * (1.0 / (1.0 - dropout))
        else:
            hd = h * mask * (1.0 / (1.0 - dropout))
    first = not sparse and propagates_first(op.shape, op.nnz, w.shape)
    if first:
        weight_input = op @ hd
        z = weight_input @ w
    else:
        weight_input = hd
        z = op @ (hd @ w)
    out = np.maximum(z, 0.0) if activation == "relu" else z
    return out, LayerCache(op=op, weight=w, weight_input=weight_input,
                           pre_activation=z, mask=mask, activation=activation,
                           weight_key=key, propagated_first=first,
                           dropout=dropout)


def reference_backward_stack(caches, d_out, grads):
    """`backward_stack` written out of place."""
    g = d_out
    for idx in range(len(caches) - 1, -1, -1):
        cache = caches[idx]
        if cache.activation == "relu":
            dz = g * (cache.pre_activation > 0.0)
        else:
            dz = g
        d_prod = dz if cache.propagated_first else cache.op.T @ dz
        dw = cache.weight_input.T @ d_prod
        if cache.weight_key in grads:
            grads[cache.weight_key] += dw
        else:
            grads[cache.weight_key] = dw
        if idx > 0:
            d_hd = d_prod @ cache.weight.T
            if cache.propagated_first:
                d_hd = cache.op.T @ d_hd
            g = d_hd
            if cache.mask is not None:
                g = d_hd * cache.mask * (1.0 / (1.0 - cache.dropout))


def kernel_layer(op, h, w, activation, dropout, training, rng, key):
    return gcn_layer_forward(op, h, w, activation=activation,
                             dropout=dropout, training=training, rng=rng,
                             weight_key=key)


def run_layers(layer, ops, x, weights, activations, dropout, training):
    """Walk `ops` as `forward_stack` does, with any activations."""
    rng = np.random.default_rng(21)
    h, caches = x, []
    for idx, (op, key, act) in enumerate(zip(ops, weights, activations)):
        h, cache = layer(op, h, weights[key], act, dropout, training, rng, key)
        if idx == 0:
            cache.mask = None
        caches.append(cache)
    return h, caches, rng


class Recording:
    """A generator that records the shape of each block it draws into."""

    def __init__(self, seed):
        self.gen, self.blocks = np.random.default_rng(seed), []

    def random(self, *args, **kwargs):
        self.blocks.append(kwargs["out"].shape)
        return self.gen.random(*args, **kwargs)


def stored_bytes(a):
    if a is None:
        return None
    return a.data.tobytes() if sp.issparse(a) else a.tobytes()


class TestInPlaceTemporaries:
    """The rectifier, the backward gates, the dropout masks and the sparse
    row-block draws work in place, and give the out-of-place bits."""

    STACKS = [
        # input, widths, activations; orders W-first, op-first, W-first
        ("dense", (12, 3, 10, 2), ("relu", "relu", "identity")),
        ("dense", (2, 12, 3), ("relu", "identity")),
        # a rectified top layer gates d_out itself
        ("dense", (2, 12, 3), ("relu", "relu")),
        ("dense", (12, 3), ("identity",)),
        ("sparse", (6, 5, 3), ("relu", "identity")),
        ("sparse", (6, 5), ("relu",)),
    ]
    MODES = [(0.3, True), (0.0, True), (0.3, False)]

    def build(self, kind, widths):
        rng = np.random.default_rng(sum(widths) + len(widths))
        n, cols = 7, 9
        ops = [random_op(rng, n, cols)] + [random_op(rng, n, n)
                                           for _ in widths[2:]]
        weights = {f"w{i}": rng.standard_normal((a, b))
                   for i, (a, b) in enumerate(zip(widths, widths[1:]))}
        x = (random_op(rng, cols, widths[0]) if kind == "sparse"
             else rng.standard_normal((cols, widths[0])))
        return ops, weights, x, rng.standard_normal((n, widths[-1]))

    @pytest.mark.parametrize("dropout,training", MODES)
    @pytest.mark.parametrize("kind,widths,activations", STACKS)
    def test_forward_matches_the_out_of_place_layer(
            self, kind, widths, activations, dropout, training):
        ops, weights, x, _ = self.build(kind, widths)
        out, caches, rng = run_layers(kernel_layer, ops, x, weights,
                                      activations, dropout, training)
        ref, ref_caches, ref_rng = run_layers(reference_layer, ops, x,
                                              weights, activations, dropout,
                                              training)
        assert out.tobytes() == ref.tobytes()
        assert out is caches[-1].pre_activation
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for cache, want in zip(caches, ref_caches):
            assert cache.propagated_first == want.propagated_first
            assert stored_bytes(cache.mask) == stored_bytes(want.mask)
            assert (stored_bytes(cache.weight_input)
                    == stored_bytes(want.weight_input))
            z = want.pre_activation
            if cache.activation == "relu":
                assert np.array_equal(cache.pre_activation > 0.0, z > 0.0)
                assert (cache.pre_activation.tobytes()
                        == np.maximum(z, 0.0).tobytes())
            else:
                assert cache.pre_activation.tobytes() == z.tobytes()

    @pytest.mark.parametrize("dropout,training", MODES)
    @pytest.mark.parametrize("kind,widths,activations", STACKS)
    def test_backward_matches_and_writes_no_input(
            self, kind, widths, activations, dropout, training):
        ops, weights, x, upstream = self.build(kind, widths)
        _, caches, _ = run_layers(kernel_layer, ops, x, weights, activations,
                                  dropout, training)
        _, ref_caches, _ = run_layers(reference_layer, ops, x, weights,
                                      activations, dropout, training)
        if dropout and training and len(widths) > 2:
            assert caches[-1].mask is not None
        d_out = upstream.tobytes()
        kept = [caches[0].weight_input, caches[-1].pre_activation]
        kept_bytes = list(map(stored_bytes, kept))
        grads, ref_grads = {}, {}
        backward_stack(caches, upstream, grads)
        reference_backward_stack(ref_caches, upstream.copy(), ref_grads)
        assert set(grads) == set(ref_grads) == set(weights)
        for key in grads:
            assert grads[key].tobytes() == ref_grads[key].tobytes()
        assert upstream.tobytes() == d_out
        # the caches are consumed, but the first layer's input product
        # and the stack's output are never written
        assert caches == []
        assert list(map(stored_bytes, kept)) == kept_bytes
        with pytest.raises(ValueError, match="missing forward cache"):
            backward_stack(caches, upstream, {})

    def test_gate_of_nan_and_signed_zeros(self):
        # z holds NaN, both zeros and both signs; relu(z) > 0 marks z > 0
        z = np.array([[np.nan, -0.0, 0.0, -1.5], [2.0, -np.nan, 1e-300, -3.0]])
        assert np.array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)
        rng = np.random.default_rng(2)
        op = SparseMatrix(np.eye(2))
        w0, w1 = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))
        below = rng.standard_normal((2, 3))
        upstream = rng.standard_normal((2, 4))
        for top in ("relu", "identity"):
            def stack(pre):
                hidden = np.maximum(z, 0.0)
                return [LayerCache(op, w0, below, pre, None, "relu", "w0", True),
                        LayerCache(op, w1, hidden, hidden if top == "relu"
                                   else hidden @ w1, None, top, "w1", True)]
            grads, ref_grads = {}, {}
            backward_stack(stack(np.maximum(z, 0.0)), upstream, grads)
            reference_backward_stack(stack(z), upstream, ref_grads)
            for key in ref_grads:
                assert grads[key].tobytes() == ref_grads[key].tobytes()

    @pytest.mark.parametrize("budget", [None, 1, 7, 3 * 7 + 2])
    def test_sparse_draws_in_row_blocks_match_one_draw(self, monkeypatch,
                                                       budget):
        # 10 rows of 7 columns, one of them empty; budgets of 1 value and
        # of one row give one-row blocks, 23 values give blocks of 3 rows
        rng = np.random.default_rng(3)
        dense = rng.random((10, 7)) * (rng.random((10, 7)) < 0.4)
        dense[4] = 0.0
        x = SparseMatrix(dense)
        if budget is not None:
            monkeypatch.setattr(kernels, "_DRAW_BLOCK_VALUES", budget)
            monkeypatch.setattr(kernels, "_BLOCK_ROWS_MIN", 1)
        block_rows = max(1, kernels._DRAW_BLOCK_VALUES // 7)
        recording = Recording(9)
        values = kernels._stored_draws(recording, x)
        replay = np.random.default_rng(9)
        whole = replay.random(x.shape)
        rows = np.repeat(np.arange(10), np.diff(x.indptr))
        assert values.tobytes() == whole[rows, x.indices].tobytes()
        assert sum(r for r, _ in recording.blocks) == 10
        assert max(r for r, _ in recording.blocks) == min(block_rows, 10)
        assert recording.gen.random(5).tobytes() == replay.random(5).tobytes()

        op = random_op(rng, 6, 10)
        w = rng.standard_normal((7, 3))
        layer_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        _, cache = gcn_layer_forward(op, x, w, dropout=0.4, training=True,
                                     rng=layer_rng)
        _, ref_cache = reference_layer(op, x, w, "relu", 0.4, True, ref_rng,
                                       "")
        assert cache.mask.tobytes() == ref_cache.mask.tobytes()
        assert layer_rng.random(3).tobytes() == ref_rng.random(3).tobytes()

    def test_first_layer_product_is_the_layer_own_in_one_block(self):
        # within one block a stack's dense first layer draws, masks and
        # propagates its whole input: the bits of the out-of-place layer
        rng = np.random.default_rng(13)
        op = random_op(rng, 4, 10)
        x = rng.standard_normal((10, 6))
        w = rng.standard_normal((6, 9))
        assert propagates_first(op.shape, op.nnz, w.shape)
        layer_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        out, caches = forward_stack([(op, "w0")], x, {"w0": w}, 0.4, True,
                                    layer_rng)
        ref, ref_cache = reference_layer(op, x, w, "identity", 0.4, True,
                                         ref_rng, "w0")
        assert out.tobytes() == ref.tobytes()
        assert (caches[0].weight_input.tobytes()
                == ref_cache.weight_input.tobytes())
        assert caches[0].mask is None
        assert layer_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_first_layer_in_row_blocks_above_the_budget(self, monkeypatch,
                                                        block_rows):
        rng = np.random.default_rng(14)
        op = random_op(rng, 4, 10)
        x = rng.standard_normal((10, 6))
        w = rng.standard_normal((6, 9))
        before = x.tobytes()
        whole_rng = np.random.default_rng(5)
        whole, whole_caches = forward_stack([(op, "w0")], x, {"w0": w}, 0.4,
                                            True, whole_rng)
        monkeypatch.setattr(kernels, "_BLOCK_VALUES", block_rows * 6)
        monkeypatch.setattr(kernels, "_BLOCK_ROWS_MIN", 1)
        recording = Recording(5)
        out, caches = forward_stack([(op, "w0")], x, {"w0": w}, 0.4, True,
                                    recording)
        rows = [r for r, _ in recording.blocks]
        assert sum(rows) == 10 and max(rows) == block_rows
        assert (recording.gen.bit_generator.state
                == whole_rng.bit_generator.state)
        np.testing.assert_allclose(caches[0].weight_input,
                                   whole_caches[0].weight_input,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out, whole, rtol=1e-12, atol=1e-15)
        assert x.tobytes() == before

    # the peaks a training forward, and then `backward`, reach over their
    # inputs, in n x hidden float64 arrays: calibrated at 2.44 and 2.44
    # with dropout 0.5 and at 1.31 and 1.44 without (2.44 and 3.55, 1.31
    # and 2.42 while backward allocated each input gradient anew; 5.31 and
    # 6.45, 2.31 and 4.45 when every step took a fresh array), so one more
    # n x hidden copy in either breaks its bound
    @pytest.mark.parametrize("dropout,bounds", [(0.5, (2.75, 2.75)),
                                                (0.0, (1.75, 1.75))])
    def test_memory_guard(self, dropout, bounds):
        n, d, hidden, m = 3000, 64, 256, 8
        rng = np.random.default_rng(0)
        ops = [SparseMatrix(sp.random(n, n, density=0.002, random_state=k,
                                      format="csr")) for k in range(2)]
        weights = {"w0": rng.standard_normal((d, hidden)),
                   "w1": rng.standard_normal((hidden, m))}
        x = rng.standard_normal((n, d))
        upstream = rng.standard_normal((n, m))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, caches = forward_stack(list(zip(ops, weights)), x, weights,
                                      dropout, True, np.random.default_rng(2))
            forward_peak = tracemalloc.get_traced_memory()[1]
            orders = [c.propagated_first for c in caches]
            tracemalloc.reset_peak()
            backward(None, None, caches, upstream)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert orders == [True, False]
        unit = n * hidden * 8
        assert (forward_peak - base) / unit <= bounds[0]
        assert (backward_peak - base) / unit <= bounds[1]


    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_backward_allocates_under_one_activation(self, dropout):
        # backward writes each input gradient into the activation it is
        # done with, so what it allocates stays below one n x hidden array
        n, d, hidden, m = 3000, 64, 256, 8
        rng = np.random.default_rng(1)
        ops = [SparseMatrix(sp.random(n, n, density=0.002, random_state=k,
                                      format="csr")) for k in range(2)]
        weights = {"w0": rng.standard_normal((d, hidden)),
                   "w1": rng.standard_normal((hidden, m))}
        x = rng.standard_normal((n, d))
        upstream = rng.standard_normal((n, m))
        _, caches = forward_stack(list(zip(ops, weights)), x, weights,
                                  dropout, True, np.random.default_rng(2))
        assert [c.propagated_first for c in caches] == [True, False]
        tracemalloc.start()
        try:
            backward(None, None, caches, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * hidden * 8


class TestStreamedFirstLayer:
    """`spmm` adds column-block products into one output, and `_propagate`
    streams a dense first layer's ``op @ dropout(H)`` over row blocks with
    the bits of the whole product."""

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_spmm_column_blocks_add_up_bitwise(self, block, transposed):
        rng = np.random.default_rng(block)
        s = random_op(rng, 9, 20)
        if transposed:
            s = s.T
        assert s.format == ("csc" if transposed else "csr")
        d = rng.standard_normal((s.shape[1], 5))
        want = s @ d
        out = np.zeros(want.shape)
        for start in range(0, s.shape[1], block):
            stop = min(start + block, s.shape[1])
            assert spmm(s[:, start:stop], d[start:stop], out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_spmm_adds_into_out(self):
        s = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        out = np.ones((2, 2))
        spmm(s, np.array([[1.0, 0.0], [1.0, 2.0]]), out=out)
        assert np.array_equal(out, [[4.0, 5.0], [4.0, 7.0]])
        for bad in (np.zeros((2, 3)), np.zeros((2, 4))[:, ::2]):
            with pytest.raises(ValueError, match="cannot add"):
                spmm(s, np.ones((2, 2)), out=bad)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_streamed_array_is_the_whole_product(self, monkeypatch, dropout,
                                                 block_rows):
        rng = np.random.default_rng(block_rows)
        op = random_op(rng, 4, 10)
        h = rng.standard_normal((10, 6))
        before = h.tobytes()
        whole_rng = np.random.default_rng(5)
        hd = h
        if dropout:
            keep = whole_rng.random(h.shape) >= dropout
            hd = h * keep * (1.0 / (1.0 - dropout))
        want = op @ hd
        monkeypatch.setattr(kernels, "_BLOCK_VALUES", block_rows * 6)
        monkeypatch.setattr(kernels, "_BLOCK_ROWS_MIN", 1)
        recording = Recording(5)
        got = kernels._propagate(op, h, h.shape, dropout, recording)
        assert got.tobytes() == want.tobytes()
        assert h.tobytes() == before
        rows = [r for r, _ in recording.blocks]
        whole_blocks, tail = divmod(10, block_rows)
        assert rows == ([block_rows] * whole_blocks + [tail] * (tail > 0)
                        if dropout else [])
        assert (recording.gen.bit_generator.state
                == whole_rng.bit_generator.state)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_row_writer_always_propagates_first(self, dropout):
        # a row writer propagates first at a fan-out whose shapes would
        # multiply W first too, and gives the bits of op @ dropout(x) over
        # one whole draw of the same generator
        rng = np.random.default_rng(2)
        op = random_op(rng, 6, 9)
        x = rng.standard_normal((9, 4))

        def write(start, stop, out):
            out[...] = x[start:stop]
        for fan_out, first in ((12, True), (2, False)):
            weights = {"w0": rng.standard_normal((4, fan_out))}
            assert propagates_first(op.shape, op.nnz, (4, fan_out)) == first
            layer_rng, ref_rng = (np.random.default_rng(3),
                                  np.random.default_rng(3))
            out, caches = forward_stack([(op, "w0")], write, weights, dropout,
                                        True, layer_rng)
            hd = x
            if dropout:
                hd = x * (ref_rng.random(x.shape) >= dropout) * (
                    1.0 / (1.0 - dropout))
            want = op @ hd
            assert caches[0].propagated_first
            assert caches[0].weight_input.tobytes() == want.tobytes()
            assert out.tobytes() == (want @ weights["w0"]).tobytes()
            assert (layer_rng.bit_generator.state
                    == ref_rng.bit_generator.state)
        with pytest.raises(ValueError, match="needs an rng"):
            forward_stack([(op, "w0")], write, weights, 0.3, True, None)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_hidden_one_writer_is_never_written_whole(self, dropout):
        # a hidden-1 label layer over a dense operator multiplies W first by
        # its shapes; over a row writer it streams, so the forward holds
        # row blocks and no (m+n) x d array
        m, n, d = 8, 2000, 600
        rng = np.random.default_rng(6)
        op = random_op(rng, m, m + n, density=0.3)
        x = rng.standard_normal((m + n, d))
        weights = {"w0_label": rng.standard_normal((d, 1))}
        assert not propagates_first(op.shape, op.nnz, (d, 1))

        def write(start, stop, out):
            out[...] = x[start:stop]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, caches = forward_stack([(op, "w0_label")], write, weights,
                                      dropout, True, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert caches[0].propagated_first
        assert peak - base < (m + n) * d * 8

    def test_short_last_block_joins_the_one_before(self):
        blocks = kernels._row_blocks
        assert blocks(100, 10, 400) == [(0, 40), (40, 100)]
        assert blocks(112, 10, 400) == [(0, 40), (40, 80), (80, 112)]
        assert blocks(20, 10, 400) == [(0, 20)]
        # the floor holds however wide the rows are
        assert blocks(70, 10 ** 6, 400) == [(0, 32), (32, 70)]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_byte_mask_matches_the_float_mask(self):
        # h and the upstream gradient hold both zeros, NaN and infinities;
        # multiplying by the bool mask and then by 1/(1-p) gives the bits
        # of one multiplication by the {0, 1/(1-p)} float mask
        p = 0.4
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -1.5, 2.5])
        rng = np.random.default_rng(8)
        h = rng.choice(special, size=(9, 6))
        keep = rng.random(h.shape) >= p
        assert ((h * keep * (1.0 / (1.0 - p))).tobytes()
                == (h * (keep / (1.0 - p))).tobytes())

        # a W-first layer: its weight input is the dropped-out h itself
        op = random_op(rng, 7, 9)
        w = rng.standard_normal((6, 2))
        layer_rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        _, cache = gcn_layer_forward(op, h, w, dropout=p, training=True,
                                     rng=layer_rng)
        float_mask = (replay.random(h.shape) >= p) / (1.0 - p)
        assert not cache.propagated_first
        assert cache.mask.dtype == bool and cache.mask.nbytes == h.size
        assert cache.weight_input.tobytes() == (h * float_mask).tobytes()

        # backward: a two-layer stack, whose upper mask passes the gradient
        # down, against the same caches carrying the float mask instead
        x = rng.standard_normal((9, 3))
        ops = [random_op(rng, 7, 9), random_op(rng, 7, 7)]
        weights = {"w0": rng.standard_normal((3, 5)),
                   "w1": rng.standard_normal((5, 2))}
        upstream = rng.choice(special[[0, 1, 5, 6]], size=(7, 2))
        _, caches = forward_stack(list(zip(ops, weights)), x, weights, p,
                                  True, np.random.default_rng(6))
        top = caches[1]
        assert top.mask.dtype == bool
        floats = [caches[0], LayerCache(
            top.op, top.weight, top.weight_input, top.pre_activation,
            top.mask / (1.0 - p), top.activation, top.weight_key,
            top.propagated_first)]
        grads, want = {}, {}
        # the reference first: backward_stack consumes the caches it shares
        reference_backward_stack(floats, upstream, want)
        backward_stack(caches, upstream, grads)
        for key in weights:
            assert grads[key].tobytes() == want[key].tobytes()
