"""The sparse index dtype policy (`matrices.index_dtype`): every sparse
matrix the package builds holds int32 ``indptr`` and ``indices`` while its
shape and nnz allow, int64 past that, and no result depends on which."""

import numpy as np
import pytest
import scipy.sparse as sp

from mlgcn.cli import dataset_fingerprint
from mlgcn.datasets import (SyntheticConfig, generate_synthetic, load_dataset,
                            parse_edge_list, parse_label_assignments)
from mlgcn.kernels import multi_label_loss, multi_label_loss_grad, spmm
from mlgcn.matrices import SparseMatrix, index_dtype
from mlgcn.metrics import compute_f1, evaluate, predict_labels
from mlgcn.operators import build_operators
from mlgcn.training import (VARIANTS, TrainConfig, _label_input, _node_input,
                            init_model, input_features)

EDGES = "a,b\nb,c\nc,a\nc,c\na,b\nd,a\n"
LABELS = "a,x\nb,y\nc,x\nc,y\nd,x\n"


def assert_int32(matrix, what=""):
    assert matrix.indptr.dtype == np.int32, (what, matrix.indptr.dtype)
    assert matrix.indices.dtype == np.int32, (what, matrix.indices.dtype)


def synthetic():
    return generate_synthetic(SyntheticConfig(community_size=10, seed=3))


def with_int64_indices(matrix):
    """A copy of `matrix` whose indptr and indices are int64, set directly
    so that no constructor narrows them."""
    copy = sp.csr_array(matrix) if matrix.format == "csr" else sp.csc_array(
        matrix)
    copy.indptr = matrix.indptr.astype(np.int64)
    copy.indices = matrix.indices.astype(np.int64)
    return copy


class TestRule:
    def test_boundaries(self):
        top = 2**31 - 1
        assert index_dtype((top, top), top) is np.int32
        assert index_dtype((1, top + 1), 0) is np.int64
        assert index_dtype((top + 1, 1), 0) is np.int64
        assert index_dtype((1, 1), top + 1) is np.int64

    def test_from_coo_narrows_int64_coordinates(self):
        s = SparseMatrix.from_coo(2, 3, np.array([1, 0], np.int64),
                                  np.array([2, 0], np.int64), [1.0, 2.0])
        assert_int32(s)
        assert np.array_equal(s.to_dense(), [[2, 0, 0], [0, 0, 1]])

    def test_from_coo_falls_back_to_int64_past_int32(self):
        # a 1 x 2**31 matrix with two entries: one row, no dense allocation
        s = SparseMatrix.from_coo(1, 2**31, [0, 0], [2**31 - 1, 5],
                                  [1.0, 2.0])
        assert s.shape == (1, 2**31)
        assert s.indptr.dtype == s.indices.dtype == np.int64
        assert s.indices.tolist() == [5, 2**31 - 1]
        assert s.data.tolist() == [2.0, 1.0]

    def test_wrapper_narrows_an_int64_scipy_result(self):
        dense = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, 3.0]])
        wide = with_int64_indices(sp.csr_array(dense))
        assert wide.indices.dtype == np.int64
        s = SparseMatrix(wide)
        assert_int32(s)
        assert np.shares_memory(s.data, wide.data)
        assert np.array_equal(s.to_dense(), dense)

    def test_wrapper_keeps_int64_past_int32(self):
        wide = sp.csr_array((np.ones(1), np.array([2**31], np.int64),
                             np.array([0, 1], np.int64)), shape=(1, 2**31 + 1))
        s = SparseMatrix(wide)
        assert s.indptr.dtype == s.indices.dtype == np.int64


class TestBuiltMatrices:
    @pytest.mark.parametrize("header", ["", "# header\n"])
    def test_load_dataset(self, tmp_path, header):
        # a '# header' line sends the files through the per-line parser
        (tmp_path / "e.csv").write_text(header + EDGES)
        (tmp_path / "l.csv").write_text(header + LABELS)
        g = load_dataset(tmp_path / "e.csv", tmp_path / "l.csv")
        assert_int32(g.adjacency, "adjacency")
        assert_int32(g.label_assignments, "labels")
        nodes, labels = {}, {}
        for array in (*parse_edge_list(header + EDGES, nodes)[:2],
                      *parse_label_assignments(header + LABELS, nodes, labels)):
            assert array.dtype == np.int32

    def test_generate_synthetic(self):
        g = synthetic()
        assert_int32(g.adjacency, "adjacency")
        assert_int32(g.label_assignments, "labels")

    @pytest.mark.parametrize("binarize", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_operators_their_transposes_and_csc_copies(self, variant,
                                                       binarize):
        ops = build_operators(synthetic(), variant, binarize)
        assert_int32(ops.cooccurrence, "cooccurrence")
        for view in ("label", "node"):
            for name in ("truncated", "intra"):
                op = getattr(getattr(ops, view), name)
                assert type(op) is SparseMatrix
                for form, m in (("", op), (".T", op.T),
                                (".tocsc()", op.tocsc())):
                    assert_int32(m, f"{view}.{name}{form}")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_hot_inputs(self, variant):
        g = synthetic()
        config = TrainConfig(variant=variant, hidden_dim=4)
        x, _ = input_features(g.node_count, g.label_count, config)
        assert_int32(x, "X")
        model = init_model(g, config)
        assert_int32(_node_input(model, config), "node input")
        if variant != "gcn_baseline":
            # before any node injection the label input is [Y; X] as CSR
            assert_int32(_label_input(model), "label input")


class TestNoResultDependsOnTheDtype:
    def test_fingerprints_match_the_int64_build(self, tmp_path):
        # values computed when every matrix held int64 indices
        g = synthetic()
        assert dataset_fingerprint(g, 0) == (
            "8291c94d6840cb6e931a450537d23194ea489b9b0f08b36610605db8a28043e2")
        assert dataset_fingerprint(g, 16) == (
            "94206a4b09a0e33847d3e20c79f3f957e337db40eee8121e8b9d3a2a2c300740")
        (tmp_path / "e.csv").write_text("a,b\nb,c\nc,a,2.5\n")
        (tmp_path / "l.csv").write_text("a,x\nb,y\nc,x\nd,y\n")
        files = load_dataset(tmp_path / "e.csv", tmp_path / "l.csv")
        assert dataset_fingerprint(files, 0) == (
            "8149683ea03f700bf421425c78514576389714780afff3bb3ca3d9c59bdc493b")

    def test_spmm_is_bitwise_equal_for_int32_and_int64(self):
        ops = build_operators(synthetic())
        rng = np.random.default_rng(0)
        for op in (ops.node.truncated, ops.node.intra, ops.label.truncated):
            d = rng.standard_normal((op.shape[1], 7))
            g = rng.standard_normal((op.shape[0], 7))
            for narrow, wide, rhs in ((op, with_int64_indices(op), d),
                                      (op.T, with_int64_indices(op.T), g),
                                      (op.tocsc(),
                                       with_int64_indices(op.tocsc()), d)):
                assert wide.indices.dtype == np.int64
                want = spmm(narrow, rhs)
                assert spmm(wide, rhs).tobytes() == want.tobytes()
                out = np.zeros_like(want)
                assert spmm(wide, rhs, out=out).tobytes() == want.tobytes()

    def test_bool_targets_give_the_float_results(self):
        g = synthetic()
        as_float = g.label_assignments.to_dense()
        as_bool = g.label_indicators()
        assert as_bool.dtype == bool
        assert np.array_equal(as_bool, as_float != 0)
        rng = np.random.default_rng(1)
        logits = 3.0 * rng.standard_normal(as_float.shape)
        rows = np.arange(0, g.node_count, 3)
        assert (multi_label_loss(logits, as_float, rows)
                == multi_label_loss(logits, as_bool, rows))
        assert (multi_label_loss_grad(logits, as_float, rows).tobytes()
                == multi_label_loss_grad(logits, as_bool, rows).tobytes())
        for rule in ("top_k_true", "threshold"):
            assert (evaluate(logits, as_float, rows, rule=rule)
                    == evaluate(logits, as_bool, rows, rule=rule))
            pred = predict_labels(logits, rule, truth=as_float)
            assert np.array_equal(pred,
                                  predict_labels(logits, rule, truth=as_bool))
            assert (compute_f1(pred, as_float, rows)
                    == compute_f1(pred, as_bool, rows))
