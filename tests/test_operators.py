import numpy as np

from mlgcn.datasets import SyntheticConfig, dataset_stats, generate_synthetic
from mlgcn.matrices import SparseMatrix
from mlgcn.operators import (build_label_cooccurrence,
                             build_label_label_node_adj,
                             build_node_node_label_adj, build_operators,
                             normalize_symmetric)


def dense_normalize_oracle(m_dense):
    """Brute-force D^{-1/2} (M+I) D^{-1/2} on a dense matrix."""
    with_loops = m_dense + np.eye(m_dense.shape[0])
    d = with_loops.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * with_loops * inv[None, :]


def random_symmetric(rng, n, density=0.4, weighted=False):
    upper = np.triu(rng.random((n, n)) < density, 1).astype(float)
    if weighted:
        upper *= rng.uniform(0.5, 3.0, size=(n, n))
        upper = np.triu(upper, 1)
    return upper + upper.T


def random_binary(rng, n, m, density=0.4, no_orphans=True):
    while True:
        b = (rng.random((n, m)) < density).astype(float)
        if not no_orphans or (b.sum(axis=0) > 0).all():
            return b


class TestLabelCooccurrence:
    def test_two_nodes_shared_label(self):
        # label sets {0,1} and {1,2}
        b = SparseMatrix(np.array([[1., 1., 0.], [0., 1., 1.]]))
        c = build_label_cooccurrence(b).to_dense()
        assert c[0, 1] == 1 and c[1, 2] == 1 and c[0, 2] == 0
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 0)

    def test_triple_label_node(self):
        b = SparseMatrix(np.array([[1., 1., 1.]]))
        c = build_label_cooccurrence(b).to_dense()
        for r, s in [(0, 1), (0, 2), (1, 2)]:
            assert c[r, s] == 1

    def test_single_labeled_nodes_give_zero(self):
        b = SparseMatrix(np.eye(4))
        assert build_label_cooccurrence(b).nnz == 0

    def test_counts_match_pair_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            m = int(rng.integers(2, 8))
            b = random_binary(rng, n, m, no_orphans=False)
            c = build_label_cooccurrence(SparseMatrix(b)).to_dense()
            oracle = np.zeros((m, m))
            for i in range(n):
                labels = np.flatnonzero(b[i])
                for x in labels:
                    for y in labels:
                        if x != y:
                            oracle[x, y] += 1
            assert np.array_equal(c, oracle)

    def test_binarize_flag(self):
        b = SparseMatrix(np.array([[1., 1.], [1., 1.], [1., 1.]]))
        counts = build_label_cooccurrence(b).to_dense()
        flags = build_label_cooccurrence(b, binarize=True).to_dense()
        assert counts[0, 1] == 3 and flags[0, 1] == 1


class TestCompositeAdjacencies:
    def test_node_view_block_assembly(self):
        a = SparseMatrix(np.array([[0., 1.], [1., 0.]]))
        b = SparseMatrix(np.array([[1.], [0.]]))
        e = build_node_node_label_adj(a, b)
        assert isinstance(e, SparseMatrix) and e.shape == (3, 3)
        expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
        assert np.array_equal(e.to_dense(), expected)

    def test_label_view_block_assembly(self):
        c = SparseMatrix(np.array([[0., 1.], [1., 0.]]))
        b = SparseMatrix(np.array([[1., 1.]]))  # one node, both labels
        f = build_label_label_node_adj(c, b)
        assert isinstance(f, SparseMatrix) and f.shape == (3, 3)
        expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(f.to_dense(), expected)

    def test_empty_assignments_pad_with_zeros(self):
        a = SparseMatrix(np.array([[0., 2.], [2., 0.]]))
        b = SparseMatrix((2, 1))
        e = build_node_node_label_adj(a, b)
        dense = e.to_dense()
        assert np.array_equal(dense[:2, :2], a.to_dense())
        assert dense[2].sum() == 0 and dense[:, 2].sum() == 0

    def test_random_composites_symmetric_with_exact_cross_blocks(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 6))
            a = SparseMatrix(random_symmetric(rng, n, weighted=True))
            b_dense = random_binary(rng, n, m, no_orphans=False)
            b = SparseMatrix(b_dense)
            e = build_node_node_label_adj(a, b).to_dense()
            assert np.array_equal(e, e.T)
            assert np.array_equal(e[:n, n:], b_dense)
            assert np.array_equal(e[n:, :n], b_dense.T)
            assert e[n:, n:].sum() == 0

            c = build_label_cooccurrence(b)
            f = build_label_label_node_adj(c, b).to_dense()
            assert np.array_equal(f, f.T)
            assert np.array_equal(f[:m, m:], b_dense.T)
            assert np.array_equal(f[m:, :m], b_dense)
            assert f[m:, m:].sum() == 0

    def test_label_view_without_node_attributes(self):
        b = SparseMatrix(np.array([[1., 1.], [0., 1.]]))
        c = build_label_cooccurrence(b)
        f = build_label_label_node_adj(c, b, include_node_attrs=False)
        dense = f.to_dense()
        assert dense[:2, 2:].sum() == 0 and dense[2:, :2].sum() == 0
        assert np.array_equal(dense[:2, :2], c.to_dense())


class TestNormalizeSymmetric:
    def test_single_edge_pair(self):
        m = SparseMatrix(np.array([[0., 1.], [1., 0.]]))
        assert np.allclose(normalize_symmetric(m).to_dense(),
                           [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_isolated_node(self):
        m = SparseMatrix(np.array([[0.]]))
        assert np.allclose(normalize_symmetric(m).to_dense(), [[1.0]], atol=1e-15)

    def test_three_node_path_entry(self):
        m = SparseMatrix(np.array([[0., 1., 0.],
                                              [1., 0., 1.],
                                              [0., 1., 0.]]))
        out = normalize_symmetric(m).to_dense()
        assert abs(out[0, 1] - 0.4082482905) < 1e-9
        assert abs(out[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-15
        assert np.allclose(out, dense_normalize_oracle(m.to_dense()), atol=1e-15)

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, 21))
            dense = random_symmetric(rng, n, weighted=True)
            out = normalize_symmetric(SparseMatrix(dense)).to_dense()
            assert np.abs(out - dense_normalize_oracle(dense)).max() <= 1e-12
            assert np.array_equal(out, out.T)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(7)
        dense = random_symmetric(rng, 8)
        out = normalize_symmetric(SparseMatrix(dense)).to_dense()
        assert out.min() >= 0


class TestTruncateRows:
    def test_identity_truncation_examples(self):
        eye = SparseMatrix(np.eye(3))
        assert np.array_equal(eye[:2].toarray(),
                              [[1, 0, 0], [0, 1, 0]])
        assert (eye[:3] != eye).nnz == 0


class TestBuildOperators:
    def test_truncated_shapes(self):
        g = generate_synthetic(SyntheticConfig(community_size=10, seed=0))
        ops = build_operators(g)
        n, m = g.node_count, g.label_count
        assert ops.node.truncated.shape == (n, n + m)
        assert ops.label.truncated.shape == (m, n + m)
        assert ops.node.intra.shape == (n, n)
        assert ops.label.intra.shape == (m, m)

    def test_matches_full_dense_pipeline(self):
        rng = np.random.default_rng(8)
        g = generate_synthetic(SyntheticConfig(community_size=6, rho=0.6, seed=1))
        n, m = g.node_count, g.label_count
        ops = build_operators(g)
        a = g.adjacency.to_dense()
        b = g.label_assignments.to_dense()
        c = build_label_cooccurrence(g.label_assignments).to_dense()

        e_full = np.zeros((n + m, n + m))
        e_full[:n, :n] = a
        e_full[:n, n:] = b
        e_full[n:, :n] = b.T
        assert np.abs(ops.node.truncated.to_dense()
                      - dense_normalize_oracle(e_full)[:n]).max() <= 1e-12

        f_full = np.zeros((n + m, n + m))
        f_full[:m, :m] = c
        f_full[:m, m:] = b.T
        f_full[m:, :m] = b
        assert np.abs(ops.label.truncated.to_dense()
                      - dense_normalize_oracle(f_full)[:m]).max() <= 1e-12

        assert np.abs(ops.node.intra.to_dense()
                      - dense_normalize_oracle(a)).max() <= 1e-12
        assert np.abs(ops.label.intra.to_dense()
                      - dense_normalize_oracle(c)).max() <= 1e-12

    def test_node_variant_strips_cross_block(self):
        g = generate_synthetic(SyntheticConfig(community_size=8, seed=2))
        ops = build_operators(g, variant="node")
        m = g.label_count
        assert ops.label.truncated.to_dense()[:, m:].sum() == 0

    def test_cooccurrence_pairs_match_dataset_stats(self):
        g = generate_synthetic(SyntheticConfig(communities=3, community_size=9,
                                               rho=0.5, seed=3))
        ops = build_operators(g)
        c = ops.cooccurrence.to_dense()
        pairs = np.count_nonzero(np.triu(c, 1))
        assert pairs == dataset_stats(g).cooccurrence_count

    def test_every_output_is_a_sparse_matrix(self):
        g = generate_synthetic(SyntheticConfig(community_size=6, seed=4))
        for variant in ("full", "node"):
            for binarize in (False, True):
                ops = build_operators(g, variant, binarize)
                for op in (ops.label.truncated, ops.label.intra,
                           ops.node.truncated, ops.node.intra,
                           ops.cooccurrence):
                    assert type(op) is SparseMatrix
                    assert op.has_canonical_format
