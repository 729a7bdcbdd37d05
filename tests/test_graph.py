import numpy as np

from mlgcn.graph import MultiLabelGraph, validate_graph
from mlgcn.matrices import SparseMatrix


def make_graph(a, b, n=None, m=None):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = n if n is not None else a.shape[0]
    m = m if m is not None else b.shape[1]
    return MultiLabelGraph(
        node_count=n, label_count=m,
        adjacency=SparseMatrix(a),
        label_assignments=SparseMatrix(b),
        node_ids=tuple(str(i) for i in range(n)),
        label_ids=tuple(f"L{r}" for r in range(m)))


class TestValidateGraph:
    def test_minimal_valid_graph(self):
        g = make_graph([[0, 1], [1, 0]], [[1, 0], [0, 1]])
        assert validate_graph(g) == []

    def test_asymmetric_edge(self):
        one_direction = SparseMatrix.from_coo(2, 2, [0], [1], [1.0])
        unequal_weights = SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 2.0])
        for a in (one_direction, unequal_weights):
            g = MultiLabelGraph(2, 2, a,
                                SparseMatrix(np.eye(2)),
                                ("0", "1"), ("L0", "L1"))
            report = validate_graph(g)
            assert any("asymmetric edge (0,1)" in v for v in report)
            assert sum("asymmetric edge" in v for v in report) == 1

    def test_asymmetry_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n * n))
            rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
            a = SparseMatrix.from_coo(n, n, rows, cols,
                                      rng.integers(1, 3, k).astype(float))
            g = MultiLabelGraph(n, 1, a, SparseMatrix(np.ones((n, 1))),
                                tuple(map(str, range(n))), ("L0",))
            dense = a.to_dense()
            oracle = [f"asymmetric edge ({i},{j})" for i in range(n)
                      for j in range(i + 1, n) if dense[i, j] != dense[j, i]]
            assert [v for v in validate_graph(g) if "asymmetric" in v] == oracle

    def test_orphan_label(self):
        g = make_graph([[0, 1], [1, 0]], [[1, 1, 0], [0, 1, 0]])
        report = validate_graph(g)
        assert any("orphan label 2" in v for v in report)

    def test_self_loop_detected(self):
        g = make_graph([[1.0, 0], [0, 0]], [[1, 0], [0, 1]])
        assert any("self-loop at node 0" in v for v in validate_graph(g))

    def test_nonpositive_weight_detected(self):
        a = SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [-1.0, -1.0])
        g = MultiLabelGraph(2, 1, a,
                            SparseMatrix(np.ones((2, 1))),
                            ("0", "1"), ("L0",))
        assert any("nonpositive weight" in v for v in validate_graph(g))

    def test_non_binary_label_entries(self):
        b = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, 0.5])
        g = MultiLabelGraph(2, 2, SparseMatrix(np.array([[0., 1.], [1., 0.]])),
                            b, ("0", "1"), ("L0", "L1"))
        assert any("non-binary label entry (1, 1)" in v for v in validate_graph(g))
