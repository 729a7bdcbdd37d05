import numpy as np
import pytest
import scipy.sparse as sp

from mlgcn.matrices import SparseMatrix
from mlgcn.operators import normalize_symmetric


def random_sparse(rng, rows, cols, density=0.3):
    dense = rng.random((rows, cols))
    dense[rng.random((rows, cols)) >= density] = 0.0
    r, c = np.nonzero(dense)
    return SparseMatrix.from_coo(rows, cols, r, c, dense[r, c]), dense


class TestSparseMatrix:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            s, dense = random_sparse(rng, rows, cols)
            assert np.array_equal(s.to_dense(), dense)
            again = SparseMatrix(s.to_dense())
            assert np.array_equal(s.indptr, again.indptr)
            assert np.array_equal(s.indices, again.indices)
            assert np.array_equal(s.data, again.data)

    def test_from_coo_sums_duplicates(self):
        s = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert s.nnz == 2
        assert s.to_dense()[0, 1] == 5.0

    def test_from_coo_drops_zero_sums(self):
        s = SparseMatrix.from_coo(1, 2, [0, 0], [0, 0], [1.0, -1.0])
        assert s.nnz == 0

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(2, 2, [2], [0], [1.0])
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(2, 2, [0], [-1], [1.0])

    # coordinates were cast: [0.7, 1.2] and [1.9, 0.0] built entries at
    # (0, 1) and (1, 0), and a bool array read as rows 0 and 1
    @pytest.mark.parametrize("rows,cols", [
        ([0.7, 1.2], [1.9, 0.0]), ([0.0, 1.0], [1, 0]),
        ([0, 1], [False, True]), ([True, False], [1, 0])])
    def test_rejects_non_integer_coordinates(self, rows, cols):
        with pytest.raises(ValueError, match="must hold integers"):
            SparseMatrix.from_coo(2, 2, rows, cols, [1.0, 2.0])

    def test_empty_coordinates_build_an_empty_matrix(self):
        s = SparseMatrix.from_coo(2, 3, [], [], [])
        assert s.shape == (2, 3) and s.nnz == 0

    def test_range_checks_before_narrowing(self):
        # 2**31 narrowed to int32 would wrap to -2**31, and 2**32 to 0
        for big in (2**31, 2**32):
            with pytest.raises(ValueError, match="out of range"):
                SparseMatrix.from_coo(2, 2, [big], [0], [1.0])
            with pytest.raises(ValueError, match="out of range"):
                SparseMatrix.from_coo(2, 2, np.array([0], np.uint64),
                                      np.array([big], np.uint64), [1.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(1, 1, [0], [0], [np.nan])
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(1, 2, [0], [1], [np.inf])

    def test_from_coo_result_is_canonical(self):
        s = SparseMatrix.from_coo(2, 3, [1, 0, 0, 1, 0], [0, 2, 1, 0, 2],
                                  [1.0, 2.0, 3.0, 4.0, 5.0])
        assert type(s) is SparseMatrix
        assert s.has_canonical_format
        assert np.array_equal(s.indptr, [0, 2, 3])
        assert np.array_equal(s.indices, [1, 2, 0])
        assert np.array_equal(s.data, [3.0, 7.0, 5.0])

    def test_identity_and_zeros(self):
        assert np.array_equal(SparseMatrix(sp.identity(3)).to_dense(), np.eye(3))
        assert SparseMatrix((2, 5)).nnz == 0

    def test_transpose_matches_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s, dense = random_sparse(rng, int(rng.integers(1, 10)),
                                     int(rng.integers(1, 10)))
            assert np.array_equal(SparseMatrix(s.T).to_dense(), dense.T)

    def test_add_identity_requires_square(self):
        with pytest.raises(ValueError):
            normalize_symmetric(SparseMatrix((2, 3)))

    def test_row_sums(self):
        rng = np.random.default_rng(2)
        s, dense = random_sparse(rng, 7, 5)
        assert np.allclose(s @ np.ones(5), dense.sum(axis=1), atol=1e-15)

    def test_take_rows(self):
        s = SparseMatrix(np.eye(3))
        t = SparseMatrix(s[:2])
        assert t.shape == (2, 3)
        assert np.array_equal(t.to_dense(), [[1, 0, 0], [0, 1, 0]])
