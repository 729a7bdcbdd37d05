"""CSR sparse matrices and dense-matrix conventions.

Dense matrices throughout the package are plain 2-D float64 numpy arrays in
row-major (C) order. Sparse matrices are :class:`SparseMatrix`, a
``scipy.sparse.csr_array`` whose one validating factory is
:meth:`SparseMatrix.from_coo`. Scipy results are wrapped with
``SparseMatrix(x)``, which shares their buffers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SparseMatrix"]


class SparseMatrix(sp.csr_array):
    """A scipy CSR array with a validating coordinate factory."""

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_idx, col_idx, vals) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate coordinates are summed,
        entries that sum to exactly zero are dropped, and column indices are
        sorted within each row."""
        r = np.asarray(row_idx, dtype=np.int64)
        c = np.asarray(col_idx, dtype=np.int64)
        v = np.asarray(vals, dtype=np.float64)
        if not (r.size == c.size == v.size):
            raise ValueError("coordinate arrays must have equal length")
        if r.size and (r.min() < 0 or r.max() >= rows
                       or c.min() < 0 or c.max() >= cols):
            raise ValueError("coordinate out of range")
        if not np.all(np.isfinite(v)):
            raise ValueError("sparse matrix values must be finite")
        # converting to CSR sums duplicates and sorts each row's columns
        out = cls(sp.coo_array((v, (r, c)), shape=(rows, cols)))
        out.eliminate_zeros()
        return out

    def to_dense(self) -> np.ndarray:
        return self.toarray()
