"""CSR sparse matrices, index arrays and dense-matrix conventions.

Dense matrices throughout the package are plain 2-D float64 numpy arrays in
row-major (C) order. Sparse matrices are :class:`SparseMatrix`, a
``scipy.sparse.csr_array`` whose one validating factory is
:meth:`SparseMatrix.from_coo`. Scipy results are wrapped with
``SparseMatrix(x)``, which shares their values.

Index dtype: a `SparseMatrix` holds its ``indptr`` and ``indices`` as int32
when its shape and nnz are all below 2**31, and as int64 past that, which
is scipy's own rule (`index_dtype`). Both `from_coo` and the wrapper apply
it, whatever index dtype a scipy operation returned, so every sparse matrix
the package builds follows it, and the ``.T`` views and CSC copies taken of
them inherit it. Index arguments (coordinates, row subsets, node masks) are
integer arrays: `index_array` refuses a bool mask or a float array instead
of letting numpy read them as other indices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SparseMatrix", "index_array", "index_dtype"]

_INT32_MAX = int(np.iinfo(np.int32).max)


def index_dtype(shape: tuple[int, ...], nnz: int) -> type:
    """int32 if a sparse matrix of this shape and nnz can hold its indices
    and offsets in it, else int64."""
    return np.int32 if max(*shape, nnz) <= _INT32_MAX else np.int64


def index_array(values, name: str = "index array") -> np.ndarray:
    """`values` as an integer numpy array, in its own integer dtype.

    A bool array would select rows 0 and 1 rather than the rows it marks,
    and a float array would be truncated, so both raise ValueError; an
    empty sequence is an empty int64 array.
    """
    a = np.asarray(values)
    if a.dtype.kind in "iu":
        return a
    if a.size == 0 and a.dtype != bool:
        return a.astype(np.int64)
    raise ValueError(f"{name} must hold integers, got dtype {a.dtype}"
                     + (" (pass np.flatnonzero(mask) for a mask)"
                        if a.dtype == bool else ""))


class SparseMatrix(sp.csr_array):
    """A scipy CSR array with a validating coordinate factory, holding the
    index dtype that `index_dtype` gives its shape and nnz."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        dtype = index_dtype(self.shape, self.nnz)
        if self.indptr.dtype != dtype or self.indices.dtype != dtype:
            self.indptr = self.indptr.astype(dtype)
            self.indices = self.indices.astype(dtype)

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_idx, col_idx, vals) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate coordinates are summed,
        entries that sum to exactly zero are dropped, and column indices are
        sorted within each row. Coordinates are range-checked in their own
        integer dtype before they are narrowed to the index dtype."""
        r = index_array(row_idx, "row coordinates")
        c = index_array(col_idx, "column coordinates")
        v = np.asarray(vals, dtype=np.float64)
        if not (r.size == c.size == v.size):
            raise ValueError("coordinate arrays must have equal length")
        if r.size and (r.min() < 0 or r.max() >= rows
                       or c.min() < 0 or c.max() >= cols):
            raise ValueError("coordinate out of range")
        if not np.all(np.isfinite(v)):
            raise ValueError("sparse matrix values must be finite")
        dtype = index_dtype((rows, cols), r.size)
        # converting to CSR sums duplicates and sorts each row's columns
        out = cls(sp.coo_array((v, (r.astype(dtype, copy=False),
                                    c.astype(dtype, copy=False))),
                               shape=(rows, cols)))
        out.eliminate_zeros()
        return out

    def to_dense(self) -> np.ndarray:
        return self.toarray()
