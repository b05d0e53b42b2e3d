"""Compressed Sparse Row storage (CSR): ``r -> c -> v`` (paper Figure 1).

Rows are randomly accessible (an interval); within a row the stored column
indices are kept sorted, so columns enumerate in increasing order and can be
searched with binary search.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    index_array,
    storage_index_dtype,
    pointer_array,
    scipy_compressed,
)
from repro.formats.levels import Compressed, Dense, Path, Size, Storage

#: rows, then a compressed segment of sorted columns per row: CSR, and the
#: same arrays inside MSR (off-diagonal part) and SYM (stored triangle)
ROWS = Storage((Dense("m"), Compressed("rowptr", "colind")), ("values", "c"),
               ("rowptr", "colind", "values", Size("m", "nrows")))


class CsrMatrix(SparseFormat):
    """CSR: ``rowptr`` (m+1), ``colind`` (nnz, sorted within each row),
    ``values`` (nnz).  Index arrays are stored at
    ``index_dtype(max(m, n, nnz))``."""

    format_name = "csr"

    def __init__(self, rowptr: np.ndarray, colind: np.ndarray, values: np.ndarray,
                 shape: Tuple[int, int]):
        super().__init__(shape)
        self.values = np.asarray(values, dtype=np.float64)
        if np.shape(colind) != self.values.shape:
            raise ValueError("colind/values length mismatch")
        idx = storage_index_dtype(self.shape, self.values.size)
        self.rowptr = pointer_array(rowptr, idx, "rowptr", self.nrows,
                                    self.values.size)
        self.colind = index_array(colind, idx, "colind", self.ncols)

    @classmethod
    def _adopt(cls, rowptr: np.ndarray, colind: np.ndarray, values: np.ndarray,
               shape: Tuple[int, int]) -> "CsrMatrix":
        """Wrap arrays one of our own kernels just produced — at the
        storage width, in range and monotone by construction — without
        the constructor's O(nnz) checks (the native SpGEMM's output)."""
        self = cls.__new__(cls)
        SparseFormat.__init__(self, shape)
        self.rowptr, self.colind, self.values = rowptr, colind, values
        return self

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_scipy(cls, sp) -> "CsrMatrix":
        """A canonical scipy CSR is adopted array for array (validated,
        copied at the storage width); anything else goes through COO."""
        arrays = scipy_compressed(sp, "csr")
        if arrays is None:
            return super().from_scipy(sp)
        return cls(*arrays, sp.shape)

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        return {"rows": Path(("r", "c"), ROWS)}
