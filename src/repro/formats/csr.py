"""Compressed Sparse Row storage (CSR): ``r -> c -> v`` (paper Figure 1).

Rows are randomly accessible (an interval); within a row the stored column
indices are kept sorted, so columns enumerate in increasing order and can be
searched with binary search.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    compress,
    coo_contract,
    coo_dedup_sort,
    index_array,
    storage_index_dtype,
    pointer_array,
    scipy_compressed,
)
from repro.formats.levels import Compressed, Dense, Size, Storage
from repro.formats.views import Axis, BINARY, INCREASING, Nest, Term, Value, interval_axis

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

    def row_slice(self, r: int) -> Tuple[int, int]:
        return int(self.rowptr[r]), int(self.rowptr[r + 1])

    def get(self, r: int, c: int) -> float:
        lo, hi = self.row_slice(r)
        jj = int(np.searchsorted(self.colind[lo:hi], c)) + lo
        if jj < hi and self.colind[jj] == c:
            return float(self.values[jj])
        return 0.0

    def set(self, r: int, c: int, v: float) -> None:
        lo, hi = self.row_slice(r)
        jj = int(np.searchsorted(self.colind[lo:hi], c)) + lo
        if jj < hi and self.colind[jj] == c:
            self.values[jj] = v
            return
        raise KeyError(f"({r},{c}) is not stored (fill is not supported)")

    def to_coo_arrays(self):
        # exchange contract: int64 triples whatever the storage width
        # (astype always copies, so the caller never aliases our storage)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.rowptr))
        return coo_contract(rows, self.colind.astype(np.int64), self.values.copy())

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CsrMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "CsrMatrix":
        return cls(*compress(rows, cols, shape[0], shape), vals.copy(), shape)

    @classmethod
    def from_scipy(cls, sp) -> "CsrMatrix":
        """A canonical scipy CSR is adopted array for array (validated,
        copied at the storage width); anything else goes through COO."""
        arrays = scipy_compressed(sp, "csr")
        if arrays is None:
            return super().from_scipy(sp)
        return cls(*arrays, sp.shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        return Nest(
            interval_axis("r"),
            Nest(Axis("c", INCREASING, BINARY), Value()),
        )

    def storage(self, path_id: str) -> Storage:
        return ROWS

    def path_ids(self) -> Optional[List[str]]:
        return ["rows"]
