"""Compressed Sparse Column storage (CSC): ``c -> r -> v`` — the transpose
of CSR (paper Section 1): indexed access to columns, sorted rows within each
column.
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


class CscMatrix(SparseFormat):
    """CSC: ``colptr`` (n+1), ``rowind`` (nnz, sorted within each column),
    ``values`` (nnz).  Index arrays are stored at
    ``index_dtype(max(m, n, nnz))``."""

    format_name = "csc"

    def __init__(self, colptr: np.ndarray, rowind: np.ndarray, values: np.ndarray,
                 shape: Tuple[int, int]):
        super().__init__(shape)
        self.values = np.asarray(values, dtype=np.float64)
        if np.shape(rowind) != self.values.shape:
            raise ValueError("rowind/values length mismatch")
        idx = storage_index_dtype(self.shape, self.values.size)
        self.colptr = pointer_array(colptr, idx, "colptr", self.ncols,
                                    self.values.size)
        self.rowind = index_array(rowind, idx, "rowind", self.nrows)

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def col_slice(self, c: int) -> Tuple[int, int]:
        return int(self.colptr[c]), int(self.colptr[c + 1])

    def get(self, r: int, c: int) -> float:
        lo, hi = self.col_slice(c)
        jj = int(np.searchsorted(self.rowind[lo:hi], r)) + lo
        if jj < hi and self.rowind[jj] == r:
            return float(self.values[jj])
        return 0.0

    def set(self, r: int, c: int, v: float) -> None:
        lo, hi = self.col_slice(c)
        jj = int(np.searchsorted(self.rowind[lo:hi], r)) + lo
        if jj < hi and self.rowind[jj] == r:
            self.values[jj] = v
            return
        raise KeyError(f"({r},{c}) is not stored (fill is not supported)")

    def to_coo_arrays(self):
        # exchange contract: int64 triples whatever the storage width
        # (astype always copies, so the caller never aliases our storage)
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), np.diff(self.colptr))
        return coo_contract(self.rowind.astype(np.int64), cols, self.values.copy())

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CscMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="col")
        return cls._build_colmajor(rows, cols, vals, shape)

    @classmethod
    def _build_colmajor(cls, rows, cols, vals, shape) -> "CscMatrix":
        """Construction core for triples already canonical *column*-major."""
        return cls(*compress(cols, rows, shape[1], shape), vals.copy(), shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "CscMatrix":
        # row-major canonical in: one stable sort on the column alone
        # re-sorts column-major (rows stay increasing within each column
        # because the input was row-sorted) — no key building, no dedup
        perm = np.argsort(cols, kind="stable")
        return cls._build_colmajor(rows[perm], cols[perm], vals[perm], shape)

    @classmethod
    def from_scipy(cls, sp) -> "CscMatrix":
        """A canonical scipy CSC is adopted array for array (validated,
        copied at the storage width); anything else goes through COO."""
        arrays = scipy_compressed(sp, "csc")
        if arrays is None:
            return super().from_scipy(sp)
        return cls(*arrays, sp.shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        return Nest(
            interval_axis("c"),
            Nest(Axis("r", INCREASING, BINARY), Value()),
        )

    def storage(self, path_id: str) -> Storage:
        return Storage((Dense("n"), Compressed("colptr", "rowind")),
                       ("values", "r"),
                       ("colptr", "rowind", "values", Size("n", "ncols")))

    def path_ids(self) -> Optional[List[str]]:
        return ["cols"]
