"""Modified Sparse Row storage (MSR): the diagonal stored separately from a
CSR structure holding the off-diagonal entries.

This is the paper's aggregation example (Section 2: "a format in which the
diagonal elements are stored separately from the off-diagonal ones"):

    ( map{i |-> r, i |-> c : i -> v} )  U  ( r -> c -> v )

Enumerating the matrix requires enumerating *both* structures (the Union
rule); the compiler handles this by splitting each statement that references
the matrix into one copy per branch (paper Section 4).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    coo_contract,
    coo_dedup_sort,
    compress,
    index_array,
    storage_index_dtype,
    pointer_array,
)
from repro.formats.csr import ROWS
from repro.formats.levels import Dense, Size, Storage
from repro.formats.views import (
    Axis,
    BINARY,
    INCREASING,
    MapTerm,
    Nest,
    Term,
    Union,
    Value,
    interval_axis,
)
from repro.polyhedra.linexpr import LinExpr


class MsrMatrix(SparseFormat):
    """MSR: ``dvals`` (the full main diagonal, length min(m, n)) plus CSR
    arrays (``rowptr``/``colind``/``values``) holding strictly off-diagonal
    entries."""

    format_name = "msr"

    def __init__(self, dvals: np.ndarray, rowptr: np.ndarray, colind: np.ndarray,
                 values: np.ndarray, shape: Tuple[int, int]):
        super().__init__(shape)
        self.dvals = np.asarray(dvals, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.dvals.size != self.ndiag:
            raise ValueError("dvals must have min(m, n) entries")
        if np.shape(colind) != self.values.shape:
            raise ValueError("colind/values length mismatch")
        idx = storage_index_dtype(self.shape, self.values.size)
        self.rowptr = pointer_array(rowptr, idx, "rowptr", self.nrows,
                                    self.values.size)
        self.colind = index_array(colind, idx, "colind", self.ncols)
        if np.any(self.colind == np.repeat(np.arange(self.nrows), np.diff(self.rowptr))):
            raise ValueError("off-diagonal structure contains diagonal entries")

    @property
    def ndiag(self) -> int:
        return min(self.nrows, self.ncols)

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.dvals.size + self.values.size)

    def get(self, r: int, c: int) -> float:
        if r == c:
            return float(self.dvals[r])
        lo, hi = int(self.rowptr[r]), int(self.rowptr[r + 1])
        jj = int(np.searchsorted(self.colind[lo:hi], c)) + lo
        if jj < hi and self.colind[jj] == c:
            return float(self.values[jj])
        return 0.0

    def set(self, r: int, c: int, v: float) -> None:
        if r == c:
            self.dvals[r] = v
            return
        lo, hi = int(self.rowptr[r]), int(self.rowptr[r + 1])
        jj = int(np.searchsorted(self.colind[lo:hi], c)) + lo
        if jj < hi and self.colind[jj] == c:
            self.values[jj] = v
            return
        raise KeyError(f"({r},{c}) is not stored (fill is not supported)")

    def to_coo_arrays(self):
        # exchange contract: int64 triples whatever the storage width
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.rowptr))
        di = np.arange(self.ndiag, dtype=np.int64)
        return coo_contract(np.concatenate([di, rows]),
                            np.concatenate([di, self.colind]),
                            np.concatenate([self.dvals, self.values]))

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "MsrMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "MsrMatrix":
        m, n = shape
        dvals = np.zeros(min(m, n))
        on_diag = rows == cols
        dvals[rows[on_diag]] = vals[on_diag]
        rows_o, cols_o, vals_o = rows[~on_diag], cols[~on_diag], vals[~on_diag]
        return cls(dvals, *compress(rows_o, cols_o, m, shape), vals_o, shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        i = LinExpr.variable("i")
        diag = MapTerm({"r": i, "c": i}, Nest(interval_axis("i"), Value()))
        off = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        return Union(diag, off)

    def storage(self, path_id: str) -> Storage:
        if path_id == "off":
            return ROWS
        return Storage((Dense("nd"),), ("dvals", "i"),
                       ("dvals", Size("nd", "ndiag")))

    def path_ids(self) -> Optional[List[str]]:
        return ["diag", "off"]

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name == "i":
            return (0, self.ndiag)
        return super().axis_range(axis_name)
