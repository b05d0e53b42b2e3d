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

from typing import Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    index_array,
    storage_index_dtype,
    pointer_array,
)
from repro.formats.csr import ROWS
from repro.formats.levels import Dense, Path, Size, Storage


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

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        return {"diag": Path(("i",), Storage((Dense("nd"),), ("dvals", "i"),
                                             ("dvals", Size("nd", "ndiag"))),
                             {"r": "i", "c": "i"}, branch="u0"),
                "off": Path(("r", "c"), ROWS, branch="u1")}

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name == "i":
            return (0, self.ndiag)
        return super().axis_range(axis_name)
