"""Symmetric storage (SYM): only the lower triangle is stored; the upper
triangle exists through the transpose map.

Index structure — an aggregation of the stored triangle and its mirrored
image, exercising Union and Map together:

    (r -> c -> v)                                  [stored: c <= r]
  U map{cc |-> r, rr |-> c : rr -> cc -> v}        [mirror: strictly lower]

A statement touching a SYM matrix is split into two copies (paper
Section 4): one walks the stored lower-triangular CSR, the other walks the
same arrays with the row/column roles swapped (skipping the diagonal so
elements are not visited twice).
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
from repro.formats.levels import Path
from repro.polyhedra.linexpr import LinExpr


class SymMatrix(SparseFormat):
    """Symmetric matrix stored as the CSR of its lower triangle."""

    format_name = "sym"

    def __init__(self, rowptr: np.ndarray, colind: np.ndarray, values: np.ndarray,
                 shape: Tuple[int, int]):
        super().__init__(shape)
        self._check_shape()
        self.values = np.asarray(values, dtype=np.float64)
        if np.shape(colind) != self.values.shape:
            raise ValueError("colind/values length mismatch")
        idx = storage_index_dtype(self.shape, self.values.size)
        self.rowptr = pointer_array(rowptr, idx, "rowptr", self.nrows,
                                    self.values.size)
        self.colind = index_array(colind, idx, "colind", self.ncols)
        rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))
        if np.any(self.colind > rows):
            raise ValueError("symmetric storage keeps only the lower triangle")

    def _check_shape(self) -> None:
        if self.nrows != self.ncols:
            raise ValueError("symmetric storage requires a square matrix")

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        """Logical non-zeros (mirrored entries counted)."""
        rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))
        off = int(np.count_nonzero(rows != self.colind))
        return int(self.values.size + off)

    @property
    def stored_nnz(self) -> int:
        return int(self.values.size)

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        # the mirror reads the same arrays; the diagonal belongs to the
        # stored branch, which holds c <= r
        rows, cols = ROWS.levels
        mirror = ROWS._replace(levels=(rows, cols._replace(off_diagonal=True)),
                               value=("values", "cc"))
        lower = LinExpr.variable("r") - LinExpr.variable("c")
        return {"lower": Path(("r", "c"), ROWS, branch="u0", where=(lower,)),
                "mirror": Path(("rr", "cc"), mirror, {"r": "cc", "c": "rr"},
                               branch="u1")}

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name in ("rr", "cc"):
            return (0, self.nrows)
        return super().axis_range(axis_name)
