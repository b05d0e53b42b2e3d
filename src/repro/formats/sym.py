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
    csr_rowptr,
    index_array,
    storage_index_dtype,
    pointer_array,
)
from repro.formats.csr import ROWS
from repro.formats.levels import Path


class SymMatrix(SparseFormat):
    """Symmetric matrix stored as the CSR of its lower triangle."""

    format_name = "sym"

    def __init__(self, rowptr: np.ndarray, colind: np.ndarray, values: np.ndarray,
                 shape: Tuple[int, int]):
        super().__init__(shape)
        if self.nrows != self.ncols:
            raise ValueError("symmetric storage requires a square matrix")
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

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "SymMatrix":
        # symmetry check without the per-element dictionary: look every
        # entry's transposed key up in the (sorted, unique) key array; a
        # missing transpose compares against 0.0, exactly like the loop
        # oracle's dict.get default
        m, n = shape
        # key arithmetic on the int64 exchange triples (n*n overflows int32
        # long before n does)
        keys = rows * n + cols
        kt = cols * n + rows
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, kt), keys.size - 1)
            found = keys[pos] == kt
            tvals = np.where(found, vals[pos], 0.0)
            bad = np.abs(tvals - vals) > 1e-12
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(
                    f"matrix is not symmetric at ({int(rows[i])},{int(cols[i])})")
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        idx = storage_index_dtype(shape, rows.size)
        return cls(csr_rowptr(rows, m, idx), cols.astype(idx), vals, shape)

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        # the mirror reads the same arrays; the diagonal belongs to the
        # stored branch
        rows, cols = ROWS.levels
        mirror = ROWS._replace(levels=(rows, cols._replace(off_diagonal=True)),
                               value=("values", "cc"))
        return {"lower": Path(("r", "c"), ROWS, branch="u0"),
                "mirror": Path(("rr", "cc"), mirror, {"r": "cc", "c": "rr"},
                               branch="u1")}

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name in ("rr", "cc"):
            return (0, self.nrows)
        return super().axis_range(axis_name)
