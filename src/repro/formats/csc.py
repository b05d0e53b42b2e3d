"""Compressed Sparse Column storage (CSC): ``c -> r -> v`` — the transpose
of CSR (paper Section 1): indexed access to columns, sorted rows within each
column.
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

    @classmethod
    def from_scipy(cls, sp) -> "CscMatrix":
        """A canonical scipy CSC is adopted array for array (validated,
        copied at the storage width); anything else goes through COO."""
        arrays = scipy_compressed(sp, "csc")
        if arrays is None:
            return super().from_scipy(sp)
        return cls(*arrays, sp.shape)

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        return {"cols": Path(("c", "r"), Storage(
            (Dense("n"), Compressed("colptr", "rowind")), ("values", "r"),
            ("colptr", "rowind", "values", Size("n", "ncols"))))}
