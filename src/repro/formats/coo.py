"""Co-ordinate storage (COO): ``<r, c> -> v`` (paper Figure 1).

Three parallel arrays hold the non-zeros and their positions; entries may be
in arbitrary order, so the only efficient operation is a flat enumeration of
all entries, yielding the row and column *jointly* and unordered.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    index_array,
    storage_index_dtype,
)
from repro.formats.levels import Coords, Path, Size, Storage


class CooMatrix(SparseFormat):
    """Coordinate storage.  Entries are stored in whatever order they were
    given (after duplicate summing); nothing is sorted, exactly because the
    format makes no ordering promise."""

    format_name = "coo"

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: Tuple[int, int]):
        super().__init__(shape)
        self.vals = np.asarray(vals, dtype=np.float64)
        if not (np.shape(rows) == np.shape(cols) == self.vals.shape):
            raise ValueError("rows/cols/vals length mismatch")
        idx = storage_index_dtype(self.shape, self.vals.size)
        self.rows = index_array(rows, idx, "rows", self.nrows)
        self.cols = index_array(cols, idx, "cols", self.ncols)

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        return {"flat": Path(("r", "c"), Storage(
            (Coords(("rows", "cols"), "nnz"),), ("vals", "r"),
            ("rows", "cols", "vals", Size("nnz", "nnz"))))}
