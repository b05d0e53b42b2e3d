"""ELLPACK/ITPACK storage (ELL): ``r -> c -> v`` with a fixed number of
slots per row.

``colind``/``data`` are (m x K) arrays; row ``r`` stores its entries (column
indices sorted increasingly) in slots ``0..rowlen[r])``, the rest is padding.
Structurally like CSR (rows are an interval, columns increase within a row),
but with the regular layout vector machines like.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    coo_contract,
    index_array,
    storage_index_dtype,
)
from repro.formats.levels import Counted, Dense, Path, Size, Storage


class EllMatrix(SparseFormat):
    """ELL: ``colind``/``data`` (m x K), ``rowlen`` (m).  Index arrays are
    stored at ``index_dtype(max(m, n, m * K))`` — the emitted code addresses
    the padded cells as ``r * K + kk``."""

    format_name = "ell"

    def __init__(self, colind: np.ndarray, data: np.ndarray, rowlen: np.ndarray,
                 shape: Tuple[int, int]):
        super().__init__(shape)
        self.data = np.asarray(data, dtype=np.float64)
        if np.shape(colind) != self.data.shape:
            raise ValueError("colind/data shape mismatch")
        if self.data.ndim != 2 or self.data.shape[0] != self.nrows:
            raise ValueError("colind must be (nrows, K)")
        if np.shape(rowlen) != (self.nrows,):
            raise ValueError("rowlen must have nrows entries")
        idx = storage_index_dtype(self.shape, self.data.size)
        self.colind = index_array(colind, idx, "colind", self.ncols)
        self.rowlen = index_array(rowlen, idx, "rowlen", self.data.shape[1] + 1)

    @property
    def slots(self) -> int:
        return self.colind.shape[1]

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.rowlen.sum())

    def to_coo_arrays(self):
        # kept by hand: the derived walk's 2-D gathers take twice as long
        # slot-mask extraction: entry (r, kk) is stored iff kk < rowlen[r];
        # boolean indexing walks the (m x K) arrays row-major, reproducing
        # the per-row concatenation order of the loop oracle
        # exchange contract: int64 triples whatever the storage width
        mask = np.arange(self.slots) < self.rowlen[:, None]
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.rowlen)
        return coo_contract(rows, self.colind[mask], self.data[mask])

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        return {"rows": Path(("r", "c"), Storage(
            (Dense("m"), Counted("rowlen", "colind")), ("data", "r", "c"),
            ("colind", "data", "rowlen", Size("m", "nrows"))))}
