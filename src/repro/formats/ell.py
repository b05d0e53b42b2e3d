"""ELLPACK/ITPACK storage (ELL): ``r -> c -> v`` with a fixed number of
slots per row.

``colind``/``data`` are (m x K) arrays; row ``r`` stores its entries (column
indices sorted increasingly) in slots ``0..rowlen[r])``, the rest is padding.
Structurally like CSR (rows are an interval, columns increase within a row),
but with the regular layout vector machines like.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    coo_contract,
    coo_dedup_sort,
    index_array,
    storage_index_dtype,
)
from repro.formats.levels import Counted, Dense, Size, Storage
from repro.formats.views import Axis, BINARY, INCREASING, Nest, Term, Value, interval_axis


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

    def get(self, r: int, c: int) -> float:
        ln = int(self.rowlen[r])
        kk = int(np.searchsorted(self.colind[r, :ln], c))
        if kk < ln and self.colind[r, kk] == c:
            return float(self.data[r, kk])
        return 0.0

    def set(self, r: int, c: int, v: float) -> None:
        ln = int(self.rowlen[r])
        kk = int(np.searchsorted(self.colind[r, :ln], c))
        if kk < ln and self.colind[r, kk] == c:
            self.data[r, kk] = v
            return
        raise KeyError(f"({r},{c}) is not stored (fill is not supported)")

    def to_coo_arrays(self):
        # slot-mask extraction: entry (r, kk) is stored iff kk < rowlen[r];
        # boolean indexing walks the (m x K) arrays row-major, reproducing
        # the per-row concatenation order of the loop oracle
        # exchange contract: int64 triples whatever the storage width
        mask = np.arange(self.slots) < self.rowlen[:, None]
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.rowlen)
        return coo_contract(rows, self.colind[mask], self.data[mask])

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "EllMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "EllMatrix":
        # scatter packing: entry jj of row r lands in slot jj - rowptr[r]
        # (its position within the row), one vectorized assignment per array
        m, n = shape
        counts = np.bincount(rows, minlength=m)
        K = max(int(counts.max(initial=0)), 1)
        colind = np.zeros((m, K), dtype=storage_index_dtype(shape, m * K))
        data = np.zeros((m, K))
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        colind[rows, slot] = cols
        data[rows, slot] = vals
        return cls(colind, data, counts, shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        return Nest(
            interval_axis("r"),
            Nest(Axis("c", INCREASING, BINARY), Value()),
        )

    def storage(self, path_id: str) -> Storage:
        return Storage((Dense("m"), Counted("rowlen", "colind")),
                       ("data", "r", "c"),
                       ("colind", "data", "rowlen", Size("m", "nrows")))

    def path_ids(self) -> Optional[List[str]]:
        return ["rows"]
