"""Co-ordinate storage (COO): ``<r, c> -> v`` (paper Figure 1).

Three parallel arrays hold the non-zeros and their positions; entries may be
in arbitrary order, so the only efficient operation is a flat enumeration of
all entries, yielding the row and column *jointly* and unordered.
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
from repro.formats.levels import Coords, Size, Storage
from repro.formats.views import Axis, Joint, LINEAR, Term, UNORDERED, Value


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

    def get(self, r: int, c: int) -> float:
        hits = np.nonzero((self.rows == r) & (self.cols == c))[0]
        return float(self.vals[hits[0]]) if hits.size else 0.0

    def set(self, r: int, c: int, v: float) -> None:
        hits = np.nonzero((self.rows == r) & (self.cols == c))[0]
        if not hits.size:
            raise KeyError(f"({r},{c}) is not stored (fill is not supported)")
        self.vals[hits[0]] = v

    def to_coo_arrays(self):
        # exchange contract: int64 triples whatever the storage width
        # (astype always copies, so the caller never aliases our storage)
        return coo_contract(self.rows.astype(np.int64),
                            self.cols.astype(np.int64), self.vals.copy())

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CooMatrix":
        # canonicalize duplicates but deliberately *shuffle* nothing: COO
        # preserves whatever order canonicalization produces
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "CooMatrix":
        idx = storage_index_dtype(shape, vals.size)
        return cls(rows.astype(idx), cols.astype(idx), vals.copy(), shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        return Joint(
            [Axis("r", UNORDERED, LINEAR), Axis("c", UNORDERED, LINEAR)],
            Value(),
        )

    def storage(self, path_id: str) -> Storage:
        return Storage((Coords(("rows", "cols"), "nnz"),), ("vals", "r"),
                       ("rows", "cols", "vals", Size("nnz", "nnz")))

    def path_ids(self) -> Optional[List[str]]:
        return ["flat"]
