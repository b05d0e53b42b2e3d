"""Dense storage as a (degenerate) format: ``(r x c) -> v``.

Useful both as a baseline and to check that the sparse compiler degenerates
gracefully: compiling a kernel "for" the dense format must reproduce the
original dense loop nest.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.formats.base import SparseFormat, coo_contract
from repro.formats.levels import Dense, Size, Storage
from repro.formats.views import Cross, Term, Value, interval_axis


class DenseMatrix(SparseFormat):
    """A dense 2-D array wearing the format interface."""

    format_name = "dense"

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("DenseMatrix needs a 2-D array")
        super().__init__(data.shape)
        self.data = data

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def get(self, r: int, c: int) -> float:
        return float(self.data[r, c])

    def set(self, r: int, c: int, v: float) -> None:
        self.data[r, c] = v

    def to_coo_arrays(self):
        rows, cols = np.nonzero(self.data)
        return coo_contract(rows, cols, self.data[rows, cols])

    def to_dense(self) -> np.ndarray:
        return self.data.copy()

    def copy(self) -> "DenseMatrix":
        return DenseMatrix(self.data.copy())

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "DenseMatrix":
        from repro.formats.base import coo_dedup_sort

        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "DenseMatrix":
        out = np.zeros(shape)
        out[rows, cols] = vals
        return cls(out)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "DenseMatrix":
        return cls(np.array(a, dtype=np.float64))

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        return Cross([interval_axis("r"), interval_axis("c")], Value())

    def storage(self, path_id: str) -> Storage:
        extent = {"r": Dense("m"), "c": Dense("n")}
        return Storage(tuple(extent[a] for a in self.path(path_id).axis_names),
                       ("data", "r", "c"),
                       ("data", Size("m", "nrows"), Size("n", "ncols")))

    def path_ids(self) -> Optional[List[str]]:
        return ["rowmajor", "colmajor"]
