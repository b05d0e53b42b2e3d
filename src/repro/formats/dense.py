"""Dense storage as a (degenerate) format: ``(r x c) -> v``.

Useful both as a baseline and to check that the sparse compiler degenerates
gracefully: compiling a kernel "for" the dense format must reproduce the
original dense loop nest.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseFormat, coo_contract, real_values
from repro.formats.levels import Dense, Path, Size, Storage


class DenseMatrix(SparseFormat):
    """A dense 2-D array wearing the format interface."""

    format_name = "dense"

    def __init__(self, data: np.ndarray):
        data = real_values(data, "data")
        if data.ndim != 2:
            raise ValueError("DenseMatrix needs a 2-D array")
        super().__init__(data.shape)
        self.data = data

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def get(self, r: int, c: int) -> float:
        self._check_index(r, c)
        return float(self.data[r, c])

    def set(self, r: int, c: int, v: float) -> None:
        self._check_index(r, c)
        self.data[r, c] = v

    def to_coo_arrays(self):
        # the nonzeros: the declaration covers every cell, stored zeros too
        rows, cols = np.nonzero(self.data)
        return coo_contract(rows, cols, self.data[rows, cols])

    def to_dense(self) -> np.ndarray:
        return self.data.copy()

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "DenseMatrix":
        out = np.zeros(shape)
        out[rows, cols] = vals
        return cls(out)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "DenseMatrix":
        return cls(np.array(real_values(a, "a")))

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        # the cross (r x c): either order of the two dense levels
        rows, cols = Dense("m"), Dense("n")
        args = ("data", Size("m", "nrows"), Size("n", "ncols"))
        return {"rowmajor": Path(("r", "c"), Storage(
                    (rows, cols), ("data", "r", "c"), args)),
                "colmajor": Path(("c", "r"), Storage(
                    (cols, rows), ("data", "r", "c"), args))}
