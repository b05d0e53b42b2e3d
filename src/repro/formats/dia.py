"""Diagonal storage (DIA): ``map{d + o |-> r, o |-> c : d -> o -> v}``
(paper Figure 2).

Only diagonals containing non-zeros are stored; elements are addressed by
diagonal index ``d = r - c`` and offset ``o = c``.  Within a diagonal the
offsets form a contiguous interval, so ``o`` is an interval axis whose
bounds depend on ``d``.

Stored diagonals may contain explicit zeros (positions inside a stored
diagonal that happen to be zero) — that is inherent to the format and the
generated code multiplies them like any other stored value, exactly as a
hand-written DIA kernel would.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    coo_contract,
    coo_dedup_sort,
    index_array,
    index_dtype,
)
from repro.formats.levels import Range, Size, Sorted, Storage, at
from repro.formats.views import (
    Axis,
    BINARY,
    INCREASING,
    MapTerm,
    Nest,
    Term,
    Value,
    interval_axis,
)
from repro.polyhedra.linexpr import LinExpr


class DiaMatrix(SparseFormat):
    """DIA: ``diags`` (sorted stored diagonal indices ``d = r - c``),
    ``data`` (ndiags x ncols; ``data[k, o]`` is the element at row
    ``diags[k] + o``, column ``o``).  ``diags`` is stored at
    ``index_dtype(max(m + n, ndiags * n))``: the emitted code forms
    ``m - d`` and ``d + o`` from a loaded offset and addresses the padded
    cells as ``k * n + o``."""

    format_name = "dia"

    def __init__(self, diags: np.ndarray, data: np.ndarray, shape: Tuple[int, int]):
        super().__init__(shape)
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.shape != (np.size(diags), self.ncols):
            raise ValueError("data must be (ndiags, ncols)")
        idx = index_dtype(max(self.nrows + self.ncols, self.data.size))
        self.diags = index_array(diags, idx, "diags", self.nrows,
                                 start=1 - self.ncols)
        if np.any(self.diags[1:] <= self.diags[:-1]):
            raise ValueError("diags must be strictly increasing")

    def offset_range(self, d: int) -> Tuple[int, int]:
        """Valid offsets (columns) of diagonal ``d``: rows must stay in
        [0, m)."""
        lo = max(0, -d)
        hi = min(self.ncols, self.nrows - d)
        return lo, max(lo, hi)

    def _offset_ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`offset_range` over every stored diagonal:
        (lo, hi) arrays with ``hi >= lo``."""
        lo = np.maximum(0, -self.diags)
        hi = np.minimum(self.ncols, self.nrows - self.diags)
        return lo, np.maximum(lo, hi)

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        lo, hi = self._offset_ranges()
        return int(np.sum(hi - lo))

    def get(self, r: int, c: int) -> float:
        d = r - c
        k = int(np.searchsorted(self.diags, d))
        if k < self.diags.size and self.diags[k] == d:
            return float(self.data[k, c])
        return 0.0

    def set(self, r: int, c: int, v: float) -> None:
        d = r - c
        k = int(np.searchsorted(self.diags, d))
        if k < self.diags.size and self.diags[k] == d:
            self.data[k, c] = v
            return
        raise KeyError(f"({r},{c}) is not on a stored diagonal")

    def to_coo_arrays(self):
        # expand every diagonal's offset interval at once: one repeat for
        # the diagonal ids, one subtraction turning flat positions into
        # per-diagonal offsets
        # exchange contract: int64 triples whatever the storage width
        lo, hi = self._offset_ranges()
        lens = hi - lo
        starts = np.zeros(self.diags.size + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        k_of = np.repeat(np.arange(self.diags.size, dtype=np.int64), lens)
        o = np.arange(int(starts[-1]), dtype=np.int64) - starts[k_of] + lo[k_of]
        rows = o + self.diags[k_of]
        return coo_contract(rows, o, self.data[k_of, o])

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "DiaMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "DiaMatrix":
        ds = rows - cols
        diags = np.unique(ds)
        data = np.zeros((diags.size, shape[1]))
        k = np.searchsorted(diags, ds)
        data[k, cols] = vals
        return cls(diags, data, shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        d = LinExpr.variable("d")
        o = LinExpr.variable("o")
        return MapTerm(
            {"r": d + o, "c": o},
            Nest(Axis("d", INCREASING, BINARY), Nest(interval_axis("o"), Value())),
        )

    def storage(self, path_id: str) -> Storage:
        d = at("diags", "d")    # diagonal d holds offsets max(0,-d)..min(n,m-d)
        return Storage(
            (Sorted("diags", "nd"),
             Range(("max", 0, ("neg", d)), ("min", "n", ("-", "m", d)))),
            ("data", "d", "o"),
            ("diags", "data", Size("m", "nrows"), Size("n", "ncols"),
             Size("nd", "diags", "len")))

    def path_ids(self) -> Optional[List[str]]:
        return ["diags"]

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name == "d":
            return (1 - self.ncols, self.nrows)
        if axis_name == "o":
            return (0, self.ncols)
        return super().axis_range(axis_name)
