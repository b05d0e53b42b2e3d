"""Jagged Diagonal storage (JAD) — the paper's appendix format.

Construction (paper Figure 14): compress each row (dropping zeros, keeping
column indices sorted), sort rows by non-zero count in *decreasing* order
(recording the permutation ``iperm``: ``iperm[rr]`` is the original row of
permuted row ``rr``), then store the columns of the compressed-and-sorted
matrix (the "jagged diagonals") contiguously: ``dptr[d]`` is the start of
diagonal ``d`` in ``colind``/``values``, and position ``dptr[d] + rr`` is
the ``d``-th stored entry of permuted row ``rr``.

Index structure (paper Section 2 / appendix A.2)::

    perm{iperm[rr] |-> r : (<rr, c> -> v)  (+)  (rr -> c -> v)}

- the *flat* perspective enumerates all entries fast (diagonal-major), rows
  emerging unordered;
- the *rows* perspective gives random access to permuted rows (and hence,
  through the inverse permutation, to logical rows — which is what a
  restructured triangular solve needs, paper Figure 9).

Both are declared (:data:`DECLARATION`) in :mod:`repro.formats.levels`
terms and read like any format's: the permuted row is a ``Perm`` through
``iperm`` of the slot's ``Offset`` in its diagonal (flat), of a ``Dense``
level searched through ``ipermi`` (rows).
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
from repro.formats.levels import (
    Coords, Counted, Dense, Offset, Path, Perm, Size, Storage, at,
)

#: every array and size a JAD kernel takes, on either path
_ARGS = ("iperm", "ipermi", "dptr", "colind", "values", "rowcnt",
         Size("m", "nrows"), Size("nnz", "nnz"))

#: flat: the slots diagonal-major (the paper's JadFlatIterator); rows: the
#: permuted rows, entry ``dd`` of row ``rr`` at ``dptr[dd] + rr`` (JadRow)
DECLARATION = {
    "flat": Path(("r", "c"), Storage(
        (Coords((Perm(Offset("dptr"), "iperm", "ipermi"), "colind"), "nnz",
                slot="jj"),),
        ("values", "c"), _ARGS)),
    "rows": Path(("r", "c"), Storage(
        (Perm(Dense("m"), "iperm", "ipermi"),
         Counted("rowcnt", "colind", slot="dd",
                 address=("+", at("dptr", "dd"), "r"))),
        ("values", "c"), _ARGS)),
}


class JadMatrix(SparseFormat):
    """JAD: ``iperm`` (m), ``dptr`` (nd+1), ``colind``/``values`` (nnz),
    plus derived ``rowcnt`` (entries per permuted row) and the inverse
    permutation (built once; the paper's ``term_perm_vector.unapply`` does a
    linear scan — we precompute, which only changes a constant factor of the
    search cost).  Index arrays — the derived ones included — are stored
    at ``index_dtype(max(m, n, nnz))``; ``dptr[-1]``, the largest address
    ``dptr[d] + rr`` reaches, is ``nnz``."""

    format_name = "jad"

    def __init__(self, iperm: np.ndarray, dptr: np.ndarray, colind: np.ndarray,
                 values: np.ndarray, shape: Tuple[int, int]):
        super().__init__(shape)
        self.values = np.asarray(values, dtype=np.float64)
        if np.shape(iperm) != (self.nrows,):
            raise ValueError("iperm must have nrows entries")
        if np.shape(colind) != self.values.shape:
            raise ValueError("colind/values length mismatch")
        idx = storage_index_dtype(self.shape, self.values.size)
        self.iperm = index_array(iperm, idx, "iperm", self.nrows)
        self.dptr = pointer_array(dptr, idx, "dptr", np.size(dptr) - 1,
                                  self.values.size)
        self.colind = index_array(colind, idx, "colind", self.ncols)
        if np.any(np.bincount(self.iperm, minlength=self.nrows) != 1):
            raise ValueError(f"iperm is not a permutation of [0, {self.nrows})")
        lens = np.diff(self.dptr)
        if lens.size > 1 and np.any(lens[1:] > lens[:-1]):
            raise ValueError("jagged diagonal lengths must be non-increasing")
        if lens.size and lens[0] > self.nrows:
            raise ValueError(f"dptr: the first jagged diagonal holds {lens[0]} "
                             f"entries, more than the {self.nrows} rows")
        # entries per permuted row: rr has one entry in each diagonal longer
        # than rr; lens is non-increasing, so the count is a binary search
        # over the reversed (ascending) lengths instead of an O(m * nd) scan
        rr_all = np.arange(self.nrows, dtype=idx)
        self.rowcnt = (lens.size - np.searchsorted(lens[::-1], rr_all, side="right")
                       ).astype(idx, copy=False)
        self.ipermi = np.empty(self.nrows, dtype=idx)
        self.ipermi[self.iperm] = rr_all

    # -- helpers ------------------------------------------------------------
    @property
    def ndiags(self) -> int:
        return self.dptr.size - 1

    def _find(self, r: int, c: int) -> Optional[int]:
        """Position of ``(r, c)`` (None: not stored): row ``ipermi[r]``,
        bisected over its diagonals — columns increase along a row.  Kept
        by hand (stop rule): the derived search gathers the row's
        addresses per call, 3.6x this one on can_1072."""
        self._check_index(r, c)
        rr = int(self.ipermi[r])
        lo, hi = 0, int(self.rowcnt[rr])
        while lo < hi:
            mid = (lo + hi) // 2
            jj = int(self.dptr[mid]) + rr
            cc = int(self.colind[jj])
            if cc == c:
                return jj
            if cc < c:
                lo = mid + 1
            else:
                hi = mid
        return None

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def get(self, r: int, c: int) -> float:
        jj = self._find(r, c)
        return float(self.values[jj]) if jj is not None else 0.0

    def set(self, r: int, c: int, v: float) -> None:
        jj = self._find(r, c)
        if jj is None:
            raise KeyError(f"({r},{c}) is not stored (fill is not supported)")
        self.values[jj] = v

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        return DECLARATION
