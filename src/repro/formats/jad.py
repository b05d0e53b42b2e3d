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

Both are declared (:data:`STORAGE`) in :mod:`repro.formats.levels` terms
and read like any format's: the permuted row is a ``Perm`` of the slot's
``Offset`` in its diagonal (flat), of a ``Dense`` level searched through
``ipermi`` (rows).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    coo_contract,
    coo_dedup_sort,
    csr_rowptr,
    index_array,
    storage_index_dtype,
    pointer_array,
)
from repro.formats.levels import (
    Coords, Counted, Dense, Offset, Perm, Size, Storage, at,
)
from repro.formats.views import (
    Axis,
    BINARY,
    INCREASING,
    Joint,
    Nest,
    NOSEARCH,
    PermTerm,
    Perspective,
    Term,
    UNORDERED,
    Value,
    interval_axis,
)

#: every array and size a JAD kernel takes, on either path
_ARGS = ("iperm", "ipermi", "dptr", "colind", "values", "rowcnt",
         Size("m", "nrows"), Size("nnz", "nnz"))

#: flat: the slots diagonal-major (the paper's JadFlatIterator); rows: the
#: permuted rows, entry ``dd`` of row ``rr`` at ``dptr[dd] + rr`` (JadRow)
STORAGE = {
    "flat": Storage(
        (Coords((Perm(Offset("dptr"), "ipermi"), "colind"), "nnz", slot="jj"),),
        ("values", "c"), _ARGS),
    "rows": Storage(
        (Perm(Dense("m"), "ipermi"),
         Counted("rowcnt", "colind", slot="dd",
                 address=("+", at("dptr", "dd"), "r"))),
        ("values", "c"), _ARGS),
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
        bisected over its diagonals — columns increase along a row."""
        if not 0 <= r < self.nrows:
            return None
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

    def to_coo_arrays(self):
        # expand diagonal ids over their lengths, recover the in-diagonal
        # offset (= permuted row) by subtracting each diagonal's start, and
        # map back to logical rows through the permutation — all O(nnz)
        # exchange contract: int64 triples whatever the storage width
        lens = np.diff(self.dptr)
        d_of = np.repeat(np.arange(self.ndiags, dtype=np.int64), lens)
        rr = np.arange(self.nnz, dtype=np.int64) - self.dptr[d_of]
        rows = self.iperm[rr] if self.nnz else np.zeros(0, dtype=np.int64)
        return coo_contract(rows, self.colind.astype(np.int64), self.values.copy())

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "JadMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "JadMatrix":
        # Scatter construction: entry jj of the row-major input sits in
        # slot d = jj - rowptr[rows[jj]] of its row, i.e. on jagged
        # diagonal d at offset rr = ipermi[rows[jj]], so its destination
        # is dptr[d] + rr — one permutation index array, two scatters.
        m, n = shape
        idx = storage_index_dtype(shape, rows.size)
        rowptr = csr_rowptr(rows, m, idx)
        counts = np.diff(rowptr)
        # sort rows by count decreasing; stable so equal-count rows keep
        # their original order (deterministic construction)
        iperm = np.argsort(-counts, kind="stable").astype(idx)
        ipermi = np.empty(m, dtype=idx)
        ipermi[iperm] = np.arange(m, dtype=idx)
        nd = int(counts.max(initial=0))
        # diagonal d holds one entry per row with more than d entries;
        # counts[iperm] is non-increasing, so diagonal lengths fall out of
        # one binary search (the same identity rowcnt uses, transposed)
        sorted_desc = counts[iperm]
        lens = m - np.searchsorted(sorted_desc[::-1], np.arange(nd, dtype=idx),
                                   side="right")
        dptr = np.zeros(nd + 1, dtype=idx)
        np.cumsum(lens, out=dptr[1:])
        slot = np.arange(rows.size, dtype=idx) - rowptr[rows]
        dest = dptr[slot] + ipermi[rows]
        colind = np.empty(rows.size, dtype=idx)
        values = np.empty(rows.size)
        colind[dest] = cols
        values[dest] = vals
        return cls(iperm, dptr, colind, values, shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        flat = Joint([Axis("rr", UNORDERED, NOSEARCH), Axis("c", UNORDERED, NOSEARCH)],
                     Value())
        hier = Nest(interval_axis("rr"), Nest(Axis("c", INCREASING, BINARY), Value()))
        return PermTerm("r", "rr", "iperm", Perspective(flat, hier))

    def storage(self, path_id: str) -> Storage:
        return STORAGE[path_id]

    def path_ids(self) -> Optional[List[str]]:
        return ["flat", "rows"]
