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
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    PathRuntime,
    SparseFormat,
    coo_contract,
    coo_dedup_sort,
    csr_rowptr,
    index_array,
    storage_index_dtype,
    pointer_array,
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


class JadFlatRuntime(PathRuntime):
    """Diagonal-major enumeration: the JadFlat/JadFlatIterator analog."""

    def __init__(self, fmt: "JadMatrix", path):
        self.fmt = fmt
        self.path = path

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        fmt = self.fmt
        d = 0
        for jj in range(fmt.nnz):
            while jj >= fmt.dptr[d + 1]:
                d += 1
            rr = jj - int(fmt.dptr[d])
            yield (int(fmt.iperm[rr]), int(fmt.colind[jj])), jj

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        r, c = keys
        rr = self.fmt.rr_of(r)
        if rr is None:
            return None
        jj = self.fmt.find_in_row(rr, c)
        return jj

    def get(self, prefix: Tuple) -> float:
        (jj,) = prefix
        return float(self.fmt.values[jj])

    def set(self, prefix: Tuple, value: float) -> None:
        (jj,) = prefix
        self.fmt.values[jj] = value


class JadRowsRuntime(PathRuntime):
    """Row-oriented access: the JadHier/JadRow/JadRowIterator analog."""

    def __init__(self, fmt: "JadMatrix", path):
        self.fmt = fmt
        self.path = path

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        fmt = self.fmt
        if step == 0:
            for rr in range(fmt.nrows):
                yield (int(fmt.iperm[rr]),), rr
        else:
            (rr,) = prefix
            for d in range(int(fmt.rowcnt[rr])):
                jj = int(fmt.dptr[d]) + rr
                yield (int(fmt.colind[jj]),), jj

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        fmt = self.fmt
        if step == 0:
            (r,) = keys
            return fmt.rr_of(r)
        (rr,) = prefix
        (c,) = keys
        return fmt.find_in_row(rr, c)

    def interval(self, step: int, prefix: Tuple) -> Optional[Tuple[int, int]]:
        # logical rows form the interval [0, m): enumerate r and search rr
        # through the inverse permutation (paper Figure 9's structure)
        return (0, self.fmt.nrows) if step == 0 else None

    def get(self, prefix: Tuple) -> float:
        return float(self.fmt.values[prefix[1]])

    def set(self, prefix: Tuple, value: float) -> None:
        self.fmt.values[prefix[1]] = value


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
        lens = np.diff(self.dptr)
        if lens.size > 1 and np.any(lens[1:] > lens[:-1]):
            raise ValueError("jagged diagonal lengths must be non-increasing")
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

    def rr_of(self, r: int) -> Optional[int]:
        """Permuted index of logical row r (inverse permutation)."""
        if 0 <= r < self.nrows:
            return int(self.ipermi[r])
        return None

    def find_in_row(self, rr: int, c: int) -> Optional[int]:
        """Position jj of column c within permuted row rr (binary search
        over the diagonals: column indices increase along a row)."""
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
        rr = self.rr_of(r)
        if rr is None:
            return 0.0
        jj = self.find_in_row(rr, c)
        return float(self.values[jj]) if jj is not None else 0.0

    def set(self, r: int, c: int, v: float) -> None:
        rr = self.rr_of(r)
        jj = self.find_in_row(rr, c) if rr is not None else None
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

    def path_ids(self) -> Optional[List[str]]:
        return ["flat", "rows"]

    def runtime(self, path_id: str) -> PathRuntime:
        if path_id == "flat":
            return JadFlatRuntime(self, self.path(path_id))
        if path_id == "rows":
            return JadRowsRuntime(self, self.path(path_id))
        raise KeyError(path_id)

    def axis_total(self, axis_name):
        # iperm is a bijection on [0, m): row-oriented enumeration (and the
        # interval+inverse-permutation search) visits every logical row
        return (0, self.nrows) if axis_name == "r" else None
