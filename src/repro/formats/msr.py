"""Modified Sparse Row storage (MSR): the diagonal stored separately from a
CSR structure holding the off-diagonal entries.

This is the paper's aggregation example (Section 2: "a format in which the
diagonal elements are stored separately from the off-diagonal ones"):

    ( map{i |-> r, i |-> c : i -> v} )  U  ( r -> c -> v )

Enumerating the matrix requires enumerating *both* structures (the Union
rule); the compiler handles this by splitting each statement that references
the matrix into one copy per branch (paper Section 4).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    PathRuntime,
    SparseFormat,
    coo_contract,
    coo_dedup_sort,
    compress,
    index_array,
    storage_index_dtype,
    pointer_array,
)
from repro.formats.csr import ROWS
from repro.formats.levels import Dense, Size, Storage
from repro.formats.views import (
    Axis,
    BINARY,
    INCREASING,
    MapTerm,
    Nest,
    Term,
    Union,
    Value,
    interval_axis,
)
from repro.polyhedra.linexpr import LinExpr


class MsrDiagRuntime(PathRuntime):
    def __init__(self, fmt: "MsrMatrix", path):
        self.fmt = fmt
        self.path = path

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        for i in range(self.fmt.ndiag):
            yield (i,), i

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        (i,) = keys
        return i if 0 <= i < self.fmt.ndiag else None

    def interval(self, step: int, prefix: Tuple) -> Optional[Tuple[int, int]]:
        return (0, self.fmt.ndiag)

    def get(self, prefix: Tuple) -> float:
        return float(self.fmt.dvals[prefix[0]])

    def set(self, prefix: Tuple, value: float) -> None:
        self.fmt.dvals[prefix[0]] = value


class MsrOffRuntime(PathRuntime):
    def __init__(self, fmt: "MsrMatrix", path):
        self.fmt = fmt
        self.path = path

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        fmt = self.fmt
        if step == 0:
            for r in range(fmt.nrows):
                yield (r,), r
        else:
            (r,) = prefix
            for jj in range(int(fmt.rowptr[r]), int(fmt.rowptr[r + 1])):
                yield (int(fmt.colind[jj]),), jj

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        fmt = self.fmt
        if step == 0:
            (r,) = keys
            return r if 0 <= r < fmt.nrows else None
        (r,) = prefix
        (c,) = keys
        lo, hi = int(fmt.rowptr[r]), int(fmt.rowptr[r + 1])
        jj = int(np.searchsorted(fmt.colind[lo:hi], c)) + lo
        if jj < hi and fmt.colind[jj] == c:
            return jj
        return None

    def interval(self, step: int, prefix: Tuple) -> Optional[Tuple[int, int]]:
        return (0, self.fmt.nrows) if step == 0 else None

    def get(self, prefix: Tuple) -> float:
        return float(self.fmt.values[prefix[1]])

    def set(self, prefix: Tuple, value: float) -> None:
        self.fmt.values[prefix[1]] = value


class MsrMatrix(SparseFormat):
    """MSR: ``dvals`` (the full main diagonal, length min(m, n)) plus CSR
    arrays (``rowptr``/``colind``/``values``) holding strictly off-diagonal
    entries."""

    format_name = "msr"

    def __init__(self, dvals: np.ndarray, rowptr: np.ndarray, colind: np.ndarray,
                 values: np.ndarray, shape: Tuple[int, int]):
        super().__init__(shape)
        self.dvals = np.asarray(dvals, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.dvals.size != self.ndiag:
            raise ValueError("dvals must have min(m, n) entries")
        if np.shape(colind) != self.values.shape:
            raise ValueError("colind/values length mismatch")
        idx = storage_index_dtype(self.shape, self.values.size)
        self.rowptr = pointer_array(rowptr, idx, "rowptr", self.nrows,
                                    self.values.size)
        self.colind = index_array(colind, idx, "colind", self.ncols)
        if np.any(self.colind == np.repeat(np.arange(self.nrows), np.diff(self.rowptr))):
            raise ValueError("off-diagonal structure contains diagonal entries")

    @property
    def ndiag(self) -> int:
        return min(self.nrows, self.ncols)

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.dvals.size + self.values.size)

    def get(self, r: int, c: int) -> float:
        if r == c:
            return float(self.dvals[r])
        lo, hi = int(self.rowptr[r]), int(self.rowptr[r + 1])
        jj = int(np.searchsorted(self.colind[lo:hi], c)) + lo
        if jj < hi and self.colind[jj] == c:
            return float(self.values[jj])
        return 0.0

    def set(self, r: int, c: int, v: float) -> None:
        if r == c:
            self.dvals[r] = v
            return
        lo, hi = int(self.rowptr[r]), int(self.rowptr[r + 1])
        jj = int(np.searchsorted(self.colind[lo:hi], c)) + lo
        if jj < hi and self.colind[jj] == c:
            self.values[jj] = v
            return
        raise KeyError(f"({r},{c}) is not stored (fill is not supported)")

    def to_coo_arrays(self):
        # exchange contract: int64 triples whatever the storage width
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.rowptr))
        di = np.arange(self.ndiag, dtype=np.int64)
        return coo_contract(np.concatenate([di, rows]),
                            np.concatenate([di, self.colind]),
                            np.concatenate([self.dvals, self.values]))

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "MsrMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape) -> "MsrMatrix":
        m, n = shape
        dvals = np.zeros(min(m, n))
        on_diag = rows == cols
        dvals[rows[on_diag]] = vals[on_diag]
        rows_o, cols_o, vals_o = rows[~on_diag], cols[~on_diag], vals[~on_diag]
        return cls(dvals, *compress(rows_o, cols_o, m, shape), vals_o, shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        i = LinExpr.variable("i")
        diag = MapTerm({"r": i, "c": i}, Nest(interval_axis("i"), Value()))
        off = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        return Union(diag, off)

    def storage(self, path_id: str) -> Storage:
        if path_id == "off":
            return ROWS
        return Storage((Dense("nd"),), ("dvals", "i"),
                       ("dvals", Size("nd", "ndiag")))

    def path_ids(self) -> Optional[List[str]]:
        return ["diag", "off"]

    def runtime(self, path_id: str) -> PathRuntime:
        if path_id == "diag":
            return MsrDiagRuntime(self, self.path(path_id))
        if path_id == "off":
            return MsrOffRuntime(self, self.path(path_id))
        raise KeyError(path_id)

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name == "i":
            return (0, self.ndiag)
        return super().axis_range(axis_name)
