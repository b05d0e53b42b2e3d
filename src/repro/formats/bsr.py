"""Block Sparse Row storage (BSR): dense s x s blocks on a CSR skeleton.

Index structure::

    map{s*rb + ri |-> r, s*cb + ci |-> c :
        rb -> cb -> (ri x ci) -> v}

The affine map rule of the paper's grammar covers blocking directly: the
logical row decomposes as ``r = s*rb + ri`` with the block row ``rb`` an
interval, stored block columns ``cb`` sorted within a block row, and the
within-block coordinates a dense cross product.

The matrix dimensions must be multiples of the block size (generators pad).
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
from repro.formats.levels import Compressed, Dense, Size, Storage
from repro.formats.views import (
    Axis,
    BINARY,
    Cross,
    INCREASING,
    MapTerm,
    Nest,
    Term,
    Value,
    interval_axis,
)
from repro.polyhedra.linexpr import LinExpr


class BsrMatrix(SparseFormat):
    """BSR: ``indptr`` (block_rows+1), ``blockind`` (nblocks, sorted within
    a block row), ``data`` (nblocks x s x s).  Index arrays are stored at
    ``index_dtype(max(m, n, nblocks * s * s))`` — the emitted code forms
    ``blockind[kk] * s + ci`` and addresses the block cube flat."""

    format_name = "bsr"

    def __init__(self, indptr: np.ndarray, blockind: np.ndarray, data: np.ndarray,
                 block_size: int, shape: Tuple[int, int]):
        super().__init__(shape)
        self.block_size = int(block_size)
        if self.nrows % self.block_size or self.ncols % self.block_size:
            raise ValueError("matrix dimensions must be multiples of the block size")
        self.data = np.asarray(data, dtype=np.float64)
        nblocks = np.size(blockind)
        if self.data.shape != (nblocks, self.block_size, self.block_size):
            raise ValueError("data must be (nblocks, s, s)")
        idx = storage_index_dtype(self.shape, self.data.size)
        self.indptr = pointer_array(indptr, idx, "indptr", self.block_rows,
                                    nblocks)
        self.blockind = index_array(blockind, idx, "blockind", self.block_cols)

    @property
    def block_rows(self) -> int:
        return self.nrows // self.block_size

    @property
    def block_cols(self) -> int:
        return self.ncols // self.block_size

    # -- high-level API ----------------------------------------------------
    @property
    def nnz(self) -> int:
        """Stored entries, counting explicit in-block zeros (the format
        computes with them, so benchmarks must count them)."""
        return int(self.data.size)

    def _find_block(self, rb: int, cb: int) -> Optional[int]:
        lo, hi = int(self.indptr[rb]), int(self.indptr[rb + 1])
        kk = int(np.searchsorted(self.blockind[lo:hi], cb)) + lo
        if kk < hi and self.blockind[kk] == cb:
            return kk
        return None

    def get(self, r: int, c: int) -> float:
        s = self.block_size
        kk = self._find_block(r // s, c // s)
        return float(self.data[kk, r % s, c % s]) if kk is not None else 0.0

    def set(self, r: int, c: int, v: float) -> None:
        s = self.block_size
        kk = self._find_block(r // s, c // s)
        if kk is None:
            raise KeyError(f"({r},{c}) is not in a stored block")
        self.data[kk, r % s, c % s] = v

    def to_coo_arrays(self):
        # broadcast block coordinates over the (nblocks, s, s) data cube;
        # raveling C-order reproduces the (block, ri, ci) loop-nest order
        # exchange contract: int64 triples whatever the storage width
        s = self.block_size
        rb = np.repeat(np.arange(self.block_rows, dtype=np.int64),
                       np.diff(self.indptr))
        within = np.arange(s, dtype=np.int64)
        rows = (rb[:, None, None] * s + within[None, :, None]
                + np.zeros((1, 1, s), dtype=np.int64))
        cols = (self.blockind.astype(np.int64)[:, None, None] * s
                + within[None, None, :] + np.zeros((1, s, 1), dtype=np.int64))
        return coo_contract(rows.reshape(-1), cols.reshape(-1),
                            self.data.reshape(-1).copy())

    def to_dense(self) -> np.ndarray:
        # view the dense output as (block_rows, s, block_cols, s) and drop
        # every stored block in with one advanced-indexing assignment
        s = self.block_size
        out = np.zeros(self.shape)
        rb = np.repeat(np.arange(self.block_rows), np.diff(self.indptr))
        out4 = out.reshape(self.block_rows, s, self.block_cols, s)
        out4[rb, :, self.blockind, :] = self.data
        return out

    @classmethod
    def from_coo(cls, rows, cols, vals, shape, block_size: int = 2) -> "BsrMatrix":
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        return cls._from_canonical_coo(rows, cols, vals, shape,
                                       block_size=block_size)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape,
                            block_size: int = 2) -> "BsrMatrix":
        # block ids come from np.unique; the inverse map replaces the
        # per-element dictionary lookup, so the fill is one 3-D scatter
        s = block_size
        m, n = shape
        if m % s or n % s:
            raise ValueError("matrix dimensions must be multiples of the block size")
        # block keys are formed from the int64 exchange triples: the block
        # grid's cell count overflows a storage width long before n does
        rb, cb = rows // s, cols // s
        keys = rb * (n // s) + cb
        uniq, inverse = np.unique(keys, return_inverse=True)
        data = np.zeros((uniq.size, s, s))
        data[inverse, rows % s, cols % s] = vals
        idx = storage_index_dtype(shape, data.size)
        indptr = csr_rowptr(uniq // (n // s), m // s, idx)
        blockind = (uniq % (n // s)).astype(idx)
        return cls(indptr, blockind, data, s, shape)

    @classmethod
    def from_dense(cls, a: np.ndarray, block_size: int = 2) -> "BsrMatrix":
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols].astype(float), a.shape, block_size)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        s = self.block_size
        rb = LinExpr.variable("rb")
        ri = LinExpr.variable("ri")
        cb = LinExpr.variable("cb")
        ci = LinExpr.variable("ci")
        return MapTerm(
            {"r": rb * s + ri, "c": cb * s + ci},
            Nest(
                interval_axis("rb"),
                Nest(
                    Axis("cb", INCREASING, BINARY),
                    Cross([interval_axis("ri"), interval_axis("ci")], Value()),
                ),
            ),
        )

    def storage(self, path_id: str) -> Storage:
        # either order of the in-block axes: two dense levels of extent s
        return Storage(
            (Dense("brows"), Compressed("indptr", "blockind", slot="kk"),
             Dense("s"), Dense("s")),
            ("data", "cb", "ri", "ci"),
            ("indptr", "blockind", "data", Size("brows", "block_rows"),
             Size("s", "block_size")))

    def path_ids(self) -> Optional[List[str]]:
        return ["rows_rc", "rows_cr"]

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name == "rb":
            return (0, self.block_rows)
        if axis_name == "cb":
            return (0, self.block_cols)
        if axis_name in ("ri", "ci"):
            return (0, self.block_size)
        return super().axis_range(axis_name)
