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

from typing import Optional, Tuple

import numpy as np

from repro.formats.base import (
    SparseFormat,
    coo_contract,
    index_array,
    storage_index_dtype,
    pointer_array,
)
from repro.formats.levels import Compressed, Dense, Path, Size, Storage
from repro.polyhedra.linexpr import LinExpr


class BsrMatrix(SparseFormat):
    """BSR: ``indptr`` (block_rows+1), ``blockind`` (nblocks, sorted within
    a block row), ``data`` (nblocks x s x s).  Index arrays are stored at
    ``index_dtype(max(m, n, nblocks * s * s))`` — the emitted code forms
    ``blockind[kk] * s + ci`` and addresses the block cube flat."""

    format_name = "bsr"
    #: the block size ``from_coo`` builds when given none
    block_size = 2

    def __init__(self, indptr: np.ndarray, blockind: np.ndarray, data: np.ndarray,
                 block_size: int, shape: Tuple[int, int]):
        super().__init__(shape)
        self.block_size = int(block_size)
        self._check_shape()
        self.data = np.asarray(data, dtype=np.float64)
        nblocks = np.size(blockind)
        if self.data.shape != (nblocks, self.block_size, self.block_size):
            raise ValueError("data must be (nblocks, s, s)")
        idx = storage_index_dtype(self.shape, self.data.size)
        self.indptr = pointer_array(indptr, idx, "indptr", self.block_rows,
                                    nblocks)
        self.blockind = index_array(blockind, idx, "blockind", self.block_cols)

    def _check_shape(self) -> None:
        if self.nrows % self.block_size or self.ncols % self.block_size:
            raise ValueError("matrix dimensions must be multiples of the block size")

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

    def to_coo_arrays(self):
        # kept by hand: the derived walk expands four levels, at 2.3x the memory
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

    # -- low-level API -------------------------------------------------------
    def declaration(self):
        s = self.block_size
        rb, ri, cb, ci = map(LinExpr.variable, ("rb", "ri", "cb", "ci"))
        blocks = Storage(
            (Dense("brows"), Compressed("indptr", "blockind", slot="kk"),
             Dense("s"), Dense("s")),
            ("data", "cb", "ri", "ci"),
            ("indptr", "blockind", "data", Size("brows", "block_rows"),
             Size("s", "block_size")))
        subs = {"r": rb * s + ri, "c": cb * s + ci}
        # the cross (ri x ci) within a block: either order
        return {"rows_rc": Path(("rb", "cb", "ri", "ci"), blocks, subs),
                "rows_cr": Path(("rb", "cb", "ci", "ri"), blocks, subs)}

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        if axis_name == "rb":
            return (0, self.block_rows)
        if axis_name == "cb":
            return (0, self.block_cols)
        if axis_name in ("ri", "ci"):
            return (0, self.block_size)
        return super().axis_range(axis_name)
