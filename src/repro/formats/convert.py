"""Conversions between formats.

COO triples remain the least-common-denominator interchange every format
can produce and consume, but the common routes no longer pay for it
(PR 5's vectorized data plane):

- converting a format to itself (no constructor kwargs) returns the
  instance unchanged;
- CSR and CSC expose their triples already sorted, so targets are built
  through ``_from_canonical_coo`` — the construction core that skips the
  canonicalization sort entirely;
- CSR <-> CSC transposes the compression axis with a single stable
  argsort of the minor index (no key building, no dedup pass).

Everything else goes ``to_coo_arrays`` -> ``from_coo``, where
:func:`repro.formats.base.coo_dedup_sort` detects already-canonical
triples in O(nnz) and skips its sort.

Instrumentation (namespace ``format.convert``): the ``format.convert``
phase timer brackets every conversion; counters tick per route
(``identity`` / ``fastpath`` / ``via_coo``) and per ordered format pair
(``format.convert.csr->ell`` ...).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.formats.base import (
    SparseFormat,
    compressed_is_canonical,
    csr_rowptr,
    storage_index_dtype,
)
from repro.formats.bsr import BsrMatrix
from repro.formats.coo import CooMatrix
from repro.formats.csc import CscMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.dia import DiaMatrix
from repro.formats.ell import EllMatrix
from repro.formats.jad import JadMatrix
from repro.formats.msr import MsrMatrix
from repro.formats.sym import SymMatrix
from repro.instrument import INSTR

FORMATS: Dict[str, Type[SparseFormat]] = {
    "dense": DenseMatrix,
    "coo": CooMatrix,
    "csr": CsrMatrix,
    "csc": CscMatrix,
    "dia": DiaMatrix,
    "ell": EllMatrix,
    "jad": JadMatrix,
    "bsr": BsrMatrix,
    "msr": MsrMatrix,
    "sym": SymMatrix,
}


def _csr_canonical_triples(A: CsrMatrix) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row-major canonical triples straight from the CSR arrays, or None
    when the instance violates the sorted-unique invariant (hand-built
    arrays are not validated by the constructor — fall back then)."""
    if not compressed_is_canonical(A.rowptr, A.colind):
        return None
    # exchange contract: canonical triples are int64
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.rowptr))
    return rows, A.colind.astype(np.int64), A.values


def _csc_canonical_triples(A: CscMatrix) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row-major canonical triples from CSC arrays: one stable argsort of
    the row index re-sorts the column-major entries row-major (columns
    stay increasing within each row because the input was column-sorted)."""
    if not compressed_is_canonical(A.colptr, A.rowind):
        return None
    # exchange contract: canonical triples are int64
    cols = np.repeat(np.arange(A.ncols, dtype=np.int64), np.diff(A.colptr))
    perm = np.argsort(A.rowind, kind="stable")
    return A.rowind[perm].astype(np.int64), cols[perm], A.values[perm]


def _transposed_compression(ptr, ind, vals, nmajor: int, nminor: int, shape):
    """``(pointer, index, values)`` compressed along the *other* axis, or
    None when the source is not sorted-unique: one stable argsort of the
    minor index alone (the major index stays increasing within each new
    segment because the source was sorted on it), every index array
    built once at the storage width CSR and CSC share."""
    if not compressed_is_canonical(ptr, ind):
        return None
    idx = storage_index_dtype(shape, ind.size)
    major = np.repeat(np.arange(nmajor, dtype=idx), np.diff(ptr))
    perm = np.argsort(ind, kind="stable")
    return csr_rowptr(ind[perm], nminor, idx), major[perm], vals[perm]


def _csr_to_csc(A: CsrMatrix) -> Optional[CscMatrix]:
    arrays = _transposed_compression(A.rowptr, A.colind, A.values,
                                     A.nrows, A.ncols, A.shape)
    return None if arrays is None else CscMatrix(*arrays, A.shape)


def _csc_to_csr(A: CscMatrix) -> Optional[CsrMatrix]:
    arrays = _transposed_compression(A.colptr, A.rowind, A.values,
                                     A.ncols, A.nrows, A.shape)
    return None if arrays is None else CsrMatrix(*arrays, A.shape)


#: (source class, target class) -> direct conversion; a path returning
#: None signals "invariant not met, take the generic route"
_DIRECT: Dict[Tuple[type, type], object] = {
    (CsrMatrix, CscMatrix): _csr_to_csc,
    (CscMatrix, CsrMatrix): _csc_to_csr,
}

def _dense_canonical_triples(A: DenseMatrix):
    # np.nonzero scans row-major, so these triples are born canonical
    return A.to_coo_arrays()


#: sources whose triples come out canonical without a sort; every target's
#: ``_from_canonical_coo`` can consume them directly
_CANONICAL_SOURCES: Dict[type, object] = {
    CsrMatrix: _csr_canonical_triples,
    CscMatrix: _csc_canonical_triples,
    DenseMatrix: _dense_canonical_triples,
}


def _try_fast_path(matrix: SparseFormat, cls: Type[SparseFormat],
                   kwargs: Dict) -> Optional[SparseFormat]:
    direct = _DIRECT.get((type(matrix), cls))
    if direct is not None and not kwargs:
        return direct(matrix)
    extract = _CANONICAL_SOURCES.get(type(matrix))
    if extract is None:
        return None
    trip = extract(matrix)
    if trip is None:
        return None
    rows, cols, vals = trip
    return cls._from_canonical_coo(rows, cols, vals, matrix.shape, **kwargs)


def convert(matrix: SparseFormat, target: Union[str, Type[SparseFormat]], **kwargs) -> SparseFormat:
    """Convert ``matrix`` to another format, preserving stored values.

    ``kwargs`` are forwarded to the target constructor (e.g.
    ``block_size=4`` for BSR).  Converting to the matrix's own class with
    no kwargs returns the instance itself (bounds annotation and all);
    otherwise the cheapest available route is taken — a direct fast path
    when one exists, the COO interchange when not.
    """
    cls = FORMATS[target] if isinstance(target, str) else target
    if cls is type(matrix) and not kwargs:
        INSTR.count("format.convert.identity")
        return matrix
    with INSTR.phase("format.convert"):
        INSTR.count(f"format.convert.{matrix.format_name}->{cls.format_name}")
        out = _try_fast_path(matrix, cls, kwargs)
        if out is None:
            INSTR.count("format.convert.via_coo")
            rows, cols, vals = matrix.to_coo_arrays()
            out = cls.from_coo(rows, cols, vals, matrix.shape, **kwargs)
        else:
            INSTR.count("format.convert.fastpath")
    if matrix.bounds() is not None:
        out.annotate_bounds(matrix.bounds())
    return out


def as_format(a, target: Union[str, Type[SparseFormat]], **kwargs) -> SparseFormat:
    """Build a format instance from a dense ndarray, a scipy sparse matrix,
    or another format instance."""
    cls = FORMATS[target] if isinstance(target, str) else target
    if isinstance(a, SparseFormat):
        return convert(a, cls, **kwargs)
    if isinstance(a, np.ndarray):
        if cls is BsrMatrix:
            return BsrMatrix.from_dense(a, **kwargs)
        return cls.from_dense(a, **kwargs)
    # scipy sparse: one conversion — from_scipy forwards the constructor
    # kwargs, so there is no scipy -> COO -> target double hop
    return cls.from_scipy(a, **kwargs)
