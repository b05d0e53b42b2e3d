"""Conversions between formats: one route.

Converting a format to itself (no constructor kwargs) returns the
instance; anything else is ``cls.from_coo(*matrix.to_coo_arrays(),
matrix.shape, **kwargs)``, both ends read from the declarations.  The
stop rule kept one direct route each way between CSR and CSC
(:data:`_DIRECT`, README "Format designers"): one stable argsort of the
minor index, at less than half the ``tracemalloc`` peak of the one
route.  It declines a source that breaks the sorted-unique invariant
(hand-built arrays), which then takes the one route.

Instrumentation: the ``format.convert`` phase brackets every conversion;
counters tick per route (``format.convert.identity`` / ``fastpath`` /
``via_coo``) and per ordered pair (``format.convert.csr->ell`` ...).
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


#: (source class, target class) -> a direct route the stop rule kept; it
#: returns None for a source that is not sorted-unique
_DIRECT: Dict[Tuple[type, type], object] = {
    (CsrMatrix, CscMatrix): _csr_to_csc,
    (CscMatrix, CsrMatrix): _csc_to_csr,
}


def convert(matrix: SparseFormat, target: Union[str, Type[SparseFormat]], **kwargs) -> SparseFormat:
    """Convert ``matrix`` to another format, preserving stored values.

    ``kwargs`` are forwarded to the target constructor (e.g.
    ``block_size=4`` for BSR).  Converting to the matrix's own class with
    no kwargs returns the instance itself (bounds annotation and all);
    otherwise the target is built from the source's COO triples, or —
    between CSR and CSC — by a direct route.
    """
    cls = FORMATS[target] if isinstance(target, str) else target
    if cls is type(matrix) and not kwargs:
        INSTR.count("format.convert.identity")
        return matrix
    with INSTR.phase("format.convert"):
        INSTR.count(f"format.convert.{matrix.format_name}->{cls.format_name}")
        direct = None if kwargs else _DIRECT.get((type(matrix), cls))
        out = direct and direct(matrix)
        if out is None:
            INSTR.count("format.convert.via_coo")
            out = cls.from_coo(*matrix.to_coo_arrays(), matrix.shape, **kwargs)
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
        return cls.from_dense(a, **kwargs)
    # scipy sparse: one conversion — from_scipy forwards the constructor
    # kwargs, so there is no scipy -> COO -> target double hop
    return cls.from_scipy(a, **kwargs)
