"""The hand-written assembly the declarations replaced.

Each format used to build itself from canonical COO triples by its own
code; :meth:`repro.formats.base.SparseFormat._from_canonical_coo` now
derives every one of these from the format's ``storage()``.  The bodies
below are those constructors as they were, one function per format (the
class passed in), with the skyline example's row loop and the tests'
column-major COO: the ground truth of ``tests/test_assembly.py``, which
holds every derived constructor to them byte for byte.  Nothing under
``src/`` knows them.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import (
    check_padding,
    coo_dedup_sort,
    csr_rowptr,
    storage_index_dtype,
)


def compress(major, minor, nmajor, shape):
    """``(pointer, minor index)`` arrays of a compressed axis from triples
    sorted on ``major``, both built once at the storage width of a matrix
    of ``shape`` holding them.  ``minor`` is copied, never aliased."""
    idx = storage_index_dtype(shape, minor.size)
    return csr_rowptr(major, nmajor, idx), minor.astype(idx)


def csr_from_canonical_coo(cls, rows, cols, vals, shape):
    return cls(*compress(rows, cols, shape[0], shape), vals.copy(), shape)


def _csc_build_colmajor(cls, rows, cols, vals, shape):
    """Construction core for triples already canonical *column*-major."""
    return cls(*compress(cols, rows, shape[1], shape), vals.copy(), shape)


def csc_from_coo(cls, rows, cols, vals, shape):
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="col")
    return _csc_build_colmajor(cls, rows, cols, vals, shape)


def csc_from_canonical_coo(cls, rows, cols, vals, shape):
    # row-major canonical in: one stable sort on the column alone
    # re-sorts column-major (rows stay increasing within each column
    # because the input was row-sorted) — no key building, no dedup
    perm = np.argsort(cols, kind="stable")
    return _csc_build_colmajor(cls, rows[perm], cols[perm], vals[perm], shape)


def coo_from_canonical_coo(cls, rows, cols, vals, shape):
    idx = storage_index_dtype(shape, vals.size)
    return cls(rows.astype(idx), cols.astype(idx), vals.copy(), shape)


def ell_from_canonical_coo(cls, rows, cols, vals, shape):
    # scatter packing: entry jj of row r lands in slot jj - rowptr[r]
    # (its position within the row), one vectorized assignment per array
    m, n = shape
    counts = np.bincount(rows, minlength=m)
    longest = int(counts.max(initial=0))
    check_padding("ell", rows.size, m * longest)
    K = max(longest, min(n, 1))     # no padding slot without a column
    colind = np.zeros((m, K), dtype=storage_index_dtype(shape, m * K))
    data = np.zeros((m, K))
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    colind[rows, slot] = cols
    data[rows, slot] = vals
    return cls(colind, data, counts, shape)


def msr_from_canonical_coo(cls, rows, cols, vals, shape):
    m, n = shape
    dvals = np.zeros(min(m, n))
    on_diag = rows == cols
    dvals[rows[on_diag]] = vals[on_diag]
    rows_o, cols_o, vals_o = rows[~on_diag], cols[~on_diag], vals[~on_diag]
    return cls(dvals, *compress(rows_o, cols_o, m, shape), vals_o, shape)


def skyline_from_coo(cls, rows, cols, vals, shape):
    """The example's row loop: per row the first column and the span."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    m = shape[0]
    first = np.zeros(m, dtype=np.int64)
    length = np.zeros(m, dtype=np.int64)
    for r in range(m):
        mine = cols[rows == r]
        if mine.size:
            first[r], length[r] = mine.min(), mine.max() + 1 - mine.min()
    self = cls(first, length, np.zeros(int(length.sum())), shape)
    self.data[self.start[rows] + cols - first[rows]] = vals
    return self


def declared_coo_from_coo(cls, rows, cols, vals, shape):
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="col")
    return cls(rows, cols, vals, shape)


#: format name -> the hand-written construction core from canonical
#: row-major triples
FROM_CANONICAL = {
    "csr": csr_from_canonical_coo,
    "csc": csc_from_canonical_coo,
    "coo": coo_from_canonical_coo,
    "ell": ell_from_canonical_coo,
    "msr": msr_from_canonical_coo,
}


def reference_from_coo(cls, rows, cols, vals, shape):
    """A built-in's ``from_coo`` as it was: canonicalize, then its core."""
    if cls.format_name == "csc":
        return csc_from_coo(cls, rows, cols, vals, shape)
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    return FROM_CANONICAL[cls.format_name](cls, rows.copy(), cols.copy(),
                                           vals.copy(), shape)
