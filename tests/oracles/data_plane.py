"""Per-element loop oracles of the data plane.

The constructions, extractions and the triangular split as they were
before the vectorized paths replaced them (PR 5), one element at a time.
They are the ground truth of ``tests/test_vectorized_differential.py``;
nothing under ``src/`` knows them.  Oracles build index arrays at the
exchange width (``int64``); the format constructors narrow them.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.formats.base import coo_dedup_sort
from repro.formats.csr import CsrMatrix


def _count_ptr(index, n):
    """Pointer array from per-element counting of a sorted major index."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    for i in index:
        ptr[int(i) + 1] += 1
    np.cumsum(ptr, out=ptr)
    return ptr


def _triple_arrays(rows, cols, vals):
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64))


# -- from_coo -----------------------------------------------------------------

def _csr_from_coo(cls, rows, cols, vals, shape):
    """Per-element row counting."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    return cls(_count_ptr(rows, shape[0]), cols, vals, shape)


def _csc_from_coo(cls, rows, cols, vals, shape):
    """Per-element column counting."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="col")
    return cls(_count_ptr(cols, shape[1]), rows, vals, shape)


def _coo_from_coo(cls, rows, cols, vals, shape):
    """Element-by-element append of the canonical triples."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    r_out, c_out, v_out = [], [], []
    for r, c, v in zip(rows, cols, vals):
        r_out.append(int(r))
        c_out.append(int(c))
        v_out.append(float(v))
    return cls(*_triple_arrays(r_out, c_out, v_out), shape)


def _dense_from_coo(cls, rows, cols, vals, shape):
    """Element-wise scatter into the dense array."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    out = np.zeros(shape)
    for r, c, v in zip(rows, cols, vals):
        out[int(r), int(c)] = float(v)
    return cls(out)


def _ell_from_coo(cls, rows, cols, vals, shape):
    """Per-element slot packing."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    m, n = shape
    counts = np.zeros(m, dtype=np.int64)
    np.add.at(counts, rows, 1)
    K = int(counts.max(initial=0))
    colind = np.zeros((m, max(K, 1)), dtype=np.int64)
    data = np.zeros((m, max(K, 1)))
    slot = np.zeros(m, dtype=np.int64)
    for r, c, v in zip(rows, cols, vals):
        colind[r, slot[r]] = c
        data[r, slot[r]] = v
        slot[r] += 1
    return cls(colind, data, counts, shape)


def _dia_from_coo(cls, rows, cols, vals, shape):
    """Per-element diagonal lookup and placement."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    diag_set = sorted({int(r) - int(c) for r, c in zip(rows, cols)})
    diags = np.array(diag_set, dtype=np.int64)
    index_of = {d: k for k, d in enumerate(diag_set)}
    data = np.zeros((diags.size, shape[1]))
    for r, c, v in zip(rows, cols, vals):
        data[index_of[int(r) - int(c)], int(c)] = float(v)
    return cls(diags, data, shape)


def _msr_from_coo(cls, rows, cols, vals, shape):
    """Per-element diagonal/off-diagonal routing."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    m, n = shape
    dvals = np.zeros(min(m, n))
    cols_o, vals_o = [], []
    rowptr = np.zeros(m + 1, dtype=np.int64)
    for r, c, v in zip(rows, cols, vals):
        if int(r) == int(c):
            dvals[int(r)] = float(v)
        else:
            cols_o.append(int(c))
            vals_o.append(float(v))
            rowptr[int(r) + 1] += 1
    np.cumsum(rowptr, out=rowptr)
    return cls(dvals, rowptr, np.array(cols_o, dtype=np.int64),
               np.array(vals_o, dtype=np.float64), shape)


def _sym_from_coo(cls, rows, cols, vals, shape):
    """Dictionary symmetry check, then per-element row counting."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    dense_check = {}
    for r, c, v in zip(rows, cols, vals):
        dense_check[(int(r), int(c))] = float(v)
    for (r, c), v in dense_check.items():
        if abs(dense_check.get((c, r), 0.0) - v) > 1e-12:
            raise ValueError(f"matrix is not symmetric at ({r},{c})")
    keep = rows >= cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return cls(_count_ptr(rows, shape[0]), cols, vals, shape)


def _jad_from_coo(cls, rows, cols, vals, shape):
    """The paper's Figure 14 construction, one appended element at a
    time."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    m, n = shape
    counts = np.zeros(m, dtype=np.int64)
    np.add.at(counts, rows, 1)
    iperm = np.argsort(-counts, kind="stable")
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    nd = int(counts.max(initial=0))
    dptr = [0]
    colind: List[int] = []
    values: List[float] = []
    for d in range(nd):
        for rr in range(m):
            r = int(iperm[rr])
            if counts[r] <= d:
                break  # rows sorted by count: nothing longer follows
            pos = int(rowptr[r]) + d
            colind.append(int(cols[pos]))
            values.append(float(vals[pos]))
        dptr.append(len(colind))
    return cls(iperm, np.array(dptr, dtype=np.int64),
               np.array(colind, dtype=np.int64), np.array(values), shape)


def _bsr_from_coo(cls, rows, cols, vals, shape, block_size: int = 2):
    """Per-element dictionary block lookup."""
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
    s = block_size
    m, n = shape
    if m % s or n % s:
        raise ValueError("matrix dimensions must be multiples of the block size")
    rb, cb = rows // s, cols // s
    keys = rb * (n // s) + cb
    uniq = np.unique(keys)
    block_of = {int(k): i for i, k in enumerate(uniq)}
    data = np.zeros((uniq.size, s, s))
    for r, c, v in zip(rows, cols, vals):
        kk = block_of[int((r // s) * (n // s) + (c // s))]
        data[kk, r % s, c % s] = v
    indptr = np.zeros(m // s + 1, dtype=np.int64)
    np.add.at(indptr[1:], uniq // (n // s), 1)
    np.cumsum(indptr, out=indptr)
    blockind = uniq % (n // s)
    return cls(indptr, blockind, data, s, shape)


_FROM_COO = {
    "csr": _csr_from_coo, "csc": _csc_from_coo, "coo": _coo_from_coo,
    "dense": _dense_from_coo, "ell": _ell_from_coo, "dia": _dia_from_coo,
    "msr": _msr_from_coo, "sym": _sym_from_coo, "jad": _jad_from_coo,
    "bsr": _bsr_from_coo,
}


def reference_from_coo(cls, rows, cols, vals, shape, **kwargs):
    """Loop oracle for ``cls.from_coo``."""
    return _FROM_COO[cls.format_name](cls, rows, cols, vals, shape, **kwargs)


# -- to_coo_arrays ------------------------------------------------------------

def _csr_to_coo(A):
    rows = np.empty(A.nnz, dtype=np.int64)
    for r in range(A.nrows):
        for jj in range(int(A.rowptr[r]), int(A.rowptr[r + 1])):
            rows[jj] = r
    return rows, A.colind.astype(np.int64), A.values.copy()


def _csc_to_coo(A):
    cols = np.empty(A.nnz, dtype=np.int64)
    for c in range(A.ncols):
        for jj in range(int(A.colptr[c]), int(A.colptr[c + 1])):
            cols[jj] = c
    return A.rowind.astype(np.int64), cols, A.values.copy()


def _coo_to_coo(A):
    return _triple_arrays([int(r) for r in A.rows], [int(c) for c in A.cols],
                          [float(v) for v in A.vals])


def _dense_to_coo(A):
    rows, cols, vals = [], [], []
    for r in range(A.nrows):
        for c in range(A.ncols):
            if A.data[r, c] != 0.0:
                rows.append(r)
                cols.append(c)
                vals.append(float(A.data[r, c]))
    return _triple_arrays(rows, cols, vals)


def _ell_to_coo(A):
    rows, cols, vals = [], [], []
    for r in range(A.nrows):
        ln = int(A.rowlen[r])
        rows.append(np.full(ln, r, dtype=np.int64))
        cols.append(A.colind[r, :ln].astype(np.int64))
        vals.append(A.data[r, :ln])
    if not rows:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), np.zeros(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _dia_to_coo(A):
    rows, cols, vals = [], [], []
    for k, d in enumerate(A.diags):
        lo, hi = A.offset_range(int(d))
        for o in range(lo, hi):
            rows.append(o + int(d))
            cols.append(o)
            vals.append(float(A.data[k, o]))
    return _triple_arrays(rows, cols, vals)


def _stored_rows(A, rows, cols, vals):
    """Append the CSR-style ``rowptr``/``colind``/``values`` entries."""
    for r in range(A.nrows):
        for jj in range(int(A.rowptr[r]), int(A.rowptr[r + 1])):
            rows.append(r)
            cols.append(int(A.colind[jj]))
            vals.append(float(A.values[jj]))


def _msr_to_coo(A):
    rows, cols, vals = [], [], []
    for i in range(A.ndiag):
        rows.append(i)
        cols.append(i)
        vals.append(float(A.dvals[i]))
    _stored_rows(A, rows, cols, vals)
    return _triple_arrays(rows, cols, vals)


def _sym_to_coo(A):
    rows, cols, vals = [], [], []
    _stored_rows(A, rows, cols, vals)
    for i in range(len(rows)):
        if rows[i] != cols[i]:
            rows.append(cols[i])
            cols.append(rows[i])
            vals.append(vals[i])
    return _triple_arrays(rows, cols, vals)


def _jad_to_coo(A):
    rows = np.empty(A.nnz, dtype=np.int64)
    d = 0
    for jj in range(A.nnz):
        while jj >= A.dptr[d + 1]:
            d += 1
        rows[jj] = A.iperm[jj - int(A.dptr[d])]
    return rows, A.colind.astype(np.int64), A.values.copy()


def _bsr_to_coo(A):
    s = A.block_size
    rows, cols, vals = [], [], []
    for rb in range(A.block_rows):
        for kk in range(int(A.indptr[rb]), int(A.indptr[rb + 1])):
            cb = int(A.blockind[kk])
            for ri in range(s):
                for ci in range(s):
                    rows.append(rb * s + ri)
                    cols.append(cb * s + ci)
                    vals.append(float(A.data[kk, ri, ci]))
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals))


_TO_COO = {
    "csr": _csr_to_coo, "csc": _csc_to_coo, "coo": _coo_to_coo,
    "dense": _dense_to_coo, "ell": _ell_to_coo, "dia": _dia_to_coo,
    "msr": _msr_to_coo, "sym": _sym_to_coo, "jad": _jad_to_coo,
    "bsr": _bsr_to_coo,
}


def reference_to_coo_arrays(A):
    """Loop oracle for ``A.to_coo_arrays()`` (triples in stored order)."""
    return _TO_COO[A.format_name](A)


# -- to_dense -----------------------------------------------------------------

def reference_to_dense(A) -> np.ndarray:
    """Loop oracle for ``A.to_dense()``: BSR places a block at a time,
    every other format scatters the loop-extracted triples element-wise."""
    out = np.zeros(A.shape)
    if A.format_name == "bsr":
        s = A.block_size
        for rb in range(A.block_rows):
            for kk in range(int(A.indptr[rb]), int(A.indptr[rb + 1])):
                cb = int(A.blockind[kk])
                out[rb * s:(rb + 1) * s, cb * s:(cb + 1) * s] = A.data[kk]
        return out
    for r, c, v in zip(*reference_to_coo_arrays(A)):
        out[int(r), int(c)] = float(v)
    return out


# -- SolverContext triangular split ----------------------------------------------

def reference_triangular_split(A):
    """Loop oracle for ``repro.solvers.context._triangular_split``:
    element-wise partitioning, parts built by the CSR loop oracle."""
    rows, cols, vals = A.to_coo_arrays()
    low, up = ([], [], []), ([], [], [])
    for r, c, v in zip(rows, cols, vals):
        for part, keep in ((low, r >= c), (up, r <= c)):
            if keep:
                part[0].append(int(r))
                part[1].append(int(c))
                part[2].append(float(v))
    L = _csr_from_coo(CsrMatrix, *_triple_arrays(*low), A.shape)
    L.annotate_triangular("lower")
    U = _csr_from_coo(CsrMatrix, *_triple_arrays(*up), A.shape)
    U.annotate_triangular("upper")
    return L, U
