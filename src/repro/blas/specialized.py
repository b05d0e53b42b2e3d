"""Hand-written per-format sparse BLAS kernels (the NIST-C analog).

Each routine is written exactly as a library author would write it for that
format: raw loops over the format's index arrays, no abstraction layers.
These are the baselines the compiler-generated code must be structurally
equivalent to (paper Section 5), and the "NIST C" series of the Figure
12/13 reproduction.

All kernels are pure Python by design: the comparison of interest is
generated-Python vs. hand-written-Python vs. generic-Python (same idiom,
same interpreter), which preserves the paper's *relative* claims.
"""

from __future__ import annotations

import numpy as np

from repro.formats.bsr import BsrMatrix
from repro.formats.coo import CooMatrix
from repro.formats.csc import CscMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.dia import DiaMatrix
from repro.formats.ell import EllMatrix
from repro.formats.jad import JadMatrix
from repro.formats.msr import MsrMatrix


# ---------------------------------------------------------------------------
# MVM: y = A x
# ---------------------------------------------------------------------------

def mvm_csr(A: CsrMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rowptr, colind, values = A.rowptr, A.colind, A.values
    for r in range(A.nrows):
        acc = 0.0
        for jj in range(rowptr[r], rowptr[r + 1]):
            acc += values[jj] * x[colind[jj]]
        y[r] = acc
    return y


def mvm_csc(A: CscMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    colptr, rowind, values = A.colptr, A.rowind, A.values
    for r in range(A.nrows):
        y[r] = 0.0
    for c in range(A.ncols):
        xc = x[c]
        for jj in range(colptr[c], colptr[c + 1]):
            y[rowind[jj]] += values[jj] * xc
    return y


def mvm_coo(A: CooMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rows, cols, vals = A.rows, A.cols, A.vals
    for r in range(A.nrows):
        y[r] = 0.0
    for k in range(A.nnz):
        y[rows[k]] += vals[k] * x[cols[k]]
    return y


def mvm_dia(A: DiaMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    for r in range(A.nrows):
        y[r] = 0.0
    m, n = A.shape
    for k in range(A.diags.size):
        d = int(A.diags[k])
        lo = max(0, -d)
        hi = min(n, m - d)
        row = A.data[k]
        for o in range(lo, hi):
            y[d + o] += row[o] * x[o]
    return y


def mvm_ell(A: EllMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    colind, data, rowlen = A.colind, A.data, A.rowlen
    for r in range(A.nrows):
        acc = 0.0
        for kk in range(rowlen[r]):
            acc += data[r, kk] * x[colind[r, kk]]
        y[r] = acc
    return y


def mvm_jad(A: JadMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Diagonal-major JAD MVM: the access pattern the format exists for."""
    iperm, dptr, colind, values = A.iperm, A.dptr, A.colind, A.values
    for r in range(A.nrows):
        y[r] = 0.0
    for d in range(A.ndiags):
        lo, hi = dptr[d], dptr[d + 1]
        for jj in range(lo, hi):
            rr = jj - lo
            y[iperm[rr]] += values[jj] * x[colind[jj]]
    return y


def mvm_bsr(A: BsrMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = A.block_size
    indptr, blockind, data = A.indptr, A.blockind, A.data
    for r in range(A.nrows):
        y[r] = 0.0
    for rb in range(A.block_rows):
        r0 = rb * s
        for kk in range(indptr[rb], indptr[rb + 1]):
            c0 = int(blockind[kk]) * s
            blk = data[kk]
            for ri in range(s):
                acc = 0.0
                for ci in range(s):
                    acc += blk[ri, ci] * x[c0 + ci]
                y[r0 + ri] += acc
    return y


def mvm_sym(A, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric MVM over the stored lower triangle: each off-diagonal
    entry contributes twice (the classic symmetric SpMV)."""
    rowptr, colind, values = A.rowptr, A.colind, A.values
    for r in range(A.nrows):
        y[r] = 0.0
    for r in range(A.nrows):
        acc = 0.0
        xr = x[r]
        for jj in range(rowptr[r], rowptr[r + 1]):
            c = colind[jj]
            v = values[jj]
            acc += v * x[c]
            if c != r:
                y[c] += v * xr
        y[r] += acc
    return y


def mvm_msr(A: MsrMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    dvals, rowptr, colind, values = A.dvals, A.rowptr, A.colind, A.values
    for r in range(A.nrows):
        acc = dvals[r] * x[r] if r < A.ndiag else 0.0
        for jj in range(rowptr[r], rowptr[r + 1]):
            acc += values[jj] * x[colind[jj]]
        y[r] = acc
    return y


# ---------------------------------------------------------------------------
# Transposed MVM: y = A^T x
# ---------------------------------------------------------------------------

def mvm_t_csr(A: CsrMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rowptr, colind, values = A.rowptr, A.colind, A.values
    for c in range(A.ncols):
        y[c] = 0.0
    for r in range(A.nrows):
        xr = x[r]
        for jj in range(rowptr[r], rowptr[r + 1]):
            y[colind[jj]] += values[jj] * xr
    return y


def mvm_t_csc(A: CscMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    colptr, rowind, values = A.colptr, A.rowind, A.values
    for c in range(A.ncols):
        acc = 0.0
        for jj in range(colptr[c], colptr[c + 1]):
            acc += values[jj] * x[rowind[jj]]
        y[c] = acc
    return y


# ---------------------------------------------------------------------------
# SpMM: Y = A X (X a dense n×k panel) — the per-entry inner loop becomes a
# panel-row axpy
# ---------------------------------------------------------------------------

def mm_csr(A: CsrMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    rowptr, colind, values = A.rowptr, A.colind, A.values
    for r in range(A.nrows):
        Y[r] = 0.0
        for jj in range(rowptr[r], rowptr[r + 1]):
            Y[r] += values[jj] * X[colind[jj]]
    return Y


def mm_csc(A: CscMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    colptr, rowind, values = A.colptr, A.rowind, A.values
    Y[...] = 0.0
    for c in range(A.ncols):
        xc = X[c]
        for jj in range(colptr[c], colptr[c + 1]):
            Y[rowind[jj]] += values[jj] * xc
    return Y


def mm_t_csr(A: CsrMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    rowptr, colind, values = A.rowptr, A.colind, A.values
    Y[...] = 0.0
    for r in range(A.nrows):
        xr = X[r]
        for jj in range(rowptr[r], rowptr[r + 1]):
            Y[colind[jj]] += values[jj] * xr
    return Y


def mm_t_csc(A: CscMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    colptr, rowind, values = A.colptr, A.rowind, A.values
    for c in range(A.ncols):
        Y[c] = 0.0
        for jj in range(colptr[c], colptr[c + 1]):
            Y[c] += values[jj] * X[rowind[jj]]
    return Y


# ---------------------------------------------------------------------------
# Triangular solve: b := L^{-1} b (lower) / b := U^{-1} b (upper)
# ---------------------------------------------------------------------------

def ts_lower_csr(L: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """Row-oriented forward substitution — the CSR TS of the NIST C library
    (paper Figure 8's structure)."""
    rowptr, colind, values = L.rowptr, L.colind, L.values
    for r in range(L.nrows):
        acc = b[r]
        diag = 0.0
        for jj in range(rowptr[r], rowptr[r + 1]):
            c = colind[jj]
            if c < r:
                acc -= values[jj] * b[c]
            elif c == r:
                diag = values[jj]
        b[r] = acc / diag
    return b


def ts_lower_csc(L: CscMatrix, b: np.ndarray) -> np.ndarray:
    """Column-oriented forward substitution (paper Figure 5's structure)."""
    colptr, rowind, values = L.colptr, L.rowind, L.values
    for c in range(L.ncols):
        lo, hi = colptr[c], colptr[c + 1]
        diag = 0.0
        for jj in range(lo, hi):
            if rowind[jj] == c:
                diag = values[jj]
                break
        b[c] /= diag
        bc = b[c]
        for jj in range(lo, hi):
            r = rowind[jj]
            if r > c:
                b[r] -= values[jj] * bc
    return b


def ts_lower_jad(L: JadMatrix, b: np.ndarray) -> np.ndarray:
    """Row-oriented JAD forward substitution through the inverse
    permutation — the hand-written equivalent of paper Figure 9."""
    ipermi, dptr, colind, values, rowcnt = (
        L.ipermi, L.dptr, L.colind, L.values, L.rowcnt)
    for r in range(L.nrows):
        rr = ipermi[r]
        acc = b[r]
        diag = 0.0
        for d in range(rowcnt[rr]):
            jj = dptr[d] + rr
            c = colind[jj]
            if c < r:
                acc -= values[jj] * b[c]
            elif c == r:
                diag = values[jj]
        b[r] = acc / diag
    return b


def ts_lower_msr(L: MsrMatrix, b: np.ndarray) -> np.ndarray:
    dvals, rowptr, colind, values = L.dvals, L.rowptr, L.colind, L.values
    for r in range(L.nrows):
        acc = b[r]
        for jj in range(rowptr[r], rowptr[r + 1]):
            c = colind[jj]
            if c < r:
                acc -= values[jj] * b[c]
        b[r] = acc / dvals[r]
    return b


def ts_upper_csr(U: CsrMatrix, b: np.ndarray) -> np.ndarray:
    rowptr, colind, values = U.rowptr, U.colind, U.values
    for r in range(U.nrows - 1, -1, -1):
        acc = b[r]
        diag = 0.0
        for jj in range(rowptr[r], rowptr[r + 1]):
            c = colind[jj]
            if c > r:
                acc -= values[jj] * b[c]
            elif c == r:
                diag = values[jj]
        b[r] = acc / diag
    return b


def ts_upper_csc(U: CscMatrix, b: np.ndarray) -> np.ndarray:
    colptr, rowind, values = U.colptr, U.rowind, U.values
    for c in range(U.ncols - 1, -1, -1):
        lo, hi = colptr[c], colptr[c + 1]
        diag = 0.0
        for jj in range(lo, hi):
            if rowind[jj] == c:
                diag = values[jj]
        b[c] /= diag
        bc = b[c]
        for jj in range(lo, hi):
            r = rowind[jj]
            if r < c:
                b[r] -= values[jj] * bc
    return b


def ts_upper_jad(U: JadMatrix, b: np.ndarray) -> np.ndarray:
    ipermi, dptr, colind, values, rowcnt = (
        U.ipermi, U.dptr, U.colind, U.values, U.rowcnt)
    for r in range(U.nrows - 1, -1, -1):
        rr = ipermi[r]
        acc = b[r]
        diag = 0.0
        for d in range(rowcnt[rr]):
            jj = dptr[d] + rr
            c = colind[jj]
            if c > r:
                acc -= values[jj] * b[c]
            elif c == r:
                diag = values[jj]
        b[r] = acc / diag
    return b


MVM = {
    "csr": mvm_csr,
    "csc": mvm_csc,
    "coo": mvm_coo,
    "dia": mvm_dia,
    "ell": mvm_ell,
    "jad": mvm_jad,
    "bsr": mvm_bsr,
    "msr": mvm_msr,
    "sym": mvm_sym,
}

MVM_T = {
    "csr": mvm_t_csr,
    "csc": mvm_t_csc,
}

MM = {
    "csr": mm_csr,
    "csc": mm_csc,
}

MM_T = {
    "csr": mm_t_csr,
    "csc": mm_t_csc,
}

TS_LOWER = {
    "csr": ts_lower_csr,
    "csc": ts_lower_csc,
    "jad": ts_lower_jad,
    "msr": ts_lower_msr,
}

TS_UPPER = {
    "csr": ts_upper_csr,
    "csc": ts_upper_csc,
    "jad": ts_upper_jad,
}
