"""The independent oracle: expected outputs from ``scipy.sparse`` built
from the same COO triples the system under test receives.  Nothing here
imports ``repro``; the compiler never checks itself.

Rows whose operands are integer-valued are compared byte for byte (their
products and sums are exact in float64, whatever the order); everything
else — triangular solves, Krylov iterates — to ``rtol=1e-12`` against the
largest reference magnitude, or by true residual.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RTOL = 1e-12


def csr(coo) -> sp.csr_matrix:
    """Canonical scipy CSR (duplicates summed, indices sorted)."""
    rows, cols, vals, shape = coo
    S = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    S.sum_duplicates()
    S.sort_indices()
    return S


def same(got: np.ndarray, want: np.ndarray, exact: bool) -> Optional[str]:
    """None when ``got`` matches the reference, else what differs."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    if exact:
        if got.dtype == want.dtype and got.tobytes() == want.tobytes():
            return None
        if np.array_equal(got, want):
            return None
        bad = int(np.sum(got != want))
        return f"{bad} of {want.size} entries differ (exact comparison)"
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not np.isfinite(err) or err > RTOL * max(scale, 1.0):
        return f"max error {err:.3e} against magnitude {scale:.3e}"
    return None


def ts_lower(L: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    return spla.spsolve_triangular(L, b, lower=True)


def product_csr(A: sp.csr_matrix, B: sp.csr_matrix) -> sp.csr_matrix:
    C = (A @ B).tocsr()
    C.sum_duplicates()
    C.sort_indices()
    return C


def same_csr(rowptr, colind, values, want: sp.csr_matrix) -> Optional[str]:
    """Compare a computed CSR structure (pattern and values) exactly."""
    for got, ref, what in ((rowptr, want.indptr, "row pointer"),
                           (colind, want.indices, "column indices")):
        if not np.array_equal(np.asarray(got, dtype=np.int64),
                              ref.astype(np.int64)):
            return f"{what} differs from scipy's product"
    return same(values, want.data, exact=True)


def spgemm_mults(A: sp.csr_matrix, B: sp.csr_matrix) -> int:
    """Scalar multiplications a row-wise product performs (for flops)."""
    return int(np.diff(B.indptr)[A.indices].sum())


def residual(S: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """True relative residual, columns pooled for a block of systems."""
    return float(np.linalg.norm(b - S @ x) / np.linalg.norm(b))


def scipy_solve(method: str, S: sp.csr_matrix, b: np.ndarray,
                tol: float) -> Tuple[np.ndarray, int]:
    """The outside baseline for a solver case: (x, iterations)."""
    its = [0]

    def count(_xk):
        its[0] += 1

    fn = {"cg": spla.cg, "bicgstab": spla.bicgstab}[method]
    x, info = fn(S, b, rtol=tol, atol=0.0, callback=count)
    if info != 0:
        raise RuntimeError(f"scipy {method} did not converge (info={info})")
    return x, its[0]
