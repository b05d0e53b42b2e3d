"""Gauss–Seidel and SOR sweeps.

A Gauss–Seidel sweep is exactly a lower-triangular solve with the matrix's
lower part — the reason the paper's TS kernel matters for iterative
methods.  The implementation extracts the strictly-upper product via the
BLAS layer and forward-substitutes through the lower part.  With a
:class:`~repro.solvers.context.SolverContext` the per-iteration residual
matvec and the diagonal come from the context's bound state; the fused
relaxation sweep itself stays a Python loop (it is not a pure triangular
solve).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.formats.base import SparseFormat
from repro.formats.csr import CsrMatrix
from repro.instrument import INSTR
from repro.solvers.context import SolverContext, diagonal, resolve_matvec


def _split(A: SparseFormat) -> Tuple[CsrMatrix, CsrMatrix]:
    """(lower-including-diagonal, strictly-upper) parts, both CSR."""
    rows, cols, vals = A.to_coo_arrays()
    low = rows >= cols
    L = CsrMatrix.from_coo(rows[low], cols[low], vals[low], A.shape)
    U = CsrMatrix.from_coo(rows[~low], cols[~low], vals[~low], A.shape)
    return L, U


def gauss_seidel(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    context: Optional[SolverContext] = None,
) -> Tuple[np.ndarray, int, float]:
    """Solve ``A x = b`` with Gauss–Seidel: (L+D) x_{k+1} = b - U x_k."""
    return sor(A, b, omega=1.0, x0=x0, tol=tol, max_iter=max_iter,
               context=context)


def sor(
    A,
    b: np.ndarray,
    omega: float = 1.2,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    context: Optional[SolverContext] = None,
) -> Tuple[np.ndarray, int, float]:
    """Successive over-relaxation with parameter ``omega`` in (0, 2)."""
    if not (0.0 < omega < 2.0):
        raise ValueError("SOR requires 0 < omega < 2")
    if isinstance(A, SolverContext):
        context = A
    A, mv = resolve_matvec(A, None, context)
    n = A.nrows
    L, U = _split(A)
    diag = context.diag if context is not None else diagonal(A)
    if np.any(diag == 0.0):
        raise ValueError("SOR requires a non-zero diagonal")
    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    Ax = np.zeros(n)                       # matvec workspace, reused
    bnorm = float(np.linalg.norm(b)) or 1.0
    it = 0
    res = float("inf")
    rowptr, colind, values = L.rowptr, L.colind, L.values
    with INSTR.phase("solver.iterate"):
        while it < max_iter:
            r = b - mv(x, Ax)
            res = float(np.linalg.norm(r))
            if res <= tol * bnorm:
                break
            # forward sweep: x_i := (1-w) x_i + w/d_i * (b_i - sum_{j<i} a_ij x_j
            #                                            - sum_{j>i} a_ij x_j)
            for i in range(n):
                acc = b[i]
                for jj in range(rowptr[i], rowptr[i + 1]):
                    c = colind[jj]
                    if c < i:
                        acc -= values[jj] * x[c]
                for jj in range(U.rowptr[i], U.rowptr[i + 1]):
                    acc -= U.values[jj] * x[U.colind[jj]]
                x[i] = (1.0 - omega) * x[i] + omega * acc / diag[i]
            it += 1
    INSTR.count("solver.iterations", it)
    return x, it, res
