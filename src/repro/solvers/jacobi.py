"""Jacobi iteration: x_{k+1} = D^{-1} (b - (A - D) x_k)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.solvers.context import SolverContext, diagonal, resolve_matvec


def jacobi(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    context: Optional[SolverContext] = None,
) -> Tuple[np.ndarray, int, float]:
    """Solve ``A x = b`` by Jacobi sweeps (requires non-zero diagonal and
    convergence conditions such as diagonal dominance).  Returns
    ``(x, iterations, final_residual_norm)``."""
    if isinstance(A, SolverContext):
        context = A
    A, mv = resolve_matvec(A, None, context)
    n = A.nrows
    diag = context.diag if context is not None else diagonal(A)
    if np.any(diag == 0.0):
        raise ValueError("Jacobi requires a non-zero diagonal")
    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    Ax = np.zeros(n)                       # matvec workspace, reused
    bnorm = float(np.linalg.norm(b)) or 1.0
    it = 0
    res = float("inf")
    with INSTR.phase("solver.iterate"):
        while it < max_iter:
            Ax = mv(x, Ax)
            r = b - Ax
            res = float(np.linalg.norm(r))
            if res <= tol * bnorm:
                break
            x = x + r / diag
            it += 1
    INSTR.count("solver.iterations", it)
    return x, it, res
