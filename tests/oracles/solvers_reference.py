"""``cg`` and ``bicgstab`` as they were before the vector steps became
:mod:`repro.solvers.vecops`: every update a fresh NumPy expression
(``x += alpha * p``, ``r = r - alpha * Ap``, ``p = r + beta * (p - omega *
v)``, ...) and the residual of a zero start taken with a matvec.  The
function bodies are verbatim; they are the ground truth of
``tests/test_solver_vecops.py`` (``(x, iterations, residual)`` bitwise),
and nothing under ``src/`` knows them.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.solvers.context import SolverContext, resolve_matvec

MatVec = Callable[[np.ndarray], np.ndarray]


def cg(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    matvec: Optional[MatVec] = None,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    context: Optional[SolverContext] = None,
) -> Tuple[np.ndarray, int, float]:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    Returns ``(x, iterations, final_residual_norm)``.  ``A`` may be a
    format instance (default BLAS matvec), a :class:`SolverContext`, or
    anything if ``matvec`` is given explicitly.
    """
    A, mv = resolve_matvec(A, matvec, context)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    Ap = np.zeros(n)                      # matvec workspace, reused each iteration
    r = b - mv(x, Ap)
    z = precond(r) if precond else r
    p = z.copy()
    rz = float(r @ z)
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b)) or 1.0
    it = 0
    with INSTR.phase("solver.iterate"):
        while it < max_iter:
            rnorm = float(np.linalg.norm(r))
            if rnorm <= tol * bnorm:
                break
            Ap = mv(p, Ap)
            denom = float(p @ Ap)
            if denom == 0.0:
                break
            alpha = rz / denom
            x += alpha * p
            r = r - alpha * Ap
            z = precond(r) if precond else r
            rz_new = float(r @ z)
            beta = rz_new / rz if rz != 0 else 0.0
            rz = rz_new
            p = z + beta * p
            it += 1
    INSTR.count("solver.iterations", it)
    return x, it, float(np.linalg.norm(r))


def bicgstab(
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    matvec: Optional[MatVec] = None,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    context: Optional[SolverContext] = None,
) -> Tuple[np.ndarray, int, float]:
    """Solve ``A x = b``; returns (x, iterations, final residual norm)."""
    A, mv = resolve_matvec(A, matvec, context)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    if max_iter is None:
        max_iter = 10 * n
    M = precond if precond is not None else (lambda v: v)

    # two distinct matvec workspaces: v must survive the t = A s_hat call
    # (it feeds the next iteration's direction update)
    v_buf = np.zeros(n)
    t_buf = np.zeros(n)
    r = b - mv(x, t_buf)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    bnorm = float(np.linalg.norm(b)) or 1.0
    it = 0
    res = float(np.linalg.norm(r))
    with INSTR.phase("solver.iterate"):
        while it < max_iter and res > tol * bnorm:
            rho_new = float(r_hat @ r)
            if rho_new == 0.0:
                break  # breakdown: restart would be needed
            if it == 0:
                p = r.copy()
            else:
                beta = (rho_new / rho) * (alpha / omega)
                p = r + beta * (p - omega * v)
            rho = rho_new
            p_hat = M(p)
            v = mv(p_hat, v_buf)
            denom = float(r_hat @ v)
            if denom == 0.0:
                break
            alpha = rho / denom
            s = r - alpha * v
            if float(np.linalg.norm(s)) <= tol * bnorm:
                x = x + alpha * p_hat
                r = s
                res = float(np.linalg.norm(r))
                it += 1
                break
            s_hat = M(s)
            t = mv(s_hat, t_buf)
            tt = float(t @ t)
            if tt == 0.0:
                break
            omega = float(t @ s) / tt
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            res = float(np.linalg.norm(r))
            it += 1
            if omega == 0.0:
                break
    INSTR.count("solver.iterations", it)
    return x, it, res
