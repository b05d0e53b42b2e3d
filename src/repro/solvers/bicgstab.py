"""BiCGSTAB for non-symmetric systems (van der Vorst 1992) — a second
Krylov method over the same BLAS interface, rounding out the
format-independent solver layer.  Its vector updates are the steps of
:mod:`repro.solvers.vecops`, as in :mod:`repro.solvers.cg`."""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.solvers import vecops
from repro.solvers.context import (
    SolverContext, resolve_matvec, start_vectors,
)

MatVec = Callable[[np.ndarray], np.ndarray]


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
    ctx = A if isinstance(A, SolverContext) else context
    A, mv = resolve_matvec(A, matvec, context)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    M = precond if precond is not None else (lambda v: v)

    # two distinct matvec workspaces: v must survive the t = A s_hat call
    # (it feeds the next iteration's direction update)
    v_buf = np.zeros(n)
    t_buf = np.zeros(n)
    x, r = start_vectors(b, x0, mv, t_buf)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    p = np.empty(n)
    s = np.empty(n)
    owned = [x, r, p, s, v_buf, t_buf]
    ops = None
    bnorm = float(np.linalg.norm(b)) or 1.0
    it = 0
    res = float(np.linalg.norm(r))
    with INSTR.phase("solver.iterate"):
        while it < max_iter and res > tol * bnorm:
            rho_new = float(r_hat @ r)
            if rho_new == 0.0:
                break  # breakdown: restart would be needed
            if it == 0:
                p[:] = r
            else:
                beta = (rho_new / rho) * (alpha / omega)
                ops.bicg_direction(beta, omega, p, r, v)
            rho = rho_new
            p_hat = M(p)
            v = mv(p_hat, v_buf)
            if ops is None:
                # what the caller's own callables first return must not be
                # a vector the steps write
                ops = vecops.provider(
                    ctx, n, owned,
                    ([p_hat] if precond is not None else [])
                    + ([v] if matvec is not None else []))
            denom = float(r_hat @ v)
            if denom == 0.0:
                break
            alpha = rho / denom
            ops.bicg_residual(alpha, s, r, v)
            if float(np.linalg.norm(s)) <= tol * bnorm:
                np.multiply(alpha, p_hat, out=t_buf)   # t is not needed now
                x += t_buf
                res = float(np.linalg.norm(s))
                it += 1
                break
            s_hat = M(s)
            t = mv(s_hat, t_buf)
            tt = float(t @ t)
            if tt == 0.0:
                break
            omega = float(t @ s) / tt
            ops.bicg_update(alpha, omega, x, p_hat, s_hat, r, s, t)
            res = float(np.linalg.norm(r))
            it += 1
            if omega == 0.0:
                break
    INSTR.count("solver.iterations", it)
    return x, it, res
