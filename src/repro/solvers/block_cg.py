"""Blocked conjugate gradients: k right-hand sides per SpMM.

Each column follows exactly the same trajectory as an independent
:func:`repro.solvers.cg.cg` run — same update order, same stopping rules,
per-column step lengths (this is *batched* CG, not the coupled block-CG of
O'Leary that shares one Krylov space across columns).  What the batching
buys is the memory traffic: one SpMM per iteration reads the matrix once
for all k columns instead of k times, which is where the multi-RHS
speedup lives.

The columns-match-cg property is bitwise, not approximate, on a fixed
backend: every reduction (``r @ z``, ``p @ Ap``, ``norm(r)``) is taken
over a contiguous vector just as ``cg`` takes it, and every vector update
applies the same scalar in the same order.  To keep the per-column
vectors contiguous the block state is stored transposed — ``(k, n)``
row-major, one contiguous row per right-hand side — and repacked to the
``(n, k)`` panel layout only around the SpMM call.  A column that hits
its stopping rule is frozen (its updates stop) while the rest of the
block keeps iterating, exactly as its independent run would have
stopped.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.solvers.context import SolverContext, resolve_matmat

MatMat = Callable[[np.ndarray], np.ndarray]


def block_cg(
    A,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    matmat: Optional[MatMat] = None,
    context: Optional[SolverContext] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``A X = B`` column-by-column for symmetric positive-definite
    ``A``, with one SpMM per iteration serving every still-active column.

    ``B`` is ``(n, k)`` (a 1-D ``b`` is treated as ``k=1``).  Returns
    ``(X, iterations, final_residual_norms)`` where ``iterations`` and
    ``final_residual_norms`` are per-column arrays; column ``j`` of every
    output is bitwise what ``cg(A, B[:, j], ...)`` returns on the same
    backend.
    """
    B = np.asarray(B, dtype=float)
    squeeze = B.ndim == 1
    if squeeze:
        B = B[:, None]
    n, k = B.shape
    if max_iter is None:
        max_iter = 10 * n
    A, mm = resolve_matmat(A, matmat, context)

    # transposed (k, n) state: row j is column j's contiguous cg vector
    Bt = np.ascontiguousarray(B.T)
    if X0 is None:
        Xt = np.zeros((k, n))
    else:
        X0 = np.asarray(X0, dtype=float)
        Xt = np.array((X0[:, None] if X0.ndim == 1 else X0).T, order="C")
    panel = np.empty((n, k))                 # (n, k) SpMM operand workspace
    APt = np.empty((k, n))

    def mm_t(Vt: np.ndarray) -> np.ndarray:
        """One SpMM over the whole block: (k, n) in, (k, n) out."""
        panel[...] = Vt.T
        APt[...] = mm(panel, None).T
        return APt

    # on a zero start B - A 0 is B, without the SpMM
    Rt = Bt.copy() if X0 is None else Bt - mm_t(Xt)
    Zt = Rt
    Pt = Zt.copy()
    rz = np.array([float(Rt[j] @ Zt[j]) for j in range(k)])
    bnorm = np.array([float(np.linalg.norm(Bt[j])) or 1.0 for j in range(k)])
    iters = np.zeros(k, dtype=np.int64)
    resnorm = np.zeros(k)
    active = np.ones(k, dtype=bool)
    it = 0
    with INSTR.phase("solver.iterate"):
        while it < max_iter and active.any():
            for j in np.flatnonzero(active):
                rnorm = float(np.linalg.norm(Rt[j]))
                if rnorm <= tol * bnorm[j]:
                    active[j] = False
                    resnorm[j] = rnorm
            if not active.any():
                break
            mm_t(Pt)
            alpha = np.zeros(k)
            for j in np.flatnonzero(active):
                denom = float(Pt[j] @ APt[j])
                if denom == 0.0:
                    active[j] = False
                    resnorm[j] = float(np.linalg.norm(Rt[j]))
                    continue
                alpha[j] = rz[j] / denom
            act = active
            Xt[act] += alpha[act, None] * Pt[act]
            Rt[act] = Rt[act] - alpha[act, None] * APt[act]
            Zt = Rt
            for j in np.flatnonzero(act):
                rz_new = float(Rt[j] @ Zt[j])
                beta = rz_new / rz[j] if rz[j] != 0 else 0.0
                rz[j] = rz_new
                Pt[j] = Zt[j] + beta * Pt[j]
            iters[act] += 1
            it += 1
    for j in np.flatnonzero(active):        # max_iter exhausted
        resnorm[j] = float(np.linalg.norm(Rt[j]))
    INSTR.count("solver.iterations", int(iters.sum()))
    X = np.ascontiguousarray(Xt.T)
    if squeeze:
        return X[:, 0], iters[0], resnorm[0]
    return X, iters, resnorm
