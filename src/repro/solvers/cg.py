"""Conjugate gradients on sparse formats.

Written once against a matrix-vector-product callable: the PETSc-style
format-independent iterative method of the paper's introduction.  The
``matvec`` argument defaults to the BLAS dispatch; a
:class:`~repro.solvers.context.SolverContext` (passed as ``context=`` or
directly in the ``A`` position) routes every iteration through its bound
compiled kernels, and a compiled kernel also slots in directly as
``matvec`` (see ``examples/fem_cg.py``).  The vector updates between the
matvec and the dot products are the steps of :mod:`repro.solvers.vecops`:
in place on vectors allocated once per solve, as generated C when the
context runs ``mvm`` natively and as NumPy otherwise, bitwise the same.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.solvers import vecops
from repro.solvers.context import (
    SolverContext, resolve_matvec, start_vectors,
)

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
    ctx = A if isinstance(A, SolverContext) else context
    A, mv = resolve_matvec(A, matvec, context)
    n = b.shape[0]
    Ap = np.zeros(n)                      # matvec workspace, reused each iteration
    x, r = start_vectors(b, x0, mv, Ap)
    z = precond(r) if precond else r
    p = np.array(z, dtype=float)
    owned = [x, r, p, Ap]
    ops = None
    rz = float(r @ z)
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b)) or 1.0
    it = 0
    with INSTR.phase("solver.iterate"):
        while it < max_iter:
            # without a preconditioner z is r, and rz already is the dot
            # product norm(r) would take the root of
            rnorm = float(np.linalg.norm(r)) if precond else math.sqrt(rz)
            if rnorm <= tol * bnorm:
                break
            Ap = mv(p, Ap)
            if ops is None:
                # what the caller's own callables first return must not be
                # a vector the steps write
                ops = vecops.provider(
                    ctx, n, owned,
                    ([z] if precond else [])
                    + ([Ap] if matvec is not None else []))
            denom = float(p @ Ap)
            if denom == 0.0:
                break
            alpha = rz / denom
            ops.cg_update(alpha, x, p, r, Ap)
            z = precond(r) if precond else r
            rz_new = float(r @ z)
            beta = rz_new / rz if rz != 0 else 0.0
            rz = rz_new
            ops.cg_direction(beta, p, z)
            it += 1
    INSTR.count("solver.iterations", it)
    return x, it, float(np.linalg.norm(r))
