"""Preconditioners built from the BLAS layer — triangular solves applied
exactly where the paper's TS kernel earns its keep.

Each preconditioner optionally rides a
:class:`~repro.solvers.context.SolverContext`: when one is supplied (built
with the triangular ops), the per-application solves run through the
context's bound compiled kernels and the triangular split / diagonal are
shared instead of recomputed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blas.api import ts_lower_solve, ts_upper_solve
from repro.formats.base import SparseFormat
from repro.formats.csr import CsrMatrix
from repro.solvers.context import diagonal


class IdentityPreconditioner:
    """No-op preconditioner."""

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return r


class JacobiPreconditioner:
    """Diagonal scaling M = D."""

    def __init__(self, A: SparseFormat, context=None):
        diag = context.diag if context is not None else diagonal(A)
        if np.any(diag == 0.0):
            raise ValueError("Jacobi preconditioner needs a non-zero diagonal")
        self.inv_diag = 1.0 / diag

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return r * self.inv_diag


class TriangularPreconditioner:
    """Symmetric Gauss–Seidel preconditioner M = (L+D) D^{-1} (D+U):
    applying M^{-1} is one forward and one backward triangular solve —
    built directly on the TS kernels.  With a ``context`` carrying bound
    ``ts_lower`` / ``ts_upper`` kernels, both solves dispatch through
    them (native when the C backend is live)."""

    def __init__(self, A: SparseFormat, context=None):
        self._ctx = None
        if context is not None and context.L is not None \
                and context.U is not None:
            self._ctx = context
            self.L = context.L
            self.U = context.U
            self.diag = context.diag
        else:
            rows, cols, vals = A.to_coo_arrays()
            low = rows >= cols
            up = rows <= cols
            self.L = CsrMatrix.from_coo(rows[low], cols[low], vals[low], A.shape)
            self.L.annotate_triangular("lower")
            self.U = CsrMatrix.from_coo(rows[up], cols[up], vals[up], A.shape)
            self.U.annotate_triangular("upper")
            self.diag = diagonal(A)
        if np.any(self.diag == 0.0):
            raise ValueError("triangular preconditioner needs a non-zero diagonal")

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self._ctx is not None:
            z = self._ctx.lower_solve(r)
            z *= self.diag
            return self._ctx.upper_solve(z, in_place=True)
        z = ts_lower_solve(self.L, r)
        z = z * self.diag
        return ts_upper_solve(self.U, z)
