"""Iterative methods built on the sparse BLAS layer.

These are the format-independent high-level codes of the paper's Section 1
story: written once against the BLAS interface (or against a compiled
kernel), usable with any format.
"""

from repro.blas.api import ALL_OPS, BoundOp
from repro.solvers.context import SolverContext
from repro.solvers.bicgstab import bicgstab
from repro.solvers.block_cg import block_cg
from repro.solvers.cg import cg
from repro.solvers.jacobi import jacobi
from repro.solvers.sor import gauss_seidel, sor
from repro.solvers.power import power_method, pagerank
from repro.solvers.gmres import gmres
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    TriangularPreconditioner,
)

__all__ = [
    "ALL_OPS",
    "BoundOp",
    "SolverContext",
    "bicgstab",
    "block_cg",
    "cg",
    "jacobi",
    "gauss_seidel",
    "sor",
    "power_method",
    "pagerank",
    "gmres",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "TriangularPreconditioner",
]
