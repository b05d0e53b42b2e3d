"""Sparse BLAS layer: the compiler's kernels behind a plain functional API.

:mod:`repro.blas.api` — ``mvm``, ``mvm_t``, ``mm``, ``mm_t``,
``ts_lower_solve``, ``ts_upper_solve``: the first call on a matrix
compiles the operation for it (for its CSR image when the search has no
plan for its format) and binds the kernel as the matrix's handle, which
every later call dispatches through (the layer the iterative solvers of
:mod:`repro.solvers` call).  ``spgemm`` runs a native CSR×CSR kernel, on
the operands' CSR images for any other format.

The hand-written per-format kernels and the format-agnostic ones — the
analogs of the NIST Sparse BLAS *C* and *Fortran* libraries the paper
compares against — are test oracles (``tests/oracles/hand_blas.py``,
``tests/oracles/generic_blas.py``), not part of the library.
"""

from repro.blas.api import (
    mm,
    mm_t,
    mvm,
    mvm_t,
    spgemm,
    spgemm_triples,
    ts_lower_solve,
    ts_upper_solve,
)

__all__ = [
    "mm",
    "mm_t",
    "mvm",
    "mvm_t",
    "spgemm",
    "spgemm_triples",
    "ts_lower_solve",
    "ts_upper_solve",
]
