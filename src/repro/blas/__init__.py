"""Sparse BLAS layer: the compiler's kernels behind a plain functional API.

- :mod:`repro.blas.api` — ``mvm``, ``mvm_t``, ``mm``, ``mm_t``,
  ``ts_lower_solve``, ``ts_upper_solve``: the first call on a matrix
  compiles the operation for it and binds the kernel as the matrix's
  handle, which every later call dispatches through (the layer the
  iterative solvers of :mod:`repro.solvers` call).  ``spgemm`` has its own
  tiers.
- :mod:`repro.blas.generic_` — format-agnostic kernels going through the
  abstract element/enumeration interface: the analog of the less
  specialized NIST *Fortran* library the paper compares against (a single
  code for many cases, paying for the generality), and what a call runs
  for a pair the compiler has no plan for.

The hand-written per-format kernels, the analog of the NIST Sparse BLAS
*C* library, are a test oracle (``tests/oracles/hand_blas.py``), not part
of the library.
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
from repro.blas import generic_

__all__ = [
    "mm",
    "mm_t",
    "mvm",
    "mvm_t",
    "spgemm",
    "spgemm_triples",
    "ts_lower_solve",
    "ts_upper_solve",
    "generic_",
]
