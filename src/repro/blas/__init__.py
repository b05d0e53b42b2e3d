"""Sparse BLAS layer: the baselines of the paper's evaluation.

- :mod:`repro.blas.specialized` — hand-written per-format kernels, raw
  index-array loops: the analog of the NIST Sparse BLAS *C* library the
  paper compares against (specialized, one routine per format/operation).
- :mod:`repro.blas.generic_` — format-agnostic kernels going through the
  abstract element/enumeration interface: the analog of the less
  specialized NIST *Fortran* library (a single code for many cases, paying
  for the generality).
- :mod:`repro.blas.api` — uniform dispatch used by the solvers.
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
from repro.blas import specialized, generic_

__all__ = [
    "mm",
    "mm_t",
    "mvm",
    "mvm_t",
    "spgemm",
    "spgemm_triples",
    "ts_lower_solve",
    "ts_upper_solve",
    "specialized",
    "generic_",
]
