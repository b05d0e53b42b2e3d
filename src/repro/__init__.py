"""repro — a reproduction of "A Framework for Sparse Matrix Code Synthesis
from High-level Specifications" (Ahmed, Mateev, Pingali, Stodghill, SC 2000):
the Bernoulli sparse compiler.

Quickstart::

    import numpy as np
    from repro import compile_kernel, kernels, as_format

    A = as_format(np.array([[2., 0.], [1., 3.]]), "csr")
    k = compile_kernel(kernels.mvm(), {"A": A})
    x = np.array([1., 1.]); y = np.zeros(2)
    k({"A": A, "x": x, "y": y}, {"m": 2, "n": 2})

Public surface:

- :func:`compile_kernel` / :class:`CompiledKernel` — the compiler;
- :func:`compile_many` / :class:`BatchResult` — the batch driver with
  per-item failure isolation;
- :class:`CompileServer` / :class:`ServiceClient` — the
  compilation-as-a-service daemon and its RPC client (one warm cache
  serving a fleet; ``python -m repro.core.daemon --socket ...``);
- :mod:`repro.ir` (and :mod:`repro.ir.kernels` as ``repro.kernels``) — the
  dense-program high-level API;
- :mod:`repro.formats` — formats and their declarations, I/O, generators
  (``as_format`` / ``convert`` re-exported here);
- :mod:`repro.blas` — the plain BLAS calls (each binds the compiler's
  kernel to its matrix on first use) and SpGEMM;
- :mod:`repro.solvers` — format-independent iterative methods, plus
  :class:`~repro.solvers.context.SolverContext` (re-exported here): one-time
  kernel setup so every solver iteration runs through compiled (optionally
  native) kernels with reused workspaces.
"""

from repro.core.compiler import CompiledKernel, compile_kernel
from repro.core.service import BatchResult, CompileOutcome, compile_many
from repro.formats.convert import as_format, convert
from repro.ir import parse_program, program_to_text, execute_dense
from repro.ir import kernels
from repro.search.format_select import select_format
from repro.solvers.context import SolverContext

# lazy (PEP 562) so `python -m repro.core.daemon` doesn't re-execute an
# already-imported module and plain `import repro` stays socket-free
_LAZY = {
    "CompileServer": "repro.core.daemon",
    "ServiceClient": "repro.core.client",
}


def __getattr__(name):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(modname), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "CompiledKernel",
    "compile_kernel",
    "BatchResult",
    "CompileOutcome",
    "compile_many",
    "CompileServer",
    "ServiceClient",
    "as_format",
    "convert",
    "parse_program",
    "program_to_text",
    "execute_dense",
    "kernels",
    "select_format",
    "SolverContext",
    "__version__",
]
