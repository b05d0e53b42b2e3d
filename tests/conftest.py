"""Shared fixtures: compiled-kernel cache (compilation is the expensive
part; tests share kernels per (kernel, format) pair) and standard matrices."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import compile_kernel
from repro.formats import as_format
from repro.formats.generate import (
    lower_triangular_of,
    random_sparse,
    upper_triangular_of,
)
from repro.ir.kernels import ALL_KERNELS

_KERNEL_CACHE = {}


def compile_cached(kernel_name: str, fmt_name: str, matrix, array_name: str,
                   **kwargs):
    """Compile (kernel, format) once per test session; the format instance
    is rebuilt per call (kernels are instance-independent for same-format
    matrices of compatible shape)."""
    key = (kernel_name, fmt_name, matrix.shape, kwargs.get("pick", "best"))
    if key not in _KERNEL_CACHE:
        prog = ALL_KERNELS[kernel_name]()
        _KERNEL_CACHE[key] = compile_kernel(prog, {array_name: matrix},
                                            **kwargs)
    return _KERNEL_CACHE[key]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260705)


@pytest.fixture(scope="session")
def small_rect():
    """6x8 random sparse matrix with an empty row (totality edge case)."""
    a = random_sparse(6, 8, density=0.3, seed=11).to_dense()
    a[3, :] = 0.0
    return a


@pytest.fixture(scope="session")
def small_square():
    return random_sparse(7, 7, density=0.3, seed=5).to_dense()


@pytest.fixture(scope="session")
def lower_tri():
    """8x8 lower-triangular matrix with full diagonal, annotated."""
    return lower_triangular_of(random_sparse(8, 8, 0.3, seed=3))


@pytest.fixture(scope="session")
def upper_tri():
    return upper_triangular_of(random_sparse(8, 8, 0.3, seed=4))


def index_arrays(inst):
    """name -> integer ndarray attribute of a format instance."""
    return {k: v for k, v in vars(inst).items()
            if isinstance(v, np.ndarray) and v.dtype.kind == "i"}


def at_width(inst, dtype):
    """A copy of ``inst`` whose index arrays were swapped for ``dtype``
    ones after construction."""
    out = copy.copy(inst)
    for name, arr in index_arrays(inst).items():
        setattr(out, name, arr.astype(dtype))
    return out


class IRKernel:
    """Just enough of a CompiledKernel for ``lower_kernel`` to lower a
    hand-built loop IR: the IR and (optionally) a parallel report."""

    def __init__(self, ir, report=None):
        self._ir, self._report = ir, report

    def loop_ir(self):
        return self._ir

    def parallel_report(self):
        return self._report


def run_ir_python(ir, arrays, params):
    """Exec the Python print of a loop IR on ``(arrays, params)``."""
    from repro.codegen.loopir import print_python
    from repro.codegen.pysource import source_to_callable

    source_to_callable(print_python(ir))(arrays, params)


def run_ir_native(ir, arrays, params, **lower_kwargs):
    """Compile the C print of a loop IR (no artifact cache) and call it;
    returns the :class:`~repro.codegen.native.NativeSpec`."""
    from repro.codegen.native import lower_kernel
    from repro.core import backend as be

    spec = lower_kernel(IRKernel(ir), **lower_kwargs)
    fn, used_omp = be.compile_native_function(spec.c_source, False, "off")
    be.NativeKernel(fn, spec, used_omp)(arrays, params)
    return spec
