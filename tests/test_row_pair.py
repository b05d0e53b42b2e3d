"""The row_pair wall: a row reduction the C schedule walks two rows at a
time gives the Python kernel's bytes, and nothing else is paired.

Edge cases run the generated Python and the paired C on the same operands
and compare values and sign bits: no rows, one row, odd row counts (the
last pair's second row is absent), empty rows, neighbours of equal length
(one shared walk) and of unequal length (one row after the other), at
both index widths.  The non-targets are the loops the transform must leave alone:
triangular solves read the target, scatters write through an index, JAD
writes through its permutation, a panel row is register_tile's, and a
loop OpenMP runs is not rewritten.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.codegen.native import lower_kernel
from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import (banded, lower_triangular_of,
                                   upper_triangular_of)
from repro.ir.kernels import ALL_KERNELS
from tests.conftest import at_width

#: row lengths of the edge-case matrices: m = 0, 1, odd and even counts,
#: empty rows, equal and unequal neighbours
ROWS = {
    "none": [],
    "one": [3],
    "one_empty": [0],
    "odd": [2, 2, 0, 5, 1],
    "even": [4, 4, 4, 4, 1, 0, 0, 3],
    "unequal": [1, 2, 3, 4, 5, 6, 7],
    "equal_odd": [5] * 9,
}

#: the (kernel, format) pairs the transform fires on, with the arrays
#: they write
TARGETS = [("mvm", "csr", "y"), ("mvm", "ell", "y"), ("row_sums", "csr", "s")]

N = 8


def _matrix(lengths, seed):
    """An m x N matrix with the given row lengths, signed zeros and
    negative values among its entries."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((len(lengths), N))
    for r, k in enumerate(lengths):
        cols = rng.choice(N, size=k, replace=False)
        dense[r, cols] = rng.choice([-0.0, 0.5, -1.25, 3.0, 1e-300], size=k)
    return dense


def _compile(kernel, bindings, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        return compile_kernel(ALL_KERNELS[kernel](), bindings, **kwargs)


@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("width", [np.int32, np.int64])
@pytest.mark.parametrize("rows", sorted(ROWS))
@pytest.mark.parametrize("kernel,fmt,out", TARGETS)
def test_paired_c_equals_python(kernel, fmt, out, rows, width):
    # compiled on one matrix, run on each (the search plans an empty
    # matrix differently, and the paired loop is what is under test)
    bound = at_width(as_format(_matrix(ROWS["odd"], seed=0), fmt), width)
    kp = _compile(kernel, {"A": bound})
    kc = _compile(kernel, {"A": bound}, backend="c")
    assert kc.backend_used == "c", kc.fallback_reason
    assert kc.native().spec.transforms == ["row_pair"]
    dense = _matrix(ROWS[rows], seed=len(ROWS[rows]))
    A = at_width(as_format(dense, fmt), width)
    m = dense.shape[0]
    x = np.random.default_rng(1).choice([-0.0, 0.0, -2.0, 0.75], size=N)
    yp, yc = np.full(m, np.nan), np.full(m, np.nan)
    for y, k in ((yp, kp), (yc, kc)):
        k({"A": A, "x": x, out: y}, {"m": m, "n": N})
    assert np.array_equal(yp, yc)
    assert np.array_equal(np.signbit(yp), np.signbit(yc))
    assert np.allclose(yp, dense @ x if kernel == "mvm" else dense.sum(1))


def _transforms(kernel, bindings, parallel="none"):
    return lower_kernel(_compile(kernel, bindings), parallel=parallel).transforms


def test_targets_fire():
    A = banded(24, bandwidth=3, seed=2)
    for kernel, fmt, _ in TARGETS:
        assert _transforms(kernel, {"A": as_format(A, fmt)}) == ["row_pair"]


@pytest.mark.parametrize("case", [
    "ts_lower.csr", "ts_upper.csr", "ts_lower_row.csr", "ts_lower.jad",
    "mvm.csc", "mvm.coo", "mvm_t.csr", "mvm.jad", "spmm.csr",
    "mvm.csr.strict", "mvm.ell.strict"])
def test_non_targets_are_left_alone(case):
    kernel, fmt, *parallel = case.split(".")
    A = banded(24, bandwidth=3, seed=2)
    if kernel.startswith("ts_"):
        upper = kernel == "ts_upper"
        part = upper_triangular_of if upper else lower_triangular_of
        T = as_format(part(A), fmt)
        T.annotate_triangular("upper" if upper else "lower")
        bindings = {"U" if upper else "L": T}
    else:
        bindings = {"A": as_format(A, fmt)}
    assert "row_pair" not in _transforms(kernel, bindings, *parallel)
