"""Property-based end-to-end tests: random matrices and vectors through
compiled kernels must match NumPy, for every backend.

Kernels are compiled once per (kernel, format) and reused across examples
(shapes are fixed; data varies), so hypothesis exercises the *data* space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_kernel
from repro.formats import FORMATS, as_format
from repro.ir.kernels import mvm, ts_lower
from tests.oracles.plan_interp import run_plan

M, N = 6, 8
_kernels = {}


def kernel_for(fmt_name, which):
    key = (fmt_name, which)
    if key not in _kernels:
        if which == "mvm":
            probe = FORMATS[fmt_name].from_coo([0], [0], [1.0], (M, N))
            _kernels[key] = compile_kernel(mvm(), {"A": probe})
        else:
            probe = FORMATS[fmt_name].from_coo(
                list(range(M)), list(range(M)), [1.0] * M, (M, M))
            probe.annotate_triangular("lower")
            _kernels[key] = compile_kernel(ts_lower(), {"L": probe})
    return _kernels[key]


entries6x8 = st.lists(
    st.tuples(st.integers(0, M - 1), st.integers(0, N - 1),
              st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-3)),
    min_size=0, max_size=25)


@settings(max_examples=20, deadline=None)
@given(entries6x8, st.lists(st.floats(-3, 3, allow_nan=False),
                            min_size=N, max_size=N))
@pytest.mark.parametrize("fmt_name", ["csr", "coo", "jad", "dia"])
def test_mvm_matches_numpy(fmt_name, entries, xs):
    dense = np.zeros((M, N))
    uniq = {}
    for r, c, v in entries:
        uniq[(r, c)] = v
    for (r, c), v in uniq.items():
        dense[r, c] = v
    f = FORMATS[fmt_name].from_coo(
        [k[0] for k in uniq], [k[1] for k in uniq], list(uniq.values()), (M, N))
    x = np.array(xs)
    y = np.full(M, 123.0)
    k = kernel_for(fmt_name, "mvm")
    k({"A": f, "x": x, "y": y}, {"m": M, "n": N})
    assert np.allclose(y, dense @ x, atol=1e-9)


lower_entries = st.lists(
    st.tuples(st.integers(0, M - 1), st.integers(0, M - 1),
              st.floats(0.5, 3.0)),
    min_size=0, max_size=15)


@settings(max_examples=20, deadline=None)
@given(lower_entries, st.lists(st.floats(-2, 2, allow_nan=False),
                               min_size=M, max_size=M))
@pytest.mark.parametrize("fmt_name", ["csr", "csc", "jad"])
def test_ts_matches_scipy(fmt_name, entries, bs):
    import scipy.linalg as sla

    uniq = {(max(r, c), min(r, c)): v for r, c, v in entries}
    for i in range(M):
        uniq[(i, i)] = 4.0 + i  # strong diagonal
    f = FORMATS[fmt_name].from_coo(
        [k[0] for k in uniq], [k[1] for k in uniq], list(uniq.values()), (M, M))
    f.annotate_triangular("lower")
    b = np.array(bs)
    out = b.copy()
    k = kernel_for(fmt_name, "ts")
    k({"L": f, "b": out}, {"n": M})
    dense = f.to_dense()
    expect = sla.solve_triangular(dense, b, lower=True)
    assert np.allclose(out, expect, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(entries6x8)
def test_interpreter_and_generated_agree(entries):
    """Whatever the data, both backends produce bit-identical results (same
    operations in the same order)."""
    uniq = {}
    for r, c, v in entries:
        uniq[(r, c)] = v
    f1 = FORMATS["csr"].from_coo([k[0] for k in uniq], [k[1] for k in uniq],
                                 list(uniq.values()), (M, N))
    f2 = f1.copy()
    x = np.linspace(-1, 1, N)
    y1 = np.zeros(M)
    y2 = np.zeros(M)
    k = kernel_for("csr", "mvm")
    run_plan(k.plan, {"A": f1, "x": x, "y": y1}, {"m": M, "n": N})
    k({"A": f2, "x": x, "y": y2}, {"m": M, "n": N})
    assert np.array_equal(y1, y2)
