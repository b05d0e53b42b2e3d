"""Differential test wall around the SpMM workload family (satellite):
compiled ``spmm`` must match the dense ``tests/oracles/dense_ref.mm``
oracle over all 10 formats x {python, c} backends, bitwise.

Exactness: matrix and panel entries are integer-valued floats, so every
product/sum is exact in binary floating point regardless of accumulation
order — the oracle comparison is bitwise, not ``allclose``.  Because both
backends equal the oracle bitwise, they are also byte-identical to each
other; an explicit cross-backend test asserts that directly.

The deterministic edge cases cover what hypothesis rarely draws: the
all-zero matrix, empty rows, duplicate COO triples (summed on
construction), and Fortran-ordered / non-contiguous panels exercising the
native 2-D contiguity-coercion path (copy in, write back out).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.formats import FORMATS
from repro.formats.csr import CsrMatrix
from repro.ir.kernels import spmm, spmm_t
from tests.oracles import dense_ref

ALL_FORMATS = list(FORMATS)  # all 10: dense ... sym

M, N = 6, 8  # even on both axes so bsr block_size=2 tiles exactly
WIDTHS = (1, 3, 8)

FAST = settings(max_examples=20, deadline=None, derandomize=True)


def _fmt_kwargs(fmt_name):
    return {"block_size": 2} if fmt_name == "bsr" else {}


def _shape(fmt_name):
    # sym stores one triangle of a symmetric matrix: square input only
    return (M, M) if fmt_name == "sym" else (M, N)


def build(fmt_name, dense):
    rows, cols = np.nonzero(dense)
    return FORMATS[fmt_name].from_coo(rows, cols, dense[rows, cols],
                                      dense.shape, **_fmt_kwargs(fmt_name))


def _to_dense(entries, m, n, symmetric):
    a = np.zeros((m, n))
    for r, c, v in entries:
        a[r, c] = float(v)
    if symmetric:
        low = np.tril(a)
        a = low + low.T - np.diag(np.diag(a))
    return a


def dense_matrices(m, n, symmetric=False):
    """Sparse m-by-n ndarrays with integer-valued float entries."""
    entry = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.integers(-4, 4))
    return st.lists(entry, min_size=0, max_size=3 * max(m, n)).map(
        lambda es: _to_dense(es, m, n, symmetric))


def int_panels(n):
    """Dense n-by-k panels (k drawn from WIDTHS) with integer-valued
    float entries."""
    def panel(k):
        return st.lists(st.integers(-3, 3), min_size=n * k,
                        max_size=n * k).map(
            lambda xs: np.array(xs, dtype=float).reshape(n, k))
    return st.sampled_from(WIDTHS).flatmap(panel)


_kernels = {}


def kernel_for(fmt_name, which, backend):
    """Compile once per (format, kernel, backend); hypothesis varies data."""
    key = (fmt_name, which, backend)
    if key not in _kernels:
        m, n = _shape(fmt_name)
        probe = FORMATS[fmt_name].from_coo(
            [0], [0], [1.0], (m, n), **_fmt_kwargs(fmt_name))
        prog = spmm() if which == "spmm" else spmm_t()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            _kernels[key] = compile_kernel(prog, {"A": probe},
                                           backend=backend)
    return _kernels[key]


def backends():
    marks = [pytest.param("python")]
    marks.append(pytest.param(
        "c", marks=pytest.mark.skipif(be.find_compiler() is None,
                                      reason="no C compiler on PATH")))
    return marks


# ---------------------------------------------------------------------------
# differential oracle: compiled spmm vs the dense oracle, both backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@FAST
@given(st.data())
def test_spmm_matches_dense_ref(fmt_name, backend, data):
    m, n = _shape(fmt_name)
    dense = data.draw(dense_matrices(m, n, symmetric=(fmt_name == "sym")))
    X = data.draw(int_panels(n))
    k = X.shape[1]
    f = build(fmt_name, dense)
    Y = np.full((m, k), 123.0)  # poison: kernel must overwrite
    kernel_for(fmt_name, "spmm", backend)(
        {"A": f, "X": X, "Y": Y}, {"m": m, "n": n, "k": k})
    assert np.array_equal(Y, dense_ref.mm(dense, X))


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("fmt_name", ["csr", "csc", "coo"])
@FAST
@given(st.data())
def test_spmm_t_matches_dense_ref(fmt_name, backend, data):
    m, n = _shape(fmt_name)
    dense = data.draw(dense_matrices(m, n))
    X = data.draw(int_panels(m))
    k = X.shape[1]
    f = build(fmt_name, dense)
    Y = np.full((n, k), 123.0)
    kernel_for(fmt_name, "spmm_t", backend)(
        {"A": f, "X": X, "Y": Y}, {"m": m, "n": n, "k": k})
    assert np.array_equal(Y, dense_ref.mm_t(dense, X))


@pytest.mark.skipif(be.find_compiler() is None,
                    reason="no C compiler on PATH")
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@FAST
@given(st.data())
def test_spmm_backends_byte_identical(fmt_name, data):
    """python and c kernel outputs for the same inputs are bitwise equal
    (both are exact on integer data, hence equal to each other)."""
    m, n = _shape(fmt_name)
    dense = data.draw(dense_matrices(m, n, symmetric=(fmt_name == "sym")))
    X = data.draw(int_panels(n))
    k = X.shape[1]
    f = build(fmt_name, dense)
    Yp = np.full((m, k), 123.0)
    Yc = np.full((m, k), 321.0)
    kernel_for(fmt_name, "spmm", "python")(
        {"A": f, "X": X, "Y": Yp}, {"m": m, "n": n, "k": k})
    kernel_for(fmt_name, "spmm", "c")(
        {"A": f, "X": X, "Y": Yc}, {"m": m, "n": n, "k": k})
    assert np.array_equal(Yp, Yc)


# ---------------------------------------------------------------------------
# deterministic edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", backends())
def test_spmm_empty_matrix(backend):
    """nnz = 0: the kernel must still zero the poisoned output."""
    f = CsrMatrix.from_dense(np.zeros((M, N)))
    X = np.ones((N, 3))
    Y = np.full((M, 3), 123.0)
    kernel_for("csr", "spmm", backend)(
        {"A": f, "X": X, "Y": Y}, {"m": M, "n": N, "k": 3})
    assert np.array_equal(Y, np.zeros((M, 3)))


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("fmt_name", ["csr", "jad", "ell"])
def test_spmm_empty_rows(fmt_name, backend):
    """Interior and trailing empty rows produce zero output rows."""
    dense = np.zeros((M, N))
    dense[0, 1] = 2.0
    dense[3, 0] = -1.0
    dense[3, 7] = 4.0  # rows 1, 2, 4, 5 empty
    X = np.arange(N * 3, dtype=float).reshape(N, 3)
    f = build(fmt_name, dense)
    Y = np.full((M, 3), 123.0)
    kernel_for(fmt_name, "spmm", backend)(
        {"A": f, "X": X, "Y": Y}, {"m": M, "n": N, "k": 3})
    assert np.array_equal(Y, dense_ref.mm(dense, X))


@pytest.mark.parametrize("backend", backends())
def test_spmm_duplicate_coo_triples(backend):
    """from_coo sums duplicate coordinates; SpMM sees the summed value."""
    rows = np.array([0, 0, 2, 2, 2, 5])
    cols = np.array([1, 1, 3, 3, 3, 0])
    vals = np.array([1.0, 2.0, 4.0, -1.0, 1.0, 3.0])
    f = CsrMatrix.from_coo(rows, cols, vals, (M, N))
    dense = np.zeros((M, N))
    np.add.at(dense, (rows, cols), vals)
    X = np.arange(N * 2, dtype=float).reshape(N, 2)
    Y = np.full((M, 2), 123.0)
    kernel_for("csr", "spmm", backend)(
        {"A": f, "X": X, "Y": Y}, {"m": M, "n": N, "k": 2})
    assert np.array_equal(Y, dense_ref.mm(dense, X))


def test_spmm_empty_panel_k0():
    """k = 0 through the functional API: a (n, 0) panel yields a (m, 0)
    result from every tier (regression: the kernel path was invoked with
    a zero-width panel and a degenerate workspace could be cached)."""
    from repro.blas import api as blas_api

    dense = np.zeros((M, N))
    dense[2, 3] = 5.0
    f = build("csr", dense)
    Y = blas_api.mm(f, np.zeros((N, 0)))
    assert Y.shape == (M, 0)
    Yt = blas_api.mm_t(f, np.zeros((M, 0)))
    assert Yt.shape == (N, 0)
    # caller-provided (m, 0) buffer is returned as-is
    buf = np.zeros((M, 0))
    assert blas_api.mm(f, np.zeros((N, 0)), buf) is buf


@pytest.mark.skipif(be.find_compiler() is None,
                    reason="no C compiler on PATH")
@pytest.mark.parametrize("order", ["fortran", "strided"])
def test_spmm_noncontiguous_panels_native(order):
    """Fortran-ordered and strided panels exercise the native 2-D
    contiguity coercion: X is copied in, the written Y copied back out."""
    rng = np.random.default_rng(7)
    dense = np.round(rng.random((M, N)) * 4)
    dense[dense < 2] = 0.0
    f = build("csr", dense)
    kern = kernel_for("csr", "spmm", "c")
    if order == "fortran":
        X = np.asfortranarray(np.round(rng.random((N, 4)) * 3))
        Y = np.asfortranarray(np.full((M, 4), 123.0))
    else:
        Xw = np.round(rng.random((N, 8)) * 3)
        X = Xw[:, ::2]                       # non-contiguous view
        Y = np.full((M, 8), 123.0)[:, ::2]
    assert not X.flags.c_contiguous
    kern({"A": f, "X": X, "Y": Y}, {"m": M, "n": N, "k": 4})
    assert np.array_equal(np.ascontiguousarray(Y), dense_ref.mm(dense, X))


# ---------------------------------------------------------------------------
# slow leg: 10x example budget, fixed seed
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@seed(20260808)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spmm_deep_budget(fmt_name, data):
    """Slow leg: 200 examples per format, fixed seed for reproducible
    failures."""
    m, n = _shape(fmt_name)
    dense = data.draw(dense_matrices(m, n, symmetric=(fmt_name == "sym")))
    X = data.draw(int_panels(n))
    k = X.shape[1]
    f = build(fmt_name, dense)
    Y = np.full((m, k), 123.0)
    kernel_for(fmt_name, "spmm", "python")(
        {"A": f, "X": X, "Y": Y}, {"m": m, "n": n, "k": k})
    assert np.array_equal(Y, dense_ref.mm(dense, X))
