"""Hypothesis property suite (satellite): format round-trips through
``convert()`` across all 10 formats, plus a differential compile oracle
— ``compile_kernel`` output must match ``tests/oracles/dense_ref`` on
both backends.

Determinism: every fast test runs with ``derandomize=True`` so a given
checkout always draws the same example sequence (seed-reproducible CI);
the slow-marked deep variant pins an explicit ``@seed`` and buys a much
larger example/shrink budget.

Exactness: matrix and vector entries are integer-valued floats (and
dyadic triangular diagonals), so every product/sum is exact in binary
floating point regardless of accumulation order — the oracle comparison
is bitwise, not ``allclose``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.formats import FORMATS, as_format, convert
from repro.ir.kernels import mvm, ts_lower
from tests.oracles import dense_ref

ALL_FORMATS = list(FORMATS)  # all 10: dense ... sym

M, N = 6, 8  # even on both axes so bsr block_size=2 tiles exactly

FAST = settings(max_examples=20, deadline=None, derandomize=True)


def _fmt_kwargs(fmt_name):
    return {"block_size": 2} if fmt_name == "bsr" else {}


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


def int_vectors(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=float))


def lower_tri_matrices(n):
    """Lower-triangular matrices whose diagonals are powers of two and
    off-diagonals are small integers: forward substitution stays exact."""
    diag = st.lists(st.sampled_from([1.0, 2.0, 4.0, -1.0, -2.0]),
                    min_size=n, max_size=n)
    off = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                             st.integers(-3, 3)),
                   min_size=0, max_size=2 * n)
    def assemble(parts):
        d, entries = parts
        a = np.diag(np.array(d))
        for r, c, v in entries:
            if r != c:
                a[max(r, c), min(r, c)] = float(v)
        return a
    return st.tuples(diag, off).map(assemble)


def _shape(fmt_name):
    # sym stores one triangle of a symmetric matrix: square input only
    return (M, M) if fmt_name == "sym" else (M, N)


# ---------------------------------------------------------------------------
# convert() round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt_name", [f for f in ALL_FORMATS if f != "sym"])
@FAST
@given(dense_matrices(M, N))
def test_convert_round_trip(fmt_name, dense):
    """coo -> fmt -> dense and fmt -> csr -> dense preserve every value."""
    src = build("coo", dense)
    f = convert(src, fmt_name, **_fmt_kwargs(fmt_name))
    assert np.array_equal(f.to_dense(), dense)
    back = convert(f, "csr")
    assert np.array_equal(back.to_dense(), dense)


@FAST
@given(dense_matrices(M, M, symmetric=True))
def test_convert_round_trip_sym(dense):
    src = build("coo", dense)
    f = convert(src, "sym")
    assert np.array_equal(f.to_dense(), dense)
    assert np.array_equal(convert(f, "coo").to_dense(), dense)


@FAST
@given(dense_matrices(M, N))
def test_convert_chain_all_formats(dense):
    """One matrix threaded through every non-square-constrained format in
    sequence comes out intact."""
    f = as_format(dense, "dense")
    for fmt_name in ALL_FORMATS:
        if fmt_name == "sym":
            continue
        f = convert(f, fmt_name, **_fmt_kwargs(fmt_name))
        assert np.array_equal(f.to_dense(), dense), fmt_name


# ---------------------------------------------------------------------------
# differential oracle: compile_kernel vs the dense oracle, both backends
# ---------------------------------------------------------------------------

_kernels = {}


def kernel_for(fmt_name, which, backend):
    """Compile once per (format, kernel, backend); hypothesis varies data."""
    key = (fmt_name, which, backend)
    if key not in _kernels:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            if which == "mvm":
                m, n = _shape(fmt_name)
                probe = FORMATS[fmt_name].from_coo(
                    [0], [0], [1.0], (m, n), **_fmt_kwargs(fmt_name))
                _kernels[key] = compile_kernel(mvm(), {"A": probe},
                                               backend=backend)
            else:
                probe = FORMATS[fmt_name].from_coo(
                    list(range(M)), list(range(M)), [1.0] * M, (M, M))
                probe.annotate_triangular("lower")
                _kernels[key] = compile_kernel(ts_lower(), {"L": probe},
                                               backend=backend)
    return _kernels[key]


def backends():
    marks = [pytest.param("python")]
    marks.append(pytest.param(
        "c", marks=pytest.mark.skipif(be.find_compiler() is None,
                                      reason="no C compiler on PATH")))
    return marks


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@FAST
@given(st.data())
def test_mvm_matches_dense_ref(fmt_name, backend, data):
    m, n = _shape(fmt_name)
    dense = data.draw(dense_matrices(m, n, symmetric=(fmt_name == "sym")))
    x = data.draw(int_vectors(n))
    f = build(fmt_name, dense)
    y = np.full(m, 123.0)  # poison: kernel must overwrite, not accumulate
    kernel_for(fmt_name, "mvm", backend)(
        {"A": f, "x": x, "y": y}, {"m": m, "n": n})
    assert np.array_equal(y, dense_ref.mvm(dense, x))


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("fmt_name", ["csr", "jad"])
@FAST
@given(st.data())
def test_ts_matches_dense_ref(fmt_name, backend, data):
    dense = data.draw(lower_tri_matrices(M))
    b = data.draw(int_vectors(M))
    f = build(fmt_name, dense)
    f.annotate_triangular("lower")
    out = b.copy()
    kernel_for(fmt_name, "ts", backend)({"L": f, "b": out}, {"n": M})
    assert np.allclose(out, dense_ref.ts_lower(dense, b), rtol=0, atol=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@seed(20260805)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mvm_deep_budget(fmt_name, data):
    """Slow leg: 10x the example/shrink budget, fixed seed for
    reproducible failures."""
    m, n = _shape(fmt_name)
    dense = data.draw(dense_matrices(m, n, symmetric=(fmt_name == "sym")))
    x = data.draw(int_vectors(n))
    f = build(fmt_name, dense)
    y = np.zeros(m)
    kernel_for(fmt_name, "mvm", "python")(
        {"A": f, "x": x, "y": y}, {"m": m, "n": n})
    assert np.array_equal(y, dense_ref.mvm(dense, x))
