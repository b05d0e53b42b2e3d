"""Differential suite for the vectorized data plane (PR 5).

Every vectorized path — ``from_coo`` packing, ``to_coo_arrays``
extraction, ``to_dense``, the direct conversion routes, the SolverContext
triangular split — must be **byte-identical** to the per-element loop
oracles in ``tests/oracles/data_plane.py``: same array contents, same
dtypes, on raw
triples that include duplicates, out-of-order entries, empty rows and
columns, and empty matrices.

Also pins the data-plane API contracts the vectorization must not erode:
``to_coo_arrays`` returns int64 indices and C-contiguous freshly-allocated
values for all 10 formats; ``convert`` short-circuits identity
conversions; ``as_format`` performs a single conversion from scipy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import FORMATS, as_format, convert
from repro.formats.csr import CsrMatrix
from repro.instrument import INSTR
from repro.solvers.context import SolverContext, _triangular_split
from tests.oracles.data_plane import (
    reference_from_coo,
    reference_to_coo_arrays,
    reference_to_dense,
    reference_triangular_split,
)

ALL_FORMATS = list(FORMATS)

M, N = 6, 8  # even on both axes so bsr block_size=2 tiles exactly

FAST = settings(max_examples=25, deadline=None, derandomize=True)


def _fmt_kwargs(fmt_name):
    return {"block_size": 2} if fmt_name == "bsr" else {}


def _shape(fmt_name):
    return (M, M) if fmt_name == "sym" else (M, N)


def raw_triples(m, n, symmetric=False):
    """Raw (rows, cols, vals) COO input: unsorted, duplicates allowed,
    empty rows/cols common, integer-valued floats so duplicate summing is
    exact.  Symmetric variants mirror every entry."""
    entry = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.integers(-4, 4))

    def assemble(entries):
        rows = [r for r, _c, _v in entries]
        cols = [c for _r, c, _v in entries]
        vals = [float(v) for _r, _c, v in entries]
        if symmetric:
            rows, cols = rows + cols, cols + rows
            vals = vals + vals
        return (np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64),
                np.array(vals, dtype=np.float64))

    return st.lists(entry, min_size=0, max_size=3 * max(m, n)).map(assemble)


def assert_same_instance(a, b):
    """Every stored array byte-identical (contents and dtype), every
    scalar attribute equal."""
    assert type(a) is type(b)
    va, vb = vars(a), vars(b)
    assert set(va) == set(vb)
    for k, x in va.items():
        y = vb[k]
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, (k, x.dtype, y.dtype)
            assert x.shape == y.shape, (k, x.shape, y.shape)
            assert np.array_equal(x, y), k
        else:
            assert x == y, k


def assert_same_triples(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype or y.dtype == np.float64
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# vectorized vs loop-oracle, per format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt_name", [f for f in ALL_FORMATS if f != "sym"])
@FAST
@given(data=st.data())
def test_from_coo_matches_reference(fmt_name, data):
    shape = _shape(fmt_name)
    rows, cols, vals = data.draw(raw_triples(*shape))
    cls, kw = FORMATS[fmt_name], _fmt_kwargs(fmt_name)
    vec = cls.from_coo(rows, cols, vals, shape, **kw)
    ref = reference_from_coo(cls, rows, cols, vals, shape, **kw)
    assert_same_instance(vec, ref)


@FAST
@given(data=st.data())
def test_from_coo_matches_reference_sym(data):
    rows, cols, vals = data.draw(raw_triples(M, M, symmetric=True))
    cls = FORMATS["sym"]
    vec = cls.from_coo(rows, cols, vals, (M, M))
    ref = reference_from_coo(cls, rows, cols, vals, (M, M))
    assert_same_instance(vec, ref)


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@FAST
@given(data=st.data())
def test_extraction_matches_reference(fmt_name, data):
    """to_coo_arrays and to_dense against their loop oracles, from an
    instance built out of raw (possibly duplicated) triples."""
    shape = _shape(fmt_name)
    rows, cols, vals = data.draw(raw_triples(*shape,
                                             symmetric=fmt_name == "sym"))
    inst = FORMATS[fmt_name].from_coo(rows, cols, vals, shape,
                                      **_fmt_kwargs(fmt_name))
    assert_same_triples(inst.to_coo_arrays(), reference_to_coo_arrays(inst))
    assert np.array_equal(inst.to_dense(), reference_to_dense(inst))


@pytest.mark.parametrize("fmt_name", [f for f in ALL_FORMATS if f != "csr"])
@FAST
@given(data=st.data())
def test_convert_fast_path_matches_generic(fmt_name, data):
    """csr -> every other format: the direct/_from_canonical_coo routes
    produce byte-identical instances to the via-COO interchange."""
    shape = _shape(fmt_name)
    rows, cols, vals = data.draw(raw_triples(*shape,
                                             symmetric=fmt_name == "sym"))
    csr = CsrMatrix.from_coo(rows, cols, vals, shape)
    kw = _fmt_kwargs(fmt_name)
    fast = convert(csr, fmt_name, **kw)
    generic = FORMATS[fmt_name].from_coo(*csr.to_coo_arrays(), csr.shape, **kw)
    assert_same_instance(fast, generic)


@FAST
@given(data=st.data())
def test_csc_to_csr_fast_path_matches_generic(data):
    rows, cols, vals = data.draw(raw_triples(M, N))
    csc = FORMATS["csc"].from_coo(rows, cols, vals, (M, N))
    fast = convert(csc, "csr")
    generic = CsrMatrix.from_coo(*csc.to_coo_arrays(), csc.shape)
    assert_same_instance(fast, generic)


@FAST
@given(data=st.data())
def test_triangular_split_matches_reference(data):
    rows, cols, vals = data.draw(raw_triples(M, M))
    csr = CsrMatrix.from_coo(rows, cols, vals, (M, M))
    L_vec, U_vec = _triangular_split(csr)
    L_ref, U_ref = reference_triangular_split(csr)
    for vec, ref in ((L_vec, L_ref), (U_vec, U_ref)):
        bounds = (vec._bounds, ref._bounds)
        vec._bounds = ref._bounds = None
        assert_same_instance(vec, ref)
        vec._bounds, ref._bounds = bounds


@FAST
@given(data=st.data())
def test_triangular_split_non_csr_input(data):
    """The non-CSR branch (triples + masks) agrees with the CSR branch."""
    rows, cols, vals = data.draw(raw_triples(M, M))
    csr = CsrMatrix.from_coo(rows, cols, vals, (M, M))
    ell = convert(csr, "ell")
    for a, b in zip(_triangular_split(csr), _triangular_split(ell)):
        assert np.array_equal(a.to_dense(), b.to_dense())


def test_solver_diag_matches_elementwise():
    rng = np.random.default_rng(5)
    dense = np.zeros((9, 9))
    dense[rng.integers(0, 9, 20), rng.integers(0, 9, 20)] = 1.0 + np.arange(20)
    np.fill_diagonal(dense[:4, :4], 3.0)  # some diag present, some absent
    ctx = SolverContext(as_format(dense, "csr"), ops=("mvm",),
                        backend="python", register=False)
    expect = np.array([ctx.A.get(i, i) for i in range(9)])
    assert np.array_equal(ctx.diag, expect)


# ---------------------------------------------------------------------------
# index dtype / contiguity contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@pytest.mark.parametrize("empty", [False, True])
def test_to_coo_arrays_contract(fmt_name, empty):
    """int64 rows/cols, C-contiguous float64 vals, vals freshly allocated
    (mutating them never corrupts the instance) — including for empty
    matrices."""
    shape = _shape(fmt_name)
    if empty:
        dense = np.zeros(shape)
    else:
        dense = np.zeros(shape)
        dense[0, 1] = 2.0
        dense[1, 0] = 2.0
        dense[shape[0] - 1, shape[1] - 1] = -1.0
    inst = as_format(dense, fmt_name, **_fmt_kwargs(fmt_name))
    rows, cols, vals = inst.to_coo_arrays()
    assert rows.dtype == np.int64 and cols.dtype == np.int64
    assert vals.dtype == np.float64
    for a in (rows, cols, vals):
        assert a.flags["C_CONTIGUOUS"]
    if vals.size:
        vals[:] = 123.0
        assert np.array_equal(inst.to_dense(), dense)


def test_from_coo_does_not_alias_canonical_input():
    """Pre-sorted input (the dedup fast path) must still be copied into
    the instance, not aliased."""
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    vals = np.array([2.0, 2.0])  # symmetric so sym accepts the input too
    for fmt_name in ALL_FORMATS:
        shape = (2, 2)
        inst = FORMATS[fmt_name].from_coo(
            rows, cols, vals, shape, **_fmt_kwargs(fmt_name))
        before = inst.to_dense()
        vals[:] = -7.0
        assert np.array_equal(inst.to_dense(), before), fmt_name
        vals[:] = 2.0


# ---------------------------------------------------------------------------
# convert() routing
# ---------------------------------------------------------------------------

def _eye_csr(n=4):
    return as_format(np.eye(n), "csr")


def test_convert_identity_short_circuit():
    m = _eye_csr().annotate_triangular("lower")
    before = INSTR.get("format.convert.identity")
    assert convert(m, "csr") is m
    assert convert(m, CsrMatrix) is m
    assert INSTR.get("format.convert.identity") == before + 2
    assert m.bounds() is not None  # annotation untouched


def test_convert_identity_with_kwargs_rebuilds():
    m = as_format(np.eye(4), "bsr", block_size=2)
    out = convert(m, "bsr", block_size=2)
    assert out is not m
    assert np.array_equal(out.to_dense(), np.eye(4))


def test_convert_preserves_bounds_on_fast_path():
    m = _eye_csr().annotate_triangular("lower")
    out = convert(m, "csc")
    assert out.bounds() is not None


def _assert_goes_via_coo(bad, dense, targets):
    """Both fast routes — the direct transpose and ``_from_canonical_coo``
    — must decline a source that violates sorted-unique: the conversion
    counts as via-COO, not as a fast path, and is still right."""
    for target in targets:
        via_coo = INSTR.get("format.convert.via_coo")
        fastpath = INSTR.get("format.convert.fastpath")
        out = convert(bad, target)
        assert INSTR.get("format.convert.via_coo") == via_coo + 1, target
        assert INSTR.get("format.convert.fastpath") == fastpath, target
        assert np.array_equal(out.to_dense(), dense), target


def test_non_canonical_csr_falls_back_to_generic():
    """Hand-built CSR with unsorted columns inside a row."""
    bad = CsrMatrix(np.array([0, 2], dtype=np.int64),
                    np.array([2, 0], dtype=np.int64),
                    np.array([5.0, 7.0]), (1, 3))
    _assert_goes_via_coo(bad, [[7.0, 0.0, 5.0]], ("csc", "ell"))


def test_non_canonical_csc_falls_back_to_generic():
    """Hand-built CSC with unsorted rows inside a column."""
    bad = FORMATS["csc"](np.array([0, 2], dtype=np.int64),
                         np.array([2, 0], dtype=np.int64),
                         np.array([5.0, 7.0]), (3, 1))
    _assert_goes_via_coo(bad, [[7.0], [0.0], [5.0]], ("csr", "ell"))


def test_convert_instrumentation_counts_routes():
    m = _eye_csr()
    c0 = INSTR.get("format.convert.fastpath")
    p0 = INSTR.get("format.convert.csr->ell")
    convert(m, "ell")
    assert INSTR.get("format.convert.fastpath") == c0 + 1
    assert INSTR.get("format.convert.csr->ell") == p0 + 1


def test_as_format_scipy_single_conversion():
    scipy_sparse = pytest.importorskip("scipy.sparse")
    dense = np.zeros((4, 6))
    dense[0, 1] = 2.0
    dense[3, 5] = -1.0
    sp = scipy_sparse.csr_matrix(dense)
    before = INSTR.snapshot()["counters"]
    out = as_format(sp, "ell")
    after = INSTR.snapshot()["counters"]
    assert np.array_equal(out.to_dense(), dense)
    # from_scipy goes straight to from_coo: the convert() machinery (and
    # its scipy -> COO -> target double hop) must not run at all
    for key in ("format.convert.via_coo", "format.convert.fastpath"):
        assert after.get(key, 0) == before.get(key, 0)


def test_as_format_scipy_forwards_kwargs():
    scipy_sparse = pytest.importorskip("scipy.sparse")
    sp = scipy_sparse.csr_matrix(np.eye(4))
    out = as_format(sp, "bsr", block_size=2)
    assert out.format_name == "bsr"
    assert np.array_equal(out.to_dense(), np.eye(4))
