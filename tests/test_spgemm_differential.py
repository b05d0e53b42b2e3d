"""Differential test wall around SpGEMM: the sparse×sparse product with
*computed* output structure must match the dense
``blas/dense_ref.spgemm`` oracle over every format pair through the
generic tier, and the three dispatch tiers (native / vectorized /
generic) must be byte-for-byte identical on CSR×CSR — rowptr, colind and
values arrays, not just the reconstructed dense matrix.  The default
path (``tier=None``) is the native kernel wherever a toolchain exists
and an observable fallback onto the vectorized tier where none does
(the no-toolchain CI leg runs this file with ``REPRO_CC=none``); every
CSR×CSR case below goes through it and asserts which of the two served.

Exactness: entries are integer-valued floats, so every product/sum is
exact in binary floating point regardless of accumulation order — the
oracle comparison is bitwise, not ``allclose``.

The canonical-output contract the wall pins: rows sorted, columns sorted
within rows, duplicates summed, and *numerically cancelled* entries kept
as stored zeros (the computed pattern is structural — a slot two products
sum to zero in is still a slot, in every tier).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.blas import dense_ref
from repro.blas.api import spgemm, spgemm_triples
from repro.blas.spgemm_native import RADIX_MIN, SWEEP_SPAN
from repro.core import NativeBackendWarning
from repro.core import backend as be
from repro.formats import FORMATS
from repro.formats.coo import CooMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.generate import power_law_rows
from repro.instrument import INSTR

ALL_FORMATS = list(FORMATS)  # all 10: dense ... sym

N = 6  # square and even: every format (sym, bsr block_size=2) applies

FAST = settings(max_examples=20, deadline=None, derandomize=True)

TIERS = ("native", "vectorized", "generic")


def _served(fn, *args, tier=None, **kwargs):
    """Call ``fn(*args, tier=tier)`` and, for the default and native
    tiers, assert who served it: the native kernel when a toolchain
    exists, the counted + warned fallback when none does."""
    native = INSTR.get("spgemm.tier.native")
    fallbacks = INSTR.get("spgemm.tier.native_fallbacks")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, tier=tier, **kwargs)
    warned = any(issubclass(w.category, NativeBackendWarning) for w in caught)
    if tier in (None, "native"):
        have_cc = be.find_compiler() is not None
        assert INSTR.get("spgemm.tier.native") == native + have_cc
        assert (INSTR.get("spgemm.tier.native_fallbacks")
                == fallbacks + (not have_cc))
        assert warned == (not have_cc)
    else:
        assert INSTR.get("spgemm.tier.native") == native and not warned
    return out


def _assert_same_on_every_tier(A, B, ref):
    """native = vectorized = generic = default, array for array —
    triples, multiplication count and the packed CSR — against the dense
    oracle ``ref``; the packed result owns canonical arrays."""
    want = _served(spgemm_triples, A, B, tier="vectorized")
    for tier in ("native", "generic", None):
        got = _served(spgemm_triples, A, B, tier=tier)
        for g, w in zip(got[:3], want[:3]):
            assert g.dtype == w.dtype and np.array_equal(g, w), tier
        assert got[3] == want[3], tier
    for tier in TIERS + (None,):
        C = _served(spgemm, A, B, tier=tier)
        assert type(C) is CsrMatrix and C.shape == ref.shape
        assert np.array_equal(C.to_dense(), ref), tier
        assert np.array_equal(C.colind, want[1])
        assert C.values.tobytes() == np.ascontiguousarray(want[2]).tobytes()
        assert C.colind.flags.owndata and C.values.flags.owndata
        for r in range(C.nrows):    # strictly increasing within each row
            lo, hi = C.row_slice(r)
            assert np.all(np.diff(C.colind[lo:hi]) > 0), (tier, r)


def _fmt_kwargs(fmt_name):
    return {"block_size": 2} if fmt_name == "bsr" else {}


def build(fmt_name, dense):
    rows, cols = np.nonzero(dense)
    return FORMATS[fmt_name].from_coo(rows, cols, dense[rows, cols],
                                      dense.shape, **_fmt_kwargs(fmt_name))


def _to_dense(entries, m, n, symmetric=False):
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


def _fixture_pair():
    """Two deterministic symmetric integer matrices every format admits
    (sym needs value symmetry; everything else doesn't care)."""
    rng = np.random.default_rng(42)
    def sym_sparse():
        a = np.where(rng.random((N, N)) < 0.4,
                     rng.integers(-3, 4, (N, N)), 0).astype(float)
        low = np.tril(a)
        return low + low.T - np.diag(np.diag(a))
    return sym_sparse(), sym_sparse()


# ---------------------------------------------------------------------------
# every format pair through the generic tier vs the dense oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt_a", ALL_FORMATS)
@pytest.mark.parametrize("fmt_b", ALL_FORMATS)
def test_spgemm_all_pairs_match_dense_ref(fmt_a, fmt_b):
    """All 10x10 ordered format pairs: the generic enumeration tier is one
    code for every pair, and its packed CSR output must equal the dense
    oracle bitwise on integer data."""
    da, db = _fixture_pair()
    A = build(fmt_a, da)
    B = build(fmt_b, db)
    C = spgemm(A, B, tier="generic")
    assert type(C) is CsrMatrix
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


@pytest.mark.parametrize("fmt_a", ["csc", "ell", "coo"])
@FAST
@given(st.data())
def test_spgemm_mixed_pairs_property(fmt_a, data):
    """Property leg over representative mixed pairs (default tier: only
    CSR×CSR has a fast kernel, so the generic route serves these)."""
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A = build(fmt_a, da)
    B = build("dia", db)
    C = spgemm(A, B)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


# ---------------------------------------------------------------------------
# tier byte-identity on CSR×CSR: same arrays, not just same matrix
# ---------------------------------------------------------------------------

def _csr_pair(da, db):
    return CsrMatrix.from_dense(da), CsrMatrix.from_dense(db)


@FAST
@given(st.data())
def test_spgemm_tiers_byte_identical(data):
    """native, vectorized, generic and the default produce identical
    canonical triples, the same nmults, and the same packed CSR."""
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    _assert_same_on_every_tier(*_csr_pair(da, db), dense_ref.spgemm(da, db))


@pytest.mark.parametrize("tier", TIERS + (None,))
@FAST
@given(st.data())
def test_spgemm_each_tier_matches_oracle(tier, data):
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A, B = _csr_pair(da, db)
    C = _served(spgemm, A, B, tier=tier)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


# ---------------------------------------------------------------------------
# the native kernel's per-row column ordering: every boundary of its choice
# (marker sweep / insertion sort / radix sort) from both sides
# ---------------------------------------------------------------------------

#: output-row lengths around each threshold of ``order_row``
_ROW_LENGTHS = (0, 1, 2, 3, RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1,
                3 * RADIX_MIN)


@st.composite
def ordering_cases(draw):
    """``(A, B)`` dense operands whose product's row 0 has a drawn length
    and column span: the span sits just inside the sweep condition
    (``span < SWEEP_SPAN * len``), exactly on it, far outside it (three
    radix passes past ``2**16``), or is fully occupied (one row touching
    every column of its span).  The row's columns are dealt over 1–4
    rows of B with overlaps, so the kernel collects several sorted runs
    and accumulates repeated columns; further rows of A pick subsets, so
    one product mixes strategies and stamps."""
    length = draw(st.sampled_from(_ROW_LENGTHS))
    k = draw(st.integers(1, 4))
    if length < 2:
        cols = np.arange(length, dtype=np.int64)
        n = max(1, length)
    else:
        span = {"dense": length - 1,
                "inside": SWEEP_SPAN * length - 1,
                "edge": SWEEP_SPAN * length,
                "far": 2 ** 16 + 7}[
            draw(st.sampled_from(["dense", "inside", "edge", "far"]))]
        seed_ = draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed_)
        inner = rng.choice(np.arange(1, span), size=length - 2,
                           replace=False) if length > 2 else []
        cols = np.concatenate([[0, span], inner]).astype(np.int64)
        n = span + 1
    shift = draw(st.integers(0, 5))
    n += shift
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    db = np.zeros((k, n))
    for c in cols + shift:
        owners = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        db[owners, c] = rng.integers(1, 5, size=owners.size)
    da = rng.integers(0, 3, size=(3, k)).astype(float)
    da[0, :] = rng.integers(1, 4, size=k)    # row 0 reaches every column
    return da, db


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ordering_cases())
def test_spgemm_row_ordering_boundaries(case):
    da, db = case
    _assert_same_on_every_tier(*_csr_pair(da, db), dense_ref.spgemm(da, db))


def test_spgemm_heavy_tailed_rows():
    """A power-law matrix squared: a few output rows cover most columns
    (swept), a band of long scattered ones (radix), a tail of short ones
    (insertion) — one product, all three orderings."""
    P = power_law_rows(300, 300, nnz_target=1500, seed=3)
    d = np.rint(4 * P.to_dense())           # integer-valued: exact sums
    A = CsrMatrix.from_dense(d)
    lengths = np.diff(spgemm(A, A).rowptr)
    assert lengths.max() >= RADIX_MIN > np.median(lengths)
    _assert_same_on_every_tier(A, A, dense_ref.spgemm(d, d))


def test_spgemm_laplacian_squared_n2500():
    """The computed-output product at a size past the Hypothesis walls:
    the 5-point Laplacian squared (short banded rows, 30k products)."""
    from repro.formats.generate import laplacian_2d

    d = laplacian_2d(50).to_dense()
    A = CsrMatrix.from_dense(d)
    _assert_same_on_every_tier(A, A, dense_ref.spgemm(d, d))


def test_spgemm_default_skips_the_product_expansion(monkeypatch):
    """With a toolchain the default CSR result is the kernel's own arrays:
    no ``np.unique`` / ``np.repeat`` over products or rows on the way."""
    if be.find_compiler() is None:
        pytest.skip("no C toolchain")
    da, db = _fixture_pair()
    A, B = _csr_pair(da, db)

    def boom(*a, **k):
        raise AssertionError("COO round trip on the default CSR path")

    monkeypatch.setattr(np, "unique", boom)
    monkeypatch.setattr(np, "repeat", boom)
    C = _served(spgemm, A, B)
    monkeypatch.undo()
    assert np.array_equal(C.to_dense(), da @ db)


# ---------------------------------------------------------------------------
# deterministic edge cases
# ---------------------------------------------------------------------------

def test_spgemm_rectangular_chain():
    """(4x7)·(7x3): non-square shapes through every tier, and a chained
    product through the packed intermediate."""
    rng = np.random.default_rng(5)
    da = np.where(rng.random((4, 7)) < 0.5,
                  rng.integers(-3, 4, (4, 7)), 0).astype(float)
    db = np.where(rng.random((7, 3)) < 0.5,
                  rng.integers(-3, 4, (7, 3)), 0).astype(float)
    A, B = _csr_pair(da, db)
    for tier in TIERS + (None,):
        C = _served(spgemm, A, B, tier=tier)
        assert C.shape == (4, 3)
        assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))
    # chain: (A B) B2 with B2 = B^T as a second sparse operand
    Bt = CsrMatrix.from_dense(db.T)
    D = spgemm(spgemm(A, B), Bt)
    assert np.array_equal(D.to_dense(), da @ db @ db.T)


def test_spgemm_duplicate_coo_inputs():
    """Duplicate triples in a COO operand are summed on construction; the
    product sees the summed values (generic tier reads through the
    abstract enumeration of the deduplicated store)."""
    rows = np.array([0, 0, 2, 2, 3])
    cols = np.array([1, 1, 0, 0, 2])
    vals = np.array([1.0, 2.0, 4.0, -1.0, 5.0])
    A = CooMatrix.from_coo(rows, cols, vals, (4, 4))
    da = np.zeros((4, 4))
    np.add.at(da, (rows, cols), vals)
    db = np.diag([1.0, 2.0, 3.0, 4.0])
    B = CooMatrix.from_dense(db)
    C = spgemm(A, B)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))
    # the same duplicate triples into CSR operands: the default tier
    _assert_same_on_every_tier(CsrMatrix.from_coo(rows, cols, vals, (4, 4)),
                               CsrMatrix.from_dense(db),
                               dense_ref.spgemm(da, db))


def test_spgemm_all_zero_rows_and_empty():
    """Empty operands and interior all-zero rows: empty output rows stay
    empty, the shape is still right."""
    da = np.zeros((5, 4))
    da[0, 1] = 2.0
    da[3, 0] = -1.0  # rows 1, 2, 4 empty
    db = np.zeros((4, 6))
    db[1, 5] = 3.0
    A, B = _csr_pair(da, db)
    _assert_same_on_every_tier(A, B, da @ db)
    # entirely empty operand: zero stored entries, correct (5, 6) shape
    Z = _served(spgemm, CsrMatrix.from_dense(np.zeros((5, 4))), B)
    assert Z.shape == (5, 6) and Z.nnz == 0
    # degenerate dimensions: (3, 0)·(0, 2), (0, 3)·(3, 2), (2, 3)·(3, 0)
    for (m, k, n) in ((3, 0, 2), (0, 3, 2), (2, 3, 0)):
        A0 = CsrMatrix.from_coo([], [], [], (m, k))
        B0 = CsrMatrix.from_coo([], [], [], (k, n))
        _assert_same_on_every_tier(A0, B0, np.zeros((m, n)))


def test_spgemm_cancellation_keeps_stored_zero():
    """Two products landing on one slot and summing to zero stay a stored
    entry in every tier — the computed pattern is structural."""
    da = np.array([[1.0, 1.0], [0.0, 0.0]])
    db = np.array([[3.0, 0.0], [-3.0, 0.0]])
    A, B = _csr_pair(da, db)
    for tier in TIERS + (None,):
        C = _served(spgemm, A, B, tier=tier)
        assert C.nnz == 1                      # the cancelled slot
        assert C.values[0] == 0.0
        assert (C.colind[0], C.rowptr.tolist()) == (0, [0, 1, 1])


@pytest.mark.parametrize("backend", ["python", "c"])
def test_spgemm_compiled_same_instance_aliasing(backend):
    """Regression: binding one matrix instance to both operand names of the
    compiled spgemm kernel must enumerate A and B independently.  Candidate
    generation used to fuse any two references to the same matrix object
    into one common enumeration regardless of their index functions, which
    conjoined ``A[i][j]`` and ``B[j][p2]`` onto a single stored entry and
    collapsed the product to its diagonal."""
    import warnings

    from repro.core import NativeBackendWarning, compile_kernel
    from repro.core import backend as be
    from repro.formats import as_format
    from repro.formats.generate import laplacian_2d
    from repro.ir import kernels

    if backend == "c" and be.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    A = as_format(laplacian_2d(3), "csr")
    d = A.to_dense()
    n = A.nrows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        kern = compile_kernel(kernels.spgemm(), {"A": A, "B": A},
                              backend=backend)
    C = np.full((n, n), 123.0)
    kern({"A": A, "B": A, "C": C}, {"m": n, "n": n, "k": n})
    assert np.array_equal(C, d @ d)


def test_smvm_two_still_shares_one_enumeration():
    """The aliasing fix must not undo the legitimate common enumeration:
    smvm_two's twin ``A[i][j]`` references have identical index functions
    and still fuse into a single traversal of A."""
    from repro.core import compile_kernel
    from repro.formats import as_format
    from repro.formats.generate import laplacian_2d
    from repro.ir import kernels

    A = as_format(laplacian_2d(3), "csr")
    d = A.to_dense()
    n = A.nrows
    kern = compile_kernel(kernels.smvm_two(), {"A": A}, backend="python")
    x = np.arange(n, dtype=float)
    y = np.full(n, 123.0)
    kern({"A": A, "x": x, "y": y}, {"m": n, "n": n})
    assert np.array_equal(y, 2 * (d @ x))
    # one enumeration of A: a second matrix copy would surface as M1_*
    assert "M1_" not in kern.source


def test_spgemm_conformability_and_type_guards():
    A = CsrMatrix.from_dense(np.ones((3, 4)))
    B = CsrMatrix.from_dense(np.ones((5, 2)))
    with pytest.raises(ValueError, match=r"3x4.*5x2"):
        spgemm(A, B)
    with pytest.raises(ValueError, match="sparse format instances"):
        spgemm(A, np.ones((4, 2)))
    with pytest.raises(ValueError, match="vectorized tier needs CSR"):
        spgemm_triples(CooMatrix.from_dense(np.ones((3, 3))),
                       CsrMatrix.from_dense(np.ones((3, 3))),
                       tier="vectorized")
    with pytest.raises(ValueError, match="native tier needs CSR"):
        spgemm_triples(CsrMatrix.from_dense(np.ones((3, 3))),
                       CooMatrix.from_dense(np.ones((3, 3))),
                       tier="native")
    for gone in ("specialized", "bogus"):   # three tiers, not four
        with pytest.raises(ValueError, match="tier must be 'native', "
                                             "'vectorized' or 'generic'"):
            spgemm_triples(A, CsrMatrix.from_dense(np.ones((4, 2))),
                           tier=gone)


# ---------------------------------------------------------------------------
# output-format packing: explicit names, auto selection, observable fallback
# ---------------------------------------------------------------------------

class TestOutputFormat:
    def _product_operands(self):
        da, db = _fixture_pair()
        return _csr_pair(da, db) + (da @ db,)

    @pytest.mark.parametrize("name", ["csr", "csc", "coo", "ell", "jad"])
    def test_explicit_output_format(self, name):
        A, B, ref = self._product_operands()
        C = spgemm(A, B, out_format=name)
        assert C.format_name == name
        assert np.array_equal(C.to_dense(), ref)

    def test_auto_output_format(self):
        A, B, ref = self._product_operands()
        C = spgemm(A, B, out_format="auto")
        assert np.array_equal(C.to_dense(), ref)

    def test_auto_picks_dia_for_banded_product(self):
        # tridiagonal squared is pentadiagonal: a dense band, dia wins
        n = 24
        d = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1))
        A = CsrMatrix.from_dense(d)
        C = spgemm(A, A, out_format="auto")
        assert C.format_name == "dia"
        assert np.array_equal(C.to_dense(), d @ d)

    def test_inadmissible_output_falls_back_to_csr(self):
        # bsr on an odd-dimensioned product cannot tile: observable CSR
        # fallback instead of a crash
        from repro.instrument import INSTR

        da = np.ones((3, 3))
        A = CsrMatrix.from_dense(da)
        before = INSTR.get("spgemm.output_fallbacks")
        C = spgemm(A, A, out_format="bsr", block_size=2)
        assert C.format_name == "csr"
        assert np.array_equal(C.to_dense(), da @ da)
        assert INSTR.get("spgemm.output_fallbacks") == before + 1

    def test_unknown_output_format_raises(self):
        A = CsrMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError, match="unknown output format"):
            spgemm(A, A, out_format="nope")


class TestOutputFormatSelection:
    """Unit tests of the structure-driven output-format chooser."""

    def _select(self, dense):
        from repro.formats.base import coo_dedup_sort
        from repro.search.format_select import select_output_format

        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        rows, cols, vals = coo_dedup_sort(
            rows.astype(np.int64), cols.astype(np.int64),
            vals.astype(np.float64), dense.shape, order="row")
        return select_output_format(rows, cols, dense.shape)

    def test_empty_pattern_short_circuits_to_csr(self):
        from repro.search.format_select import select_output_format

        e = np.array([], dtype=np.int64)
        ch = select_output_format(e, e, (5, 5))
        assert ch.format_name == "csr" and ch.format_kwargs == {}

    def test_banded_pattern_picks_dia(self):
        # a full tridiagonal band: the band is ~98% full so DIA beats the
        # row-regularity win ELL gets (first/last rows break regularity)
        n = 30
        d = (np.diag(np.ones(n)) + np.diag(np.ones(n - 1), 1)
             + np.diag(np.ones(n - 1), -1))
        ch = self._select(d)
        assert ch.format_name == "dia"
        assert "dia" in ch.table()

    def test_scattered_pattern_stays_row_major(self):
        rng = np.random.default_rng(11)
        d = (rng.random((20, 20)) < 0.08).astype(float)
        ch = self._select(d)
        # irregular scattered structure: dia/ell/bsr all pay padding, so a
        # row-major compressed layout must win
        assert ch.format_name in ("csr", "msr")

    def test_bsr_kwargs_forwarded(self):
        # fully-dense 2x2 tiles on even dims: bsr wins and carries its
        # construction kwargs
        d = np.kron((np.arange(36).reshape(6, 6) % 7 == 0).astype(float),
                    np.ones((2, 2)))
        ch = self._select(d)
        assert ch.format_name == "bsr"
        assert ch.format_kwargs == {"block_size": 2}


# ---------------------------------------------------------------------------
# SolverContext integration: cached normal-equation products
# ---------------------------------------------------------------------------

def test_solver_context_normal_products():
    from repro.solvers.context import SolverContext

    rng = np.random.default_rng(9)
    da = np.where(rng.random((8, 5)) < 0.4,
                  rng.integers(-3, 4, (8, 5)), 0).astype(float)
    ctx = SolverContext(CsrMatrix.from_dense(da), ops=("mvm",),
                        backend="python", register=False)
    ata = ctx.normal("ata")
    assert ata.shape == (5, 5)
    assert np.array_equal(ata.to_dense(), da.T @ da)
    aat = ctx.normal("aat")
    assert aat.shape == (8, 8)
    assert np.array_equal(aat.to_dense(), da @ da.T)
    assert ctx.normal("ata") is ata           # cached, not recomputed
    with pytest.raises(ValueError, match="'ata' or 'aat'"):
        ctx.normal("atb")


# ---------------------------------------------------------------------------
# slow leg: 10x example budget, fixed seed
# ---------------------------------------------------------------------------

@pytest.mark.slow
@seed(20260808)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spgemm_deep_budget(data):
    """Slow leg: 200 random CSR×CSR products, all tiers and the default
    vs the oracle and each other, fixed seed for reproducible failures."""
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A, B = _csr_pair(da, db)
    _assert_same_on_every_tier(A, B, dense_ref.spgemm(da, db))
