"""The BLAS layer: the plain calls (each binds a compiled kernel to its
matrix on first use, over its CSR image where the search has no plan),
and the oracles they are held to — the hand-written kernels (NIST-C
analog, ``tests/oracles/hand_blas``) and the format-agnostic ones
(NIST-Fortran analog, ``tests/oracles/generic_blas``)."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.blas import api as blas_api
from repro.blas.api import (
    kernel_handle,
    mm,
    mm_t,
    mvm,
    mvm_t,
    ts_lower_solve,
    ts_upper_solve,
)
from repro.core import NativeBackendWarning
from repro.formats import as_format
from repro.formats.generate import (
    can_1072_like,
    lower_triangular_of,
    random_sparse,
    upper_triangular_of,
)
from repro.instrument import INSTR
from tests.oracles import dense_ref, generic_blas, hand_blas

ALL = ["csr", "csc", "coo", "dia", "ell", "jad", "bsr", "msr"]


@pytest.fixture(scope="module")
def dense_a():
    return random_sparse(7, 9, 0.35, seed=21).to_dense()


@pytest.fixture(scope="module")
def lower():
    return lower_triangular_of(random_sparse(9, 9, 0.3, seed=22))


@pytest.fixture(scope="module")
def upper():
    return upper_triangular_of(random_sparse(9, 9, 0.3, seed=23))


class TestSpecializedMvm:
    @pytest.mark.parametrize("fmt", sorted(set(hand_blas.MVM) - {"sym"}))
    def test_matches_oracle(self, fmt, dense_a, rng):
        # sym needs a square symmetric input; covered in test_sym_format
        # BSR needs divisible dims: pad to 8x10
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        x = rng.random(10)
        y = np.zeros(8)
        hand_blas.MVM[fmt](f, x, y)
        assert np.allclose(y, f.to_dense() @ x)

    @pytest.mark.parametrize("fmt", sorted(hand_blas.MVM_T))
    def test_transposed(self, fmt, dense_a, rng):
        f = as_format(dense_a, fmt)
        x = rng.random(7)
        y = np.zeros(9)
        hand_blas.MVM_T[fmt](f, x, y)
        assert np.allclose(y, dense_a.T @ x)


class TestSpecializedTs:
    @pytest.mark.parametrize("fmt", sorted(hand_blas.TS_LOWER))
    def test_lower(self, fmt, lower, rng):
        f = as_format(lower, fmt)
        b = rng.random(9)
        x = hand_blas.TS_LOWER[fmt](f, b.copy())
        assert np.allclose(lower.to_dense() @ x, b, atol=1e-9)

    @pytest.mark.parametrize("fmt", sorted(hand_blas.TS_UPPER))
    def test_upper(self, fmt, upper, rng):
        f = as_format(upper, fmt)
        b = rng.random(9)
        x = hand_blas.TS_UPPER[fmt](f, b.copy())
        assert np.allclose(upper.to_dense() @ x, b, atol=1e-9)


class TestGeneric:
    @pytest.mark.parametrize("fmt", ALL)
    def test_iter_nonzeros_covers_matrix(self, fmt, dense_a):
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        recon = np.zeros_like(a)
        for r, c, v in generic_blas.iter_nonzeros(f):
            recon[r, c] += v
        assert np.allclose(recon, f.to_dense())

    @pytest.mark.parametrize("fmt", ALL)
    def test_generic_mvm(self, fmt, dense_a, rng):
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        x = rng.random(10)
        y = np.zeros(8)
        generic_blas.mvm(f, x, y)
        assert np.allclose(y, f.to_dense() @ x)

    @pytest.mark.parametrize("fmt", ["csr", "coo", "jad", "dia"])
    def test_generic_ts_variants(self, fmt, lower, rng):
        f = as_format(lower, fmt)
        b = rng.random(9)
        x1 = generic_blas.ts_lower(f, b.copy())
        x2 = generic_blas.ts_lower_enum(f, b.copy())
        assert np.allclose(lower.to_dense() @ x1, b, atol=1e-9)
        assert np.allclose(x1, x2, atol=1e-10)

    def test_generic_ts_upper(self, upper, rng):
        f = as_format(upper, "csr")
        b = rng.random(9)
        x = generic_blas.ts_upper(f, b.copy())
        assert np.allclose(upper.to_dense() @ x, b, atol=1e-9)


#: hand oracle table -> (plain call, handle op, operand shape, oracle's
#: dense matrix: "full", "lower", "upper")
_PLAIN = {
    "MVM": (mvm, "mvm", (1072,), "full"),
    "MVM_T": (mvm_t, "mvm_t", (1072,), "full"),
    "MM": (mm, "spmm", (1072, 4), "full"),
    "MM_T": (mm_t, "spmm_t", (1072, 4), "full"),
    "TS_LOWER": (ts_lower_solve, "ts_lower", (1072,), "lower"),
    "TS_UPPER": (ts_upper_solve, "ts_upper", (1072,), "upper"),
}

#: the pairs where the compiled kernel sums in another order than the
#: hand code, so the two agree to rounding only
_ROUNDING_ONLY = {
    ("MVM", "bsr"): "the compiled mvm adds each product of a block row "
                    "into y; the hand code sums one row of a block in a "
                    "local first",
    ("TS_UPPER", "csr"): "the compiled solve subtracts a row's entries from "
                         "its last column down, as the dense program's "
                         "loop runs; the hand code from its first up",
    ("TS_UPPER", "jad"): "as on CSR: the compiled solve walks a permuted "
                         "row's diagonals from the last down",
}


@pytest.fixture(scope="module")
def can_1072():
    """The paper's matrix, dense: full, lower and upper (TS) parts."""
    can = can_1072_like()
    return {"full": can.to_dense(),
            "lower": lower_triangular_of(can).to_dense(),
            "upper": upper_triangular_of(can).to_dense()}


class TestPlainPathAgainstHandOracle:
    """Every pair the hand library covered: the plain call, which compiles
    the operation for its matrix, gives the hand kernel's bits (or its
    values to rounding, where :data:`_ROUNDING_ONLY` says why)."""

    @pytest.mark.parametrize("table,fmt", [
        (t, f) for t in _PLAIN for f in getattr(hand_blas, t)],
        ids=lambda p: p.lower())
    def test_equals_hand_kernel(self, table, fmt, can_1072):
        call, op, shape, part = _PLAIN[table]
        dense = can_1072[part]
        if fmt == "sym":
            dense = dense + dense.T
        operand = np.random.default_rng(5).random(shape)
        hand = getattr(hand_blas, table)[fmt]
        A = as_format(dense, fmt)
        if table.startswith("TS"):
            want = hand(as_format(dense, fmt), operand.copy())
        else:
            want = hand(as_format(dense, fmt), operand,
                        np.zeros((A.ncols if table.endswith("_T")
                                  else A.nrows,) + shape[1:]))
        got = call(A, operand)
        # the handle is a compiled kernel's BoundOp, not the generic one
        assert kernel_handle(A, op).__self__.name == op
        if (table, fmt) in _ROUNDING_ONLY:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(got, want)

    def test_second_call_is_one_handle_hit(self, can_1072):
        A = as_format(can_1072["full"], "csr")
        x = np.random.default_rng(6).random(1072)
        first = mvm(A, x)
        assert kernel_handle(A, "mvm") is not None
        hits = INSTR.get("blas.handle.hits")
        assert np.array_equal(mvm(A, x), first)
        assert INSTR.get("blas.handle.hits") == hits + 1

    def test_a_pair_without_a_plan_is_searched_once(self, lower, rng):
        """TS on DIA has no plan: the first call's search fails once and
        binds the kernel compiled over the matrix's CSR image, so the
        second call runs no search."""
        L = as_format(lower, "dia")
        b = rng.random(9)
        demoted = INSTR.get("blas.fallback.csr_image")
        x = ts_lower_solve(L, b)
        assert INSTR.get("blas.fallback.csr_image") == demoted + 1
        generated = INSTR.get("search.candidates.generated")
        assert np.array_equal(ts_lower_solve(L, b), x)
        assert INSTR.get("search.candidates.generated") == generated
        assert INSTR.get("blas.fallback.csr_image") == demoted + 1
        assert np.allclose(lower.to_dense() @ x, b)

    def test_any_other_compile_error_propagates(self, can_1072, monkeypatch):
        import repro.core.compiler as compiler

        def boom(*args, **kwargs):
            raise RuntimeError("forced")

        monkeypatch.setattr(compiler, "compile_kernel", boom)
        A = as_format(can_1072["full"], "csr")
        with pytest.raises(RuntimeError, match="forced"):
            mvm(A, np.ones(1072))
        assert kernel_handle(A, "mvm") is None

    @pytest.mark.parametrize("op,fmt", [("mvm", "csr"), ("ts_lower", "coo")])
    def test_a_bound_matrix_dies_by_reference_count(self, op, fmt, can_1072):
        """The handle a plain call binds holds its matrix weakly, and the
        compile leaves nothing that holds it (TS on COO falls back from C:
        its lowering error must not keep the compile's frames)."""
        call = mvm if op == "mvm" else ts_lower_solve
        dense = can_1072["full" if op == "mvm" else "lower"]
        v = np.ones(1072)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            call(as_format(dense, fmt), v)      # first-use imports, cache
            gc.collect()
            gc.disable()
            try:
                A = as_format(dense, fmt)
                call(A, v)
                call(A, v)
                assert kernel_handle(A, op) is not None
                ref = weakref.ref(A)
                del A
                assert ref() is None
            finally:
                gc.enable()


@pytest.fixture(scope="module")
def triangles():
    """The triangles of a 120-square matrix, dense; as DIA they store
    every cell of their diagonals, zeros included."""
    a = random_sparse(120, 120, 0.04, seed=24).to_dense() + 4 * np.eye(120)
    return {"lower": np.tril(a), "upper": np.triu(a)}


#: op -> (plain call, triangle, format-agnostic oracle)
_SOLVES = {"ts_lower": (ts_lower_solve, "lower", generic_blas.ts_lower_enum),
           "ts_upper": (ts_upper_solve, "upper", generic_blas.ts_upper)}


@pytest.mark.parametrize("op", sorted(_SOLVES))
class TestCsrImage:
    """TS on DIA has no plan: the plain call binds the solve compiled over
    the matrix's CSR image, and each call runs on an image of the matrix's
    current values."""

    def _solve(self, op, triangles, b):
        call, part, oracle = _SOLVES[op]
        A = as_format(triangles[part], "dia")
        return A, call(A, b), oracle

    def test_equals_the_generic_oracle(self, op, triangles, rng):
        b = rng.random(120)
        A, got, oracle = self._solve(op, triangles, b)
        assert kernel_handle(A, op).__self__.name == op    # a BoundOp
        want = oracle(as_format(A.to_dense(), "dia"), b.copy())
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_second_call_runs_no_search(self, op, triangles, rng):
        b = rng.random(120)
        demoted = INSTR.get("blas.fallback.csr_image")
        A, first, _ = self._solve(op, triangles, b)
        assert INSTR.get("blas.fallback.csr_image") == demoted + 1
        generated = INSTR.get("search.candidates.generated")
        hits = INSTR.get("blas.handle.hits")
        assert np.array_equal(_SOLVES[op][0](A, b), first)
        assert INSTR.get("search.candidates.generated") == generated
        assert INSTR.get("blas.handle.hits") == hits + 1
        assert INSTR.get("blas.fallback.csr_image") == demoted + 1

    def test_a_changed_value_is_seen_by_the_next_call(self, op, triangles,
                                                      rng):
        b = rng.random(120)
        A, _, oracle = self._solve(op, triangles, b)
        A.data *= 2.0                       # in place
        A.set(7, 7, 5.0)                    # and through set()
        got = _SOLVES[op][0](A, b)
        want = oracle(as_format(A.to_dense(), "dia"), b.copy())
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(A.to_dense() @ got, b)

    def test_matrix_and_its_images_die_by_reference_count(
            self, op, triangles, monkeypatch):
        images, real = [], blas_api.convert

        def convert(A, target):
            image = real(A, target)
            images.append(weakref.ref(image))
            return image

        monkeypatch.setattr(blas_api, "convert", convert)
        b = np.ones(120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            self._solve(op, triangles, b)       # first-use imports, cache
            gc.collect()
            gc.disable()
            try:
                A, _, _ = self._solve(op, triangles, b)
                _SOLVES[op][0](A, b)
                ref = weakref.ref(A)
                del A
                assert ref() is None
                # one image per bind, none per call
                assert len(images) == 2 and not any(r() for r in images)
            finally:
                gc.enable()


class TestDispatch:
    @pytest.mark.parametrize("fmt", ALL)
    def test_mvm_dispatch(self, fmt, dense_a, rng):
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        x = rng.random(10)
        assert np.allclose(mvm(f, x), f.to_dense() @ x)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "jad", "msr", "coo", "ell"])
    def test_ts_dispatch(self, fmt, lower, rng):
        f = as_format(lower, fmt)
        b = rng.random(9)
        x = ts_lower_solve(f, b)
        assert np.allclose(lower.to_dense() @ x, b, atol=1e-9)
        # the input must not be modified unless in_place
        x2 = ts_lower_solve(f, b, in_place=True)
        assert x2 is b

    def test_mvm_t_dispatch(self, dense_a, rng):
        f = as_format(dense_a, "dia")
        x = rng.random(7)
        assert np.allclose(mvm_t(f, x), dense_a.T @ x)

    def test_ts_upper_dispatch(self, upper, rng):
        f = as_format(upper, "jad")
        b = rng.random(9)
        x = ts_upper_solve(f, b)
        assert np.allclose(upper.to_dense() @ x, b, atol=1e-9)


class TestMm:
    """SpMM through the dispatch: specialized kernels for csr/csc, the
    generic enumeration everywhere else, all against the dense oracle."""

    @pytest.mark.parametrize("fmt", ALL)
    def test_mm_matches_oracle(self, fmt, dense_a, rng):
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        X = rng.random((10, 4))
        assert np.allclose(mm(f, X), dense_ref.mm(a, X))

    @pytest.mark.parametrize("fmt", ALL)
    def test_mm_t_matches_oracle(self, fmt, dense_a, rng):
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        X = rng.random((8, 3))
        assert np.allclose(mm_t(f, X), dense_ref.mm_t(a, X))

    def test_mm_single_column_matches_mvm(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        x = rng.random(9)
        assert np.array_equal(mm(f, x[:, None])[:, 0], mvm(f, x))

    def test_mm_into_caller_buffer(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        X = rng.random((9, 2))
        Y = np.full((7, 2), 9.0)
        out = mm(f, X, Y)
        assert out is Y
        assert np.allclose(Y, dense_ref.mm(dense_a, X))


class TestOutputDtype:
    """Allocation must promote operand dtypes, not hard-code float64
    (regression: ``np.zeros(n)`` silently widened float32 workloads)."""

    def _f32_csr(self, dense_a):
        a = as_format(dense_a, "csr")
        a.values = a.values.astype(np.float32)
        return a

    def test_mvm_preserves_float32(self, dense_a, rng):
        a = self._f32_csr(dense_a)
        x = rng.random(9).astype(np.float32)
        y = mvm(a, x)
        assert y.dtype == np.float32
        assert np.allclose(y, dense_a.astype(np.float32) @ x, atol=1e-5)

    def test_mvm_promotes_mixed(self, dense_a, rng):
        a = self._f32_csr(dense_a)
        assert mvm(a, rng.random(9)).dtype == np.float64

    def test_mvm_t_preserves_float32(self, dense_a, rng):
        a = self._f32_csr(dense_a)
        x = rng.random(7).astype(np.float32)
        assert mvm_t(a, x).dtype == np.float32

    def test_mm_preserves_float32(self, dense_a, rng):
        a = self._f32_csr(dense_a)
        X = rng.random((9, 4)).astype(np.float32)
        Y = mm(a, X)
        assert Y.dtype == np.float32
        assert Y.shape == (7, 4)
        assert np.allclose(Y, dense_a.astype(np.float32) @ X, atol=1e-5)

    def test_mm_promotes_mixed(self, dense_a, rng):
        # float32 matrix x float64 panel -> float64 (np.result_type)
        a = self._f32_csr(dense_a)
        assert mm(a, rng.random((9, 4))).dtype == np.float64

    def test_mm_t_preserves_float32(self, dense_a, rng):
        a = self._f32_csr(dense_a)
        X = rng.random((7, 2)).astype(np.float32)
        assert mm_t(a, X).dtype == np.float32

    def test_format_dtype_property(self, dense_a):
        a = as_format(dense_a, "csr")
        assert a.dtype == np.float64
        a.values = a.values.astype(np.float32)
        assert a.dtype == np.float32
        # every stock format reports a dtype (value-array probe or the
        # float64 default) without raising
        for fmt in ALL:
            kwargs = {"block_size": 1} if fmt == "bsr" else {}
            assert as_format(dense_a, fmt, **kwargs).dtype == np.float64


class TestPanelAndOutputGuards:
    """Shape/dtype hardening of the multi-matrix surface (regressions: a
    1-D X hit a raw IndexError, a mis-sized panel computed garbage
    silently, and integer/narrow caller outputs truncated products)."""

    def test_mm_rejects_1d_x(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match=r"mm: X must be a 2-D panel"):
            mm(f, rng.random(9))

    def test_mm_t_rejects_1d_x(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match=r"mm_t: X must be a 2-D panel"):
            mm_t(f, rng.random(7))

    def test_mm_rejects_row_mismatch(self, dense_a, rng):
        # A is 7x9 so the panel needs 9 rows; both shapes must be named
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match=r"7x9.*9 rows.*\(5, 2\)"):
            mm(f, rng.random((5, 2)))

    def test_mm_t_rejects_row_mismatch(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match=r"needs 7 rows"):
            mm_t(f, rng.random((9, 2)))

    def test_mm_rejects_wrong_out_shape(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match=r"shape \(7, 3\), expected \(7, 2\)"):
            mm(f, rng.random((9, 2)), np.zeros((7, 3)))

    def test_mvm_rejects_integer_out(self, dense_a, rng):
        # float64 products into an int64 y used to truncate silently
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match="would truncate"):
            mvm(f, rng.random(9), np.zeros(7, dtype=np.int64))

    def test_mm_rejects_lossy_out(self, dense_a, rng):
        f = as_format(dense_a, "csr")
        with pytest.raises(ValueError, match="would truncate"):
            mm(f, rng.random((9, 2)), np.zeros((7, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="would truncate"):
            mm(f, rng.random((9, 2)), np.zeros((7, 2), dtype=np.int64))

    def test_mm_float32_out_accepted_for_float32_operands(self, dense_a, rng):
        a = as_format(dense_a, "csr")
        a.values = a.values.astype(np.float32)
        X = rng.random((9, 2)).astype(np.float32)
        Y = np.zeros((7, 2), dtype=np.float32)
        assert mm(a, X, Y) is Y

    def test_mm_empty_panel(self, dense_a):
        # k = 0: a (9, 0) panel produces a (7, 0) result, no dispatch
        f = as_format(dense_a, "csr")
        Y = mm(f, np.zeros((9, 0)))
        assert Y.shape == (7, 0)
        Yt = mm_t(f, np.zeros((7, 0)))
        assert Yt.shape == (9, 0)

    def test_ts_solve_promotes_integer_b(self, lower):
        # an int b used to floor every quotient in the copy path
        f = as_format(lower, "csr")
        b = np.arange(1, 10, dtype=np.int64)
        x = ts_lower_solve(f, b)
        assert x.dtype == np.float64
        assert np.allclose(lower.to_dense() @ x, b)
        assert b.dtype == np.int64          # caller's array untouched

    def test_ts_solve_in_place_rejects_integer_b(self, lower, upper):
        fl = as_format(lower, "csr")
        fu = as_format(upper, "csr")
        with pytest.raises(ValueError, match="in-place solve writes"):
            ts_lower_solve(fl, np.arange(1, 10, dtype=np.int64),
                           in_place=True)
        with pytest.raises(ValueError, match="in-place solve writes"):
            ts_upper_solve(fu, np.arange(1, 10, dtype=np.int64),
                           in_place=True)

    def test_ts_upper_promotes_integer_b(self, upper):
        f = as_format(upper, "csr")
        b = np.arange(1, 10, dtype=np.int64)
        x = ts_upper_solve(f, b)
        assert x.dtype == np.float64
        assert np.allclose(upper.to_dense() @ x, b)


class TestVectorOperandGuards:
    """A vector operand of the wrong length or rank is refused before any
    dispatch (regression: with a registered native handle ``mvm(A, short)``
    read past ``x`` and returned garbage, and a wrong-length ``b`` went
    into the bound solve unchecked — the kernels loop to the matrix's
    extents whatever the operand holds)."""

    @pytest.fixture(params=[None, "python", "c"],
                    ids=["table", "python-handle", "c-handle"])
    def bound(self, request, dense_a):
        """(A, L, U) — a 7x9 operand and the triangular parts of a square
        one — bare or with every op bound as a kernel handle."""
        import warnings

        from repro.blas.api import kernel_handle
        from repro.core import NativeBackendWarning
        from repro.solvers import SolverContext

        A = as_format(dense_a, "csr")
        S = as_format(dense_a[:, :7] + 4.0 * np.eye(7), "csr")
        if request.param is None:
            return A, as_format(np.tril(S.to_dense()), "csr"), \
                as_format(np.triu(S.to_dense()), "csr")
        with warnings.catch_warnings():
            # without a toolchain "c" is the python handle again
            warnings.simplefilter("ignore", NativeBackendWarning)
            SolverContext(A, ops=("mvm", "mvm_t"), backend=request.param)
            ctx = SolverContext(S, ops=("ts_lower", "ts_upper"),
                                backend=request.param)
        assert kernel_handle(A, "mvm") and kernel_handle(ctx.L, "ts_lower")
        return A, ctx.L, ctx.U

    @pytest.mark.parametrize("shape", [(8,), (10,), (9, 1), ()],
                             ids=["short", "long", "2-D", "0-D"])
    def test_mvm(self, bound, shape):
        A = bound[0]
        with pytest.raises(ValueError, match=r"mvm: operand is 7x9 so x "
                           r"must be a vector of length 9, got shape"):
            mvm(A, np.ones(shape))
        assert np.allclose(mvm(A, np.ones(9)), A.to_dense().sum(axis=1))

    @pytest.mark.parametrize("shape", [(6,), (9,), (7, 1)],
                             ids=["short", "long", "2-D"])
    def test_mvm_t(self, bound, shape):
        A = bound[0]
        with pytest.raises(ValueError, match=r"mvm_t: operand is 7x9 so x "
                           r"must be a vector of length 7, got shape"):
            mvm_t(A, np.ones(shape))
        assert np.allclose(mvm_t(A, np.ones(7)), A.to_dense().sum(axis=0))

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("shape", [(6,), (8,), (7, 1)],
                             ids=["short", "long", "2-D"])
    def test_triangular_solves(self, bound, shape, in_place):
        _, L, U = bound
        for solve, T in ((ts_lower_solve, L), (ts_upper_solve, U)):
            b = np.ones(shape)
            with pytest.raises(ValueError, match=solve.__name__ + r": operand "
                               r"is 7x7 so b must be a vector of length 7"):
                solve(T, b, in_place=in_place)
            assert np.array_equal(b, np.ones(shape))    # untouched
            x = solve(T, np.ones(7))
            assert np.allclose(T.to_dense() @ x, np.ones(7))
