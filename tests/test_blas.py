"""Baseline BLAS layers: specialized (NIST-C analog), generic
(NIST-Fortran analog), and the dispatch."""

import numpy as np
import pytest

from repro.blas import dense_ref, generic_, specialized
from repro.blas.api import mm, mm_t, mvm, mvm_t, ts_lower_solve, ts_upper_solve
from repro.formats import as_format
from repro.formats.generate import (
    lower_triangular_of,
    random_sparse,
    upper_triangular_of,
)

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
    @pytest.mark.parametrize("fmt", sorted(set(specialized.MVM) - {"sym"}))
    def test_matches_oracle(self, fmt, dense_a, rng):
        # sym needs a square symmetric input; covered in test_sym_format
        # BSR needs divisible dims: pad to 8x10
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        x = rng.random(10)
        y = np.zeros(8)
        specialized.MVM[fmt](f, x, y)
        assert np.allclose(y, f.to_dense() @ x)

    @pytest.mark.parametrize("fmt", sorted(specialized.MVM_T))
    def test_transposed(self, fmt, dense_a, rng):
        f = as_format(dense_a, fmt)
        x = rng.random(7)
        y = np.zeros(9)
        specialized.MVM_T[fmt](f, x, y)
        assert np.allclose(y, dense_a.T @ x)


class TestSpecializedTs:
    @pytest.mark.parametrize("fmt", sorted(specialized.TS_LOWER))
    def test_lower(self, fmt, lower, rng):
        f = as_format(lower, fmt)
        b = rng.random(9)
        x = specialized.TS_LOWER[fmt](f, b.copy())
        assert np.allclose(lower.to_dense() @ x, b, atol=1e-9)

    @pytest.mark.parametrize("fmt", sorted(specialized.TS_UPPER))
    def test_upper(self, fmt, upper, rng):
        f = as_format(upper, fmt)
        b = rng.random(9)
        x = specialized.TS_UPPER[fmt](f, b.copy())
        assert np.allclose(upper.to_dense() @ x, b, atol=1e-9)


class TestGeneric:
    @pytest.mark.parametrize("fmt", ALL)
    def test_iter_nonzeros_covers_matrix(self, fmt, dense_a):
        a = np.zeros((8, 10))
        a[:7, :9] = dense_a
        kwargs = {"block_size": 2} if fmt == "bsr" else {}
        f = as_format(a, fmt, **kwargs)
        recon = np.zeros_like(a)
        for r, c, v in generic_.iter_nonzeros(f):
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
        generic_.mvm(f, x, y)
        assert np.allclose(y, f.to_dense() @ x)

    @pytest.mark.parametrize("fmt", ["csr", "coo", "jad", "dia"])
    def test_generic_ts_variants(self, fmt, lower, rng):
        f = as_format(lower, fmt)
        b = rng.random(9)
        x1 = generic_.ts_lower(f, b.copy())
        x2 = generic_.ts_lower_enum(f, b.copy())
        assert np.allclose(lower.to_dense() @ x1, b, atol=1e-9)
        assert np.allclose(x1, x2, atol=1e-10)

    def test_generic_ts_upper(self, upper, rng):
        f = as_format(upper, "csr")
        b = rng.random(9)
        x = generic_.ts_upper(f, b.copy())
        assert np.allclose(upper.to_dense() @ x, b, atol=1e-9)


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


class TestFlops:
    def test_counts(self):
        assert dense_ref.flops_mvm(100) == 200
        assert dense_ref.flops_ts(100, 10) == 190
        assert dense_ref.flops_mm(100, 16) == 3200


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
