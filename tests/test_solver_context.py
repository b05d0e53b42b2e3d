"""Solver fast path: SolverContext setup, bound-kernel dispatch, fallback
semantics, kernel handles on the functional API, and — the acceptance
criterion — byte-identical iterate trajectories between the context-backed
and status-quo solver paths on the Python backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blas import api as blas_api
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import laplacian_2d, random_sparse
from repro.instrument import INSTR
from repro.solvers import (
    ALL_OPS,
    JacobiPreconditioner,
    SolverContext,
    TriangularPreconditioner,
    bicgstab,
    cg,
    gauss_seidel,
    gmres,
    jacobi,
    pagerank,
    power_method,
    sor,
)
from repro.solvers.context import resolve_matvec

BACKENDS = ["python"] + (["c"] if be.find_compiler() else [])


@pytest.fixture(scope="module")
def spd():
    return laplacian_2d(5)  # 25x25 SPD


@pytest.fixture(scope="module")
def spd_dense(spd):
    return spd.to_dense()


@pytest.fixture(scope="module")
def b25():
    return np.random.default_rng(31).random(25)


def _ctx(spd, fmt="csr", ops=ALL_OPS, backend="python", **kw):
    return SolverContext(as_format(spd, fmt), ops=ops, backend=backend, **kw)


class TestConstruction:
    def test_binds_requested_ops(self, spd):
        ctx = _ctx(spd, ops=("mvm", "ts_lower"))
        assert ctx.bound("mvm") is not None
        assert ctx.bound("ts_lower") is not None
        assert ctx.bound("ts_upper") is None
        assert set(ctx.backends) == {"mvm", "ts_lower"}

    def test_unknown_op_rejected(self, spd):
        with pytest.raises(ValueError, match="unknown op"):
            _ctx(spd, ops=("mvm", "spqr"))

    def test_dense_input_converted(self, spd_dense, b25):
        ctx = SolverContext(spd_dense, ops=("mvm",), backend="python")
        assert ctx.format_name == "csr"
        assert np.allclose(ctx.matvec(b25), spd_dense @ b25)

    def test_counts_contexts(self, spd):
        before = INSTR.get("solver.contexts")
        _ctx(spd, ops=("mvm",))
        assert INSTR.get("solver.contexts") == before + 1

    def test_setup_phase_recorded(self, spd):
        before = INSTR.time("solver.setup")
        _ctx(spd, ops=("mvm",))
        assert INSTR.time("solver.setup") > before

    def test_repr_names_backends(self, spd):
        ctx = _ctx(spd, ops=("mvm",), backend="python")
        assert "mvm=python" in repr(ctx)


class TestBoundOps:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matvec(self, backend, spd, spd_dense, b25):
        ctx = _ctx(spd, backend=backend)
        assert np.allclose(ctx.matvec(b25), spd_dense @ b25)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matvec_t(self, backend, spd, spd_dense, b25):
        ctx = _ctx(spd, backend=backend)
        assert np.allclose(ctx.matvec_t(b25), spd_dense.T @ b25)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_triangular_solves(self, backend, spd, spd_dense, b25):
        ctx = _ctx(spd, backend=backend)
        L = np.tril(spd_dense)
        U = np.triu(spd_dense)
        assert np.allclose(ctx.lower_solve(b25), np.linalg.solve(L, b25))
        assert np.allclose(ctx.upper_solve(b25), np.linalg.solve(U, b25))

    def test_matvec_reuses_workspace(self, spd, b25):
        ctx = _ctx(spd, ops=("mvm",))
        y1 = ctx.matvec(b25)
        y2 = ctx.matvec(2.0 * b25)
        assert y1 is y2  # same preallocated buffer

    def test_matvec_explicit_out(self, spd, spd_dense, b25):
        ctx = _ctx(spd, ops=("mvm",))
        out = np.zeros(25)
        got = ctx.matvec(b25, out)
        assert got is out
        assert np.allclose(out, spd_dense @ b25)

    def test_solve_in_place(self, spd, b25):
        ctx = _ctx(spd)
        b = b25.copy()
        got = ctx.lower_solve(b, in_place=True)
        assert got is b
        b2 = b25.copy()
        got2 = ctx.lower_solve(b2)
        assert got2 is not b2
        assert np.array_equal(b2, b25)  # input untouched
        assert np.array_equal(got, got2)

    def test_solve_without_ts_ops_raises(self, spd, b25):
        ctx = _ctx(spd, ops=("mvm",))
        with pytest.raises(ValueError, match="ts_lower"):
            ctx.lower_solve(b25)
        with pytest.raises(ValueError, match="ts_upper"):
            ctx.upper_solve(b25)

    def test_diag(self, spd, spd_dense):
        ctx = _ctx(spd, ops=("mvm",))
        assert np.array_equal(ctx.diag, np.diag(spd_dense))
        assert ctx.diag is ctx.diag  # computed once


class TestFallback:
    def test_compile_fallback_stays_correct(self, b25, no_plan_for):
        # an op the search has no plan for is compiled over the matrix's
        # CSR image, observably, and keeps solving correctly
        no_plan_for(*ALL_OPS)
        spd = laplacian_2d(5)
        D = spd.to_dense()
        for backend in BACKENDS:
            before = INSTR.get("solver.fallback.compile")
            images = INSTR.get("blas.fallback.csr_image")
            ctx = _ctx(spd, fmt="dia", ops=ALL_OPS, backend=backend)
            assert (INSTR.get("solver.fallback.compile")
                    == before + len(ALL_OPS))
            assert (INSTR.get("blas.fallback.csr_image")
                    == images + len(ALL_OPS))
            assert set(ctx.fallbacks) == set(ALL_OPS)
            assert all(why.startswith("PlanError: ")
                       for why in ctx.fallbacks.values())
            assert set(ctx.backends.values()) <= {backend, "python"}
            assert np.allclose(ctx.lower_solve(b25),
                               np.linalg.solve(np.tril(D), b25))
            assert np.allclose(ctx.matvec_t(b25), D.T @ b25)
            x, _, _ = cg(ctx, b25, tol=1e-12)
            assert np.allclose(D @ x, b25, atol=1e-8)
            # the registered handles are the same image kernels
            assert np.array_equal(blas_api.mvm(ctx.A, b25), ctx.matvec(b25))

    def test_misspelt_backend_raises(self, spd):
        # only a missing plan demotes: a wrong request reaches the caller
        with pytest.raises(ValueError, match="backend must be"):
            _ctx(spd, ops=("mvm", "ts_lower"), backend="fortran")

    def test_ts_ops_bind_on_csr_split_for_any_format(self, b25):
        # the triangular ops always bind to the CSR triangular split, so
        # even a DIA matrix (no legal TS plan of its own) gets compiled
        # triangular solves
        spd = laplacian_2d(5)
        ctx = _ctx(spd, fmt="dia", ops=ALL_OPS, backend="python")
        assert ctx.backends["ts_lower"] == "python"
        assert ctx.L.format_name == "csr"
        D = spd.to_dense()
        assert np.allclose(ctx.lower_solve(b25),
                           np.linalg.solve(np.tril(D), b25))

    def test_context_never_raises_for_missing_fast_path(self, spd,
                                                         no_plan_for):
        # no plan for the op: the context binds it over the CSR image,
        # it does not raise
        no_plan_for("mvm")
        ctx = _ctx(spd, ops=("mvm",))
        assert ctx.bound("mvm") is not None
        assert "mvm" in ctx.fallbacks
        assert np.allclose(ctx.matvec(np.ones(25)),
                           spd.to_dense() @ np.ones(25))

    def test_an_op_not_requested_runs_the_plain_call(self, spd, b25):
        ctx = _ctx(spd, ops=("ts_upper",))
        assert ctx.bound("mvm") is None and ctx.bound("ts_lower") is None
        D = spd.to_dense()
        assert np.allclose(ctx.matvec(b25), D @ b25)
        assert np.allclose(ctx.lower_solve(b25),
                           np.linalg.solve(np.tril(D), b25))


class TestSelection:
    def test_select_picks_format(self):
        m = laplacian_2d(4)
        ctx = SolverContext(as_format(m, "coo"), ops=("mvm",),
                            backend="python", select=True,
                            candidates=("csr", "coo", "jad"))
        assert ctx.selection is not None
        assert ctx.format_name == ctx.selection.best[0]
        b = np.random.default_rng(7).random(16)
        assert np.allclose(ctx.matvec(b), m.to_dense() @ b)

    def test_select_failure_keeps_input(self, monkeypatch):
        from repro.core.plan import PlanError

        def boom(*a, **kw):
            raise PlanError("forced")

        import repro.search.format_select as fs
        monkeypatch.setattr(fs, "select_format", boom)
        before = INSTR.get("solver.fallback.select")
        m = laplacian_2d(3)
        ctx = SolverContext(as_format(m, "csr"), ops=("mvm",),
                            backend="python", select=True)
        assert INSTR.get("solver.fallback.select") == before + 1
        assert ctx.selection_error == "forced"
        assert ctx.format_name == "csr"


class TestKernelHandles:
    def test_registered_by_default(self, spd, spd_dense, b25):
        A = as_format(spd, "csr")
        SolverContext(A, ops=("mvm",), backend="python")
        assert blas_api.kernel_handle(A, "mvm") is not None
        before = INSTR.get("blas.handle.hits")
        y = blas_api.mvm(A, b25)
        assert INSTR.get("blas.handle.hits") == before + 1
        assert np.allclose(y, spd_dense @ b25)

    def test_handle_matches_plain_dispatch_bitwise(self, spd, b25):
        A_plain = as_format(spd, "csr")
        A_ctx = as_format(spd, "csr")
        SolverContext(A_ctx, ops=("mvm",), backend="python")
        assert np.array_equal(blas_api.mvm(A_plain, b25),
                              blas_api.mvm(A_ctx, b25))

    def test_register_false(self, spd):
        A = as_format(spd, "csr")
        SolverContext(A, ops=("mvm",), backend="python", register=False)
        assert blas_api.kernel_handle(A, "mvm") is None

    def test_clear(self, spd):
        A = as_format(spd, "csr")
        SolverContext(A, ops=("mvm",), backend="python")
        blas_api.clear_kernel_handles(A)
        assert blas_api.kernel_handle(A, "mvm") is None
        blas_api.clear_kernel_handles(A)  # idempotent

    def test_a_deep_copy_carries_no_handle(self, spd, spd_dense, b25):
        """A copy of a matrix with handles is a matrix without: its own
        values answer, not the original's through the original's handle."""
        import copy

        A = as_format(spd, "csr")
        SolverContext(A, ops=("mvm",), backend="python")
        C = copy.deepcopy(A)
        C.values *= 2
        assert blas_api.kernel_handle(C, "mvm") is None
        assert np.allclose(blas_api.mvm(C, b25), 2 * spd_dense @ b25)
        assert np.allclose(blas_api.mvm(A, b25), spd_dense @ b25)

    def test_a_matrix_with_handles_pickles(self, spd, spd_dense, b25):
        import pickle

        A = as_format(spd, "csr")
        SolverContext(A, ops=("mvm",), backend="python")
        B = pickle.loads(pickle.dumps(A))
        assert blas_api.kernel_handle(B, "mvm") is None
        assert np.array_equal(B.to_dense(), spd_dense)

    def test_a_matrix_with_handles_is_cached_on_disk(self, spd, tmp_path,
                                                     monkeypatch):
        from repro.core.cache import COMPILE_CACHE
        from repro.core.compiler import compile_kernel
        from repro.ir.kernels import mvm

        A = as_format(spd, "csr")
        SolverContext(A, ops=("mvm",), backend="python")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        COMPILE_CACHE.clear()               # the entry has to be written
        before = INSTR.get("cache.disk.save_errors")
        compile_kernel(mvm(), {"A": A}, cache="disk")
        assert INSTR.get("cache.disk.save_errors") == before
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_ts_handles_serve_functional_api(self, spd, b25):
        ctx = _ctx(spd)
        got = blas_api.ts_lower_solve(ctx.L, b25)
        want = np.linalg.solve(np.tril(spd.to_dense()), b25)
        assert np.allclose(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropping_context_and_matrix_frees_both_without_gc(
            self, spd, b25, backend):
        """The handle a matrix carries must not hold the matrix: once the
        context and the matrix are dropped, the matrix, its triangular
        parts and the bound kernel die by reference count alone.  (A
        compile-cache entry pins the instance it was searched with, by
        design, so the cache is cleared.  The search leaves no cyclic
        garbage (``tests/test_search_sharing.py``), but the compile around
        it may: an exec'd Python kernel is its own cycle, and one
        collection *before* the drop removes what there is.)"""
        import gc
        import weakref

        from repro.core.cache import clear_compile_cache

        A = as_format(spd, "csr")
        ctx = SolverContext(A, ops=("mvm", "ts_lower", "ts_upper"),
                            backend=backend)
        assert set(ctx.backends.values()) == {backend}
        held = [A, ctx.L, ctx.U]
        if backend == "c":     # (an exec'd Python kernel is its own cycle)
            held += [ctx.bound("mvm").fn, ctx.bound("ts_lower").fn]
        refs = [weakref.ref(o) for o in held]
        del held
        gc.collect()
        gc.disable()
        try:
            clear_compile_cache()
            del ctx
            # the handle outlives the context: it lives on the matrix
            before = INSTR.get("blas.handle.hits")
            blas_api.mvm(A, b25)
            assert INSTR.get("blas.handle.hits") == before + 1
            del A
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestTrajectoryIdentity:
    """The context-backed Python path must be byte-identical to the plain
    path (a plain matrix binds the compiled C kernel on its first call) and
    to the hand-written kernel: same float ops in the same order
    (acceptance criterion)."""

    def test_cg(self, spd, b25):
        x1, it1, r1 = cg(as_format(spd, "csr"), b25, tol=1e-12)
        x2, it2, r2 = cg(_ctx(spd, ops=("mvm",)), b25, tol=1e-12)
        assert it1 == it2 and r1 == r2
        assert np.array_equal(x1, x2)

    def test_cg_against_the_hand_kernel(self, spd, b25):
        from tests.oracles.hand_blas import mvm_csr

        A = as_format(spd, "csr")
        x1, it1, r1 = cg(A, b25, tol=1e-12,
                         matvec=lambda x: mvm_csr(A, x, np.zeros(A.nrows)))
        x2, it2, r2 = cg(_ctx(spd, ops=("mvm",)), b25, tol=1e-12)
        assert it1 == it2 and r1 == r2
        assert np.array_equal(x1, x2)

    def test_bicgstab(self, rng):
        n = 24
        A0 = random_sparse(n, n, 0.2, seed=51, ensure_diag=True)
        b = rng.random(n)
        x1, it1, r1 = bicgstab(as_format(A0, "csr"), b, tol=1e-12)
        ctx = SolverContext(as_format(A0, "csr"), ops=("mvm",),
                            backend="python")
        x2, it2, r2 = bicgstab(ctx, b, tol=1e-12)
        assert it1 == it2 and r1 == r2
        assert np.array_equal(x1, x2)

    def test_gmres(self, rng):
        n = 20
        A0 = random_sparse(n, n, 0.2, seed=41, ensure_diag=True)
        b = rng.random(n)
        x1, it1, r1 = gmres(as_format(A0, "csr"), b, tol=1e-12)
        ctx = SolverContext(as_format(A0, "csr"), ops=("mvm",),
                            backend="python")
        x2, it2, r2 = gmres(ctx, b, tol=1e-12)
        assert it1 == it2 and r1 == r2
        assert np.array_equal(x1, x2)

    def test_jacobi(self, spd, b25):
        x1, it1, _ = jacobi(as_format(spd, "csr"), b25, tol=1e-12,
                            max_iter=5000)
        x2, it2, _ = jacobi(_ctx(spd, ops=("mvm",)), b25, tol=1e-12,
                            max_iter=5000)
        assert it1 == it2
        assert np.array_equal(x1, x2)

    def test_sor(self, spd, b25):
        x1, it1, _ = sor(as_format(spd, "csr"), b25, omega=1.5, tol=1e-12,
                         max_iter=5000)
        x2, it2, _ = sor(_ctx(spd, ops=("mvm",)), b25, omega=1.5, tol=1e-12,
                         max_iter=5000)
        assert it1 == it2
        assert np.array_equal(x1, x2)

    def test_power_method(self, spd):
        lam1, v1, it1 = power_method(as_format(spd, "csr"), tol=1e-11,
                                     max_iter=20000)
        lam2, v2, it2 = power_method(_ctx(spd, ops=("mvm",)), tol=1e-11,
                                     max_iter=20000)
        assert it1 == it2 and lam1 == lam2
        assert np.array_equal(v1, v2)


class TestSolversThroughContext:
    """Every solver against the dense reference, context in the A slot,
    both backends when the toolchain exists."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cg(self, backend, spd, spd_dense, b25):
        x, it, _ = cg(_ctx(spd, backend=backend), b25, tol=1e-12)
        assert it > 0
        assert np.allclose(spd_dense @ x, b25, atol=1e-8)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cg_preconditioned(self, backend, spd, spd_dense, b25):
        ctx = _ctx(spd, backend=backend)
        x, it_prec, _ = cg(ctx, b25, tol=1e-12,
                           precond=ctx.preconditioner("sgs"))
        _, it_plain, _ = cg(ctx, b25, tol=1e-12)
        assert it_prec < it_plain
        assert np.allclose(spd_dense @ x, b25, atol=1e-8)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bicgstab(self, backend, rng):
        n = 24
        A0 = random_sparse(n, n, 0.2, seed=51, ensure_diag=True)
        b = rng.random(n)
        ctx = SolverContext(as_format(A0, "csr"), ops=("mvm",),
                            backend=backend)
        x, it, _ = bicgstab(ctx, b, tol=1e-12)
        assert np.allclose(A0.to_dense() @ x, b, atol=1e-7)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gmres(self, backend, rng):
        n = 20
        A0 = random_sparse(n, n, 0.2, seed=41, ensure_diag=True)
        b = rng.random(n)
        ctx = SolverContext(as_format(A0, "csr"), ops=("mvm",),
                            backend=backend)
        x, it, _ = gmres(ctx, b, tol=1e-12)
        assert np.allclose(A0.to_dense() @ x, b, atol=1e-7)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_jacobi(self, backend, spd, spd_dense, b25):
        x, _, _ = jacobi(_ctx(spd, backend=backend), b25, tol=1e-12,
                         max_iter=5000)
        assert np.allclose(spd_dense @ x, b25, atol=1e-7)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gauss_seidel(self, backend, spd, spd_dense, b25):
        x, _, _ = gauss_seidel(_ctx(spd, backend=backend), b25, tol=1e-12,
                               max_iter=5000)
        assert np.allclose(spd_dense @ x, b25, atol=1e-7)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_power_method(self, backend, spd, spd_dense):
        lam, _, _ = power_method(_ctx(spd, backend=backend), tol=1e-11,
                                 max_iter=20000)
        assert abs(lam - np.linalg.eigvalsh(spd_dense)[-1]) < 1e-5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pagerank(self, backend):
        link = (random_sparse(30, 30, 0.1, seed=2).to_dense() > 0)
        link = link.astype(float)
        np.fill_diagonal(link, 0.0)
        pr_ref, it_ref = pagerank(as_format(link, "csr"))
        pr, it = pagerank(as_format(link, "csr"), backend=backend)
        assert it == it_ref
        assert np.allclose(pr, pr_ref, atol=1e-12)
        assert abs(pr.sum() - 1.0) < 1e-8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_context_kwarg(self, backend, spd, spd_dense, b25):
        A = as_format(spd, "csr")
        ctx = SolverContext(A, ops=("mvm",), backend=backend,
                            register=False)
        x, _, _ = cg(A, b25, tol=1e-12, context=ctx)
        assert np.allclose(spd_dense @ x, b25, atol=1e-8)

    def test_iterations_counted(self, spd, b25):
        before = INSTR.get("solver.iterations")
        _, it, _ = cg(_ctx(spd, ops=("mvm",)), b25, tol=1e-12)
        assert INSTR.get("solver.iterations") >= before + it

    def test_iterate_phase_recorded(self, spd, b25):
        before = INSTR.time("solver.iterate")
        cg(_ctx(spd, ops=("mvm",)), b25, tol=1e-12)
        assert INSTR.time("solver.iterate") > before


class TestNativePath:
    @pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
    def test_c_backend_actually_native(self, spd):
        ctx = _ctx(spd, backend="c")
        assert ctx.backends["mvm"] in ("c", "c+openmp")

    def test_no_toolchain_demotes_gracefully(self, spd, b25, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        import warnings

        from repro.core import NativeBackendWarning

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NativeBackendWarning)
                ctx = _ctx(spd, ops=("mvm",), backend="c", cache="off")
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()
        # generated Python still serves the fast path
        assert ctx.backends["mvm"] == "python"
        x, _, _ = cg(ctx, b25, tol=1e-12)
        assert np.allclose(spd.to_dense() @ x, b25, atol=1e-8)


class TestPreconditioners:
    def test_context_sgs_matches_plain(self, spd, b25):
        A = as_format(spd, "csr")
        ctx = _ctx(spd)
        z1 = TriangularPreconditioner(A)(b25)
        z2 = ctx.preconditioner("sgs")(b25)
        assert np.allclose(z1, z2)

    def test_context_jacobi_matches_plain(self, spd, b25):
        A = as_format(spd, "csr")
        ctx = _ctx(spd, ops=("mvm",))
        z1 = JacobiPreconditioner(A)(b25)
        z2 = ctx.preconditioner("jacobi")(b25)
        assert np.array_equal(z1, z2)

    def test_none_kind(self, spd, b25):
        ctx = _ctx(spd, ops=("mvm",))
        assert ctx.preconditioner("none")(b25) is b25

    def test_bad_kind(self, spd):
        with pytest.raises(ValueError):
            _ctx(spd, ops=("mvm",)).preconditioner("ilu")

    def test_jacobi_rejects_zero_diag_via_context(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        ctx = SolverContext(a, ops=("mvm",), backend="python")
        with pytest.raises(ValueError):
            ctx.preconditioner("jacobi")


class TestResolveMatvec:
    def test_plain_matrix(self, spd, spd_dense, b25):
        A = as_format(spd, "csr")
        got_A, mv = resolve_matvec(A, None, None)
        assert got_A is A
        assert np.allclose(mv(b25), spd_dense @ b25)

    def test_explicit_matvec_wins(self, spd, b25):
        A = as_format(spd, "csr")
        calls = []

        def f(v):
            calls.append(1)
            return v

        _, mv = resolve_matvec(A, f, _ctx(spd, ops=("mvm",)))
        mv(b25)
        assert calls

    def test_context_in_matrix_slot(self, spd, b25):
        ctx = _ctx(spd, ops=("mvm",))
        got_A, mv = resolve_matvec(ctx, None, None)
        assert got_A is ctx.A
        assert mv == ctx.matvec


class TestMatmatEmptyPanel:
    """k = 0 panels: a fresh (m, 0) result, and no eviction of the
    width-keyed workspace for a degenerate width."""

    def test_matmat_k0(self, spd, spd_dense, b25):
        ctx = _ctx(spd, ops=("spmm", "spmm_t"))
        X = np.stack([b25, 2.0 * b25], axis=1)
        Y = ctx.matmat(X)                      # primes the k=2 workspace
        assert np.allclose(Y, spd_dense @ X)
        ws = ctx._Y2
        Z = ctx.matmat(np.zeros((25, 0)))
        assert Z.shape == (25, 0)
        assert ctx._Y2 is ws                   # workspace untouched
        Zt = ctx.matmat_t(np.zeros((25, 0)))
        assert Zt.shape == (25, 0)
        # caller buffer passes straight through
        buf = np.zeros((25, 0))
        assert ctx.matmat(np.zeros((25, 0)), buf) is buf


def test_panel_width_is_per_call(spd, spd_dense):
    """Two panels of different widths through one bound ``spmm``, the
    second entering while the first is being dispatched (as a second
    thread would): each call runs its own ``k``."""
    b = _ctx(spd, ops=("spmm",)).bound("spmm")
    fn, seen = b.fn, []
    X3, X5 = (np.random.default_rng(k).random((25, k)) for k in (3, 5))
    Y3, Y5 = np.zeros((25, 3)), np.zeros((25, 5))

    def reentering(arrays, params):
        if not seen:
            seen.append(True)
            b.apply_mm(X5, Y5)
        fn(arrays, params)

    b.fn = reentering
    b.apply_mm(X3, Y3)
    assert np.allclose(Y5, spd_dense @ X5)
    assert np.allclose(Y3, spd_dense @ X3)


class TestNormalProducts:
    def test_normal_ata_cached(self, spd, spd_dense):
        ctx = _ctx(spd, ops=("mvm",))
        ata = ctx.normal("ata")
        assert np.allclose(ata.to_dense(), spd_dense.T @ spd_dense)
        assert ctx.normal("ata") is ata
        aat = ctx.normal("aat")
        assert np.allclose(aat.to_dense(), spd_dense @ spd_dense.T)

    def test_normal_out_format_forwarded(self, spd):
        ctx = _ctx(spd, ops=("mvm",))
        got = ctx.normal("ata", out_format="csc")
        assert got.format_name == "csc"
