"""Blocked-CG trajectory tests (satellite): ``block_cg(ctx, B)`` must be
column-wise byte-identical to k independent ``cg`` runs on the Python
backend (the batched SpMM changes the memory traffic, not the math),
converge on both backends against the dense reference, and demote
gracefully to the BLAS dispatch when the ``spmm`` compile fails."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blas import api as blas_api
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import laplacian_2d
from repro.instrument import INSTR
from repro.solvers import SolverContext, block_cg, cg

BACKENDS = ["python"] + (["c"] if be.find_compiler() else [])

N_SIDE = 5  # 25x25 SPD laplacian
K = 4


@pytest.fixture(scope="module")
def spd():
    return laplacian_2d(N_SIDE)


@pytest.fixture(scope="module")
def spd_dense(spd):
    return spd.to_dense()


@pytest.fixture(scope="module")
def B(spd):
    return np.random.default_rng(31).random((spd.nrows, K))


def _ctx(spd, ops=("mvm", "spmm"), backend="python", **kw):
    return SolverContext(as_format(spd, "csr"), ops=ops, backend=backend,
                         **kw)


class TestByteIdentity:
    """Column j of block_cg's every output is bitwise what an independent
    cg run on the same context produces — same update order, same
    stopping rules, same final residual."""

    def test_columns_match_independent_cg(self, spd, B):
        ctx = _ctx(spd)
        X, iters, res = block_cg(ctx, B, tol=1e-12)
        for j in range(K):
            xj, itj, rj = cg(ctx, B[:, j], tol=1e-12)
            assert np.array_equal(X[:, j], xj), f"column {j} diverged"
            assert iters[j] == itj
            assert res[j] == rj

    def test_columns_match_under_iteration_cap(self, spd, B):
        """A fixed budget freezes nothing early: trajectories still match
        bitwise at every column."""
        ctx = _ctx(spd)
        X, iters, _ = block_cg(ctx, B, tol=0.0, max_iter=7)
        for j in range(K):
            xj, itj, _ = cg(ctx, B[:, j], tol=0.0, max_iter=7)
            assert np.array_equal(X[:, j], xj)
            assert iters[j] == itj == 7

    def test_single_rhs_vector_matches_cg(self, spd, B):
        """A 1-D b goes through the k=1 panel path and returns 1-D."""
        ctx = _ctx(spd)
        b = B[:, 0]
        x_blk, it_blk, r_blk = block_cg(ctx, b, tol=1e-12)
        x, it, r = cg(ctx, b, tol=1e-12)
        assert x_blk.shape == x.shape
        assert np.array_equal(x_blk, x)
        assert it_blk == it and r_blk == r

    def test_x0_block(self, spd, B):
        ctx = _ctx(spd)
        X0 = np.random.default_rng(7).random(B.shape)
        X, _, _ = block_cg(ctx, B, X0=X0, tol=1e-12)
        for j in range(K):
            xj, _, _ = cg(ctx, B[:, j], x0=X0[:, j].copy(), tol=1e-12)
            assert np.array_equal(X[:, j], xj)


class TestConvergence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solves_vs_dense_reference(self, backend, spd, spd_dense, B):
        ctx = _ctx(spd, backend=backend)
        X, iters, res = block_cg(ctx, B, tol=1e-12)
        assert np.allclose(X, np.linalg.solve(spd_dense, B), atol=1e-8)
        assert (iters > 0).all()
        assert (res <= 1e-12 * np.linalg.norm(B, axis=0)).all()

    def test_plain_format_dispatch(self, spd, spd_dense, B):
        """No context at all: block_cg rides blas.api.mm per call."""
        X, _, _ = block_cg(as_format(spd, "csr"), B, tol=1e-12)
        assert np.allclose(X, np.linalg.solve(spd_dense, B), atol=1e-8)

    def test_explicit_matmat_callable(self, spd, spd_dense, B):
        calls = []

        def matmat(X):
            calls.append(X.shape)
            return spd_dense @ X

        X, _, _ = block_cg(spd, B, matmat=matmat, tol=1e-12)
        assert np.allclose(X, np.linalg.solve(spd_dense, B), atol=1e-8)
        assert calls and all(s == B.shape for s in calls)


class TestFallback:
    def test_spmm_compile_failure_demotes_observably(self, spd, spd_dense, B,
                                                     no_plan_for):
        """No plan for either op: the counters tick, the reasons are
        recorded, both ops run compiled over the matrix's CSR image, and
        block_cg still converges."""
        no_plan_for("mvm", "spmm")
        before = INSTR.get("solver.fallback.compile")
        ctx = _ctx(spd)
        assert INSTR.get("solver.fallback.compile") == before + 2
        assert set(ctx.fallbacks) == {"mvm", "spmm"}
        assert ctx.backends == {"mvm": "python", "spmm": "python"}
        assert ctx.bound("spmm") is not None
        X, _, _ = block_cg(ctx, B, tol=1e-12)
        assert np.allclose(X, np.linalg.solve(spd_dense, B), atol=1e-8)

    def test_misspelt_backend_raises(self, spd):
        with pytest.raises(ValueError, match="backend must be"):
            _ctx(spd, backend="fortran")


class TestMatmat:
    def test_matmat_workspace_reuse(self, spd, spd_dense, B):
        ctx = _ctx(spd)
        Y1 = ctx.matmat(B)
        Y2 = ctx.matmat(B)
        assert Y1 is Y2  # same (n, k) workspace while k is stable
        assert np.allclose(Y2, spd_dense @ B)
        Y3 = ctx.matmat(B[:, :2].copy())  # width change reallocates
        assert Y3.shape == (spd.nrows, 2)

    def test_matmat_t(self, spd, spd_dense, B):
        ctx = _ctx(spd, ops=("spmm_t",))
        assert np.allclose(ctx.matmat_t(B), spd_dense.T @ B)

    def test_handle_rides_functional_api(self, spd, spd_dense):
        """A context-bound spmm kernel serves plain blas.api.mm calls for
        the same instance through the handle cache."""
        inst = as_format(spd, "csr")
        SolverContext(inst, ops=("spmm",), backend="python")
        X = np.random.default_rng(3).random((spd.ncols, 3))
        before = INSTR.get("blas.handle.hits")
        Y = blas_api.mm(inst, X)
        assert INSTR.get("blas.handle.hits") == before + 1
        assert np.allclose(Y, spd_dense @ X)
