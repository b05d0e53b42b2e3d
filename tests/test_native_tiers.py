"""Optimization tiers of the native backend: byte-identity of the tiled
tier, demotion observability, the env knobs (REPRO_OPT / REPRO_CFLAGS),
the native SpGEMM tier, the prepared-argument dispatch fast path, and the
autotuner's (format, tier) axis.

Tests that need the real toolchain check ``find_compiler()`` and skip
without one; the demotion tests force its absence and assert the
fallback is observable rather than silent.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import banded, laplacian_2d, random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS
from repro.util.env import EnvVarWarning

N = 24


def _native_or_skip():
    if be.find_compiler() is None:
        pytest.skip("no C toolchain")


def _compile(kernel_name, array_name, inst, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        return compile_kernel(ALL_KERNELS[kernel_name](),
                              {array_name: inst}, **kwargs)


class TestTiledByteIdentity:
    """opt="tiled" reorders nothing: outputs must be byte-identical to
    the Python backend across kernels and formats (acceptance)."""

    @pytest.mark.parametrize("fmt_name", ["csr", "dia", "ell", "msr"])
    def test_mvm(self, fmt_name, rng):
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2).to_dense(), fmt_name)
        kp = _compile("mvm", "A", A)
        kt = _compile("mvm", "A", A, backend="c", opt="tiled")
        assert kt.opt_used == "tiled"
        x = rng.random(N)
        yp, yt = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kt({"A": A, "x": x, "y": yt}, {"m": N, "n": N})
        assert yp.tobytes() == yt.tobytes()

    def test_spmm_register_tile(self, rng):
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2), "csr")
        kp = _compile("spmm", "A", A)
        kt = _compile("spmm", "A", A, backend="c", opt="tiled")
        spec = kt.native().spec
        assert "register_tile" in spec.transforms
        for k in (1, 7, 8, 19):     # remainder loop coverage on k % 8
            X = rng.random((N, k))
            Yp, Yt = np.zeros((N, k)), np.zeros((N, k))
            kp({"A": A, "X": X, "Y": Yp}, {"m": N, "n": N, "k": k})
            kt({"A": A, "X": X, "Y": Yt}, {"m": N, "n": N, "k": k})
            assert Yp.tobytes() == Yt.tobytes()

    def test_transforms_recorded_and_digested(self):
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2), "dia")
        kt = _compile("mvm", "A", A, backend="c", opt="tiled")
        spec = kt.native().spec
        assert spec.opt == "tiled"
        assert "guard_absorb" in spec.transforms
        # restrict-qualified signature is a tiled-tier property
        assert "restrict" in spec.c_source
        naive = _compile("mvm", "A", A, backend="c", opt="none").native().spec
        assert naive.transforms == []
        assert "restrict" not in naive.c_source

    def test_tier_counter_ticks(self):
        _native_or_skip()
        A = as_format(random_sparse(N, N, 0.3, seed=5), "csr")
        before = INSTR.get("native.tier.tiled")
        k = _compile("mvm", "A", A, backend="c", opt="tiled")
        assert k.native() is not None
        assert INSTR.get("native.tier.tiled") == before + 1


class TestTierFlags:
    def test_no_tier_permits_fp_contraction(self):
        tiled = be.tier_cflags("tiled")
        assert "-ffp-contract=off" in tiled
        assert "-fopenmp-simd" in tiled
        naive = be.tier_cflags("none")
        assert "-ffp-contract=off" in naive
        assert "-fopenmp-simd" not in naive


class TestDemotion:
    """Requesting a tier the toolchain cannot honor demotes observably:
    counters tick, a warning names the reason, and the kernel still
    executes correctly through the next tier down."""

    def test_no_toolchain_demotes_to_python(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        try:
            demotions = INSTR.get("native.tier.demotion.no_toolchain")
            A = as_format(random_sparse(N, N, 0.3, seed=5), "csr")
            with pytest.warns(NativeBackendWarning):
                k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                   backend="c", opt="tiled")
            assert k.native() is None
            assert k.backend_used == "python"
            assert k.fallback_reason is not None
            assert INSTR.get("native.tier.demotion.no_toolchain") \
                == demotions + 1
            x = rng.random(N)
            y = np.zeros(N)
            k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
            assert np.allclose(y, A.to_dense() @ x)
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()

    def test_simd_probe_failure_demotes_to_naive_native(self, rng,
                                                        monkeypatch):
        _native_or_skip()
        monkeypatch.setattr(be, "simd_supported", lambda cc: False)
        demotions = INSTR.get("native.tier.demotion.simd_probe")
        A = as_format(random_sparse(N, N, 0.3, seed=6), "csr")
        with pytest.warns(NativeBackendWarning):
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                               backend="c", opt="tiled")
        # demoted to the naive *native* tier, not to Python
        assert k.native() is not None
        assert k.opt == "tiled" and k.opt_used == "none"
        assert INSTR.get("native.tier.demotion.simd_probe") == demotions + 1
        x = rng.random(N)
        y = np.zeros(N)
        k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        assert np.allclose(y, A.to_dense() @ x)

    def test_repr_shows_demotion(self, monkeypatch):
        _native_or_skip()
        monkeypatch.setattr(be, "simd_supported", lambda cc: False)
        A = as_format(random_sparse(N, N, 0.3, seed=6), "csr")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                               backend="c", opt="tiled")
        assert "opt=tiled->none" in repr(k)


class TestEnvKnobs:
    def test_repro_opt_env_default(self, monkeypatch):
        _native_or_skip()
        monkeypatch.setenv("REPRO_OPT", "tiled")
        A = as_format(random_sparse(N, N, 0.3, seed=7), "csr")
        k = _compile("mvm", "A", A, backend="c")
        assert k.opt == "tiled" and k.opt_used == "tiled"

    def test_repro_opt_invalid_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "warp9")
        A = as_format(random_sparse(N, N, 0.3, seed=7), "csr")
        with pytest.warns(EnvVarWarning):
            k = _compile("mvm", "A", A, backend="c")
        assert k.opt == "none"

    def test_explicit_invalid_opt_raises(self):
        A = as_format(random_sparse(N, N, 0.3, seed=7), "csr")
        with pytest.raises(ValueError, match="opt"):
            compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, backend="c",
                           opt="warp9")

    def test_repro_cflags_appended_and_digested(self, rng, monkeypatch):
        _native_or_skip()
        src = ("#include <stdint.h>\n"
               "void kernel(int64_t n, double *y) {\n"
               "    for (int64_t i = 0; i < n; i++) y[i] = MARK;\n"
               "}\n")
        from repro.util.env import env_flags

        cc = be.find_compiler()
        monkeypatch.setenv("REPRO_CFLAGS", "-DMARK=2.0")
        d1 = be.artifact_key(src, tuple(env_flags("REPRO_CFLAGS")), cc)
        fn1, _ = be.compile_native_function(src, want_openmp=False,
                                            cache_mode="memory")
        monkeypatch.setenv("REPRO_CFLAGS", "-DMARK=3.0")
        d2 = be.artifact_key(src, tuple(env_flags("REPRO_CFLAGS")), cc)
        fn2, _ = be.compile_native_function(src, want_openmp=False,
                                            cache_mode="memory")
        assert d1 != d2          # flags are part of the artifact digest
        import ctypes
        # and the cache honored it: same source, different flags, two
        # distinct binaries — 2.0 then 3.0, never a stale .so
        for fn, want in ((fn1, 2.0), (fn2, 3.0)):
            fn.argtypes = [ctypes.c_int64, ctypes.c_void_p]
            fn.restype = None
            y = np.zeros(4)
            fn(4, ctypes.c_void_p(y.ctypes.data))
            assert np.all(y == want)

    def test_repro_cflags_malformed_warns_and_ignores(self, monkeypatch):
        from repro.util.env import env_flags

        monkeypatch.setenv("REPRO_CFLAGS", "'unterminated")
        with pytest.warns(EnvVarWarning):
            assert env_flags("REPRO_CFLAGS") == []


class TestPreparedDispatch:
    """The NativeKernel prepared-argument fast path must never serve
    stale pointers: identity-checked arrays, value-checked scalars."""

    def test_repeat_calls_use_prepared_path(self, rng):
        _native_or_skip()
        A = as_format(random_sparse(N, N, 0.3, seed=9), "csr")
        k = _compile("mvm", "A", A, backend="c")
        nk = k.native()
        x = rng.random(N)
        y = np.zeros(N)
        arrays, params = {"A": A, "x": x, "y": y}, {"m": N, "n": N}
        nk(arrays, params)
        before = INSTR.get("native.dispatch.prepared")
        nk(arrays, params)
        assert INSTR.get("native.dispatch.prepared") == before + 1
        # in-place mutation through the same buffers stays correct
        x[:] = rng.random(N)
        nk(arrays, params)
        assert np.allclose(y, A.to_dense() @ x)

    def test_swapped_array_invalidates_preparation(self, rng):
        _native_or_skip()
        A = as_format(random_sparse(N, N, 0.3, seed=9), "csr")
        k = _compile("mvm", "A", A, backend="c")
        nk = k.native()
        x1, x2 = rng.random(N), rng.random(N)
        y = np.zeros(N)
        params = {"m": N, "n": N}
        nk({"A": A, "x": x1, "y": y}, params)
        nk({"A": A, "x": x2, "y": y}, params)   # new object: must re-coerce
        assert np.allclose(y, A.to_dense() @ x2)


class TestSpgemmNativeTier:
    def test_byte_identity_and_counter(self):
        _native_or_skip()
        from repro.blas.api import spgemm_triples

        A = as_format(laplacian_2d(8), "csr")
        before = INSTR.get("spgemm.tier.native")
        rn, cn, vn, mn = spgemm_triples(A, A, tier="native")
        assert INSTR.get("spgemm.tier.native") == before + 1
        rv, cv, vv, mv = spgemm_triples(A, A, tier="vectorized")
        assert rn.tobytes() == np.ascontiguousarray(rv).tobytes()
        assert cn.tobytes() == np.ascontiguousarray(cv).tobytes()
        assert vn.tobytes() == np.ascontiguousarray(vv).tobytes()
        assert mn == mv

    def test_non_csr_operands_rejected(self):
        from repro.blas.api import spgemm_triples

        A = as_format(laplacian_2d(4), "csr")
        B = as_format(laplacian_2d(4), "coo")
        with pytest.raises(ValueError, match="CSR"):
            spgemm_triples(A, B, tier="native")

    def test_toolchain_reset_forgets_the_binding(self, monkeypatch):
        """A product, then ``REPRO_CC=none`` + ``reset_toolchain_cache()``:
        the next product must not keep running the already-loaded ``.so``
        — it falls back to the vectorized tier, counted and warned, with
        identical bytes."""
        _native_or_skip()
        from repro.blas.api import spgemm

        A = as_format(laplacian_2d(6), "csr")
        native = INSTR.get("spgemm.tier.native")
        C1 = spgemm(A, A)
        assert INSTR.get("spgemm.tier.native") == native + 1
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        try:
            fallbacks = INSTR.get("spgemm.tier.native_fallbacks")
            vectorized = INSTR.get("spgemm.tier.vectorized")
            with pytest.warns(NativeBackendWarning):
                C2 = spgemm(A, A)
            assert INSTR.get("spgemm.tier.native") == native + 1
            assert INSTR.get("spgemm.tier.native_fallbacks") == fallbacks + 1
            assert INSTR.get("spgemm.tier.vectorized") == vectorized + 1
            for field in ("rowptr", "colind", "values"):
                assert (getattr(C1, field).tobytes()
                        == getattr(C2, field).tobytes())
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()
        spgemm(A, A)                    # and the toolchain comes back
        assert INSTR.get("spgemm.tier.native") == native + 2


class TestAutotuneTierAxis:
    def _select(self, matrix, **kwargs):
        from repro.search.format_select import select_format

        return select_format(ALL_KERNELS["mvm"](), "A", matrix,
                             mode="auto", backend="c", repeats=2,
                             autotune_cache="memory", **kwargs)

    def test_winner_records_tier_and_replays_it(self, monkeypatch):
        _native_or_skip()
        from repro.search.autotune import clear_winner_cache

        # pin the base tier: under REPRO_OPT=tiled every ranked candidate
        # is already tiled and no "none" variants would be measured
        monkeypatch.delenv("REPRO_OPT", raising=False)
        clear_winner_cache()
        A = as_format(banded(600, bandwidth=3, seed=1), "csr")
        cold = self._select(A)
        assert not cold.cached
        # both tiers of at least one format were measured
        tiers = {c.tier for c in cold.choices if c.measured is not None}
        assert "tiled" in tiers and "none" in tiers

        B = as_format(banded(600, bandwidth=3, seed=2), "csr")
        runs = INSTR.get("autotune.microbench.runs")
        warm = self._select(B)
        assert warm.cached
        assert INSTR.get("autotune.microbench.runs") == runs   # zero warm
        best_cold, best_warm = cold.choices[0], warm.choices[0]
        assert best_warm.format_name == best_cold.format_name
        assert best_warm.tier == best_cold.tier
        assert best_warm.kernel.opt == best_cold.tier

    def test_pre_tier_record_replays_as_naive(self):
        """Back-compat: a winner record without a 'tier' key (written by
        an older version) replays at opt='none'."""
        from repro.formats.base import coo_dedup_sort
        from repro.search.format_select import _replay_winner

        A = as_format(banded(40, bandwidth=2, seed=1), "csr")
        rows, cols, vals = A.to_coo_arrays()
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, A.shape,
                                          order="row")
        record = {"format": "csr", "backend_used": "c",
                  "measured": {"csr": 1e-6}}
        res = _replay_winner(ALL_KERNELS["mvm"](), "A", A, record, rows,
                             cols, vals, A.bounds(), "c", {})
        choice = res.choices[0]
        assert choice.tier == "none"
        assert choice.kernel.opt == "none"
        assert choice.measured == 1e-6


class TestSolverContextTier:
    def test_explicit_opt_binds_tier(self, rng):
        _native_or_skip()
        from repro.solvers.context import SolverContext

        A = as_format(banded(200, bandwidth=3, seed=4), "csr")
        ctx = SolverContext(A, ops=("mvm",), backend="c", opt="tiled",
                            register=False)
        k = ctx.bound("mvm").kernel
        assert k.opt == "tiled" and k.opt_used == "tiled"
        x = rng.random(ctx.A.ncols)
        y = ctx.matvec(x).copy()
        assert np.allclose(y, ctx.A.to_dense() @ x)

    def test_auto_select_binds_tuned_tier(self):
        _native_or_skip()
        from repro.search.autotune import clear_winner_cache
        from repro.solvers.context import SolverContext

        clear_winner_cache()
        A = as_format(banded(600, bandwidth=3, seed=5), "csr")
        ctx = SolverContext(A, ops=("mvm",), select="auto", backend="c",
                            register=False)
        tuned = ctx.selection.choices[0].tier
        assert ctx.opt == tuned
        assert ctx.bound("mvm").kernel.opt == tuned
