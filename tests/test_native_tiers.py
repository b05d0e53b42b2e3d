"""The native schedule (``opt`` was an axis once; it is an echo now):
byte-identity and which transforms fire at the default, the ``opt``
keyword's remaining contract, ``REPRO_CFLAGS``, the native SpGEMM tier,
the prepared-argument dispatch fast path, and winner records from when
the autotuner had a (format, tier) axis.

Tests that need the real toolchain check ``find_compiler()`` and skip
without one; the no-toolchain test forces its absence and asserts the
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

#: what a test hands over for ``opt``: nothing, and both retired tiers
OPTS = (None, "none", "tiled")

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
    """The schedule reorders nothing: outputs must be byte-identical to
    the Python backend across kernels and formats (acceptance)."""

    @pytest.mark.parametrize("fmt_name", ["csr", "dia", "ell", "msr"])
    def test_mvm(self, fmt_name, rng):
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2).to_dense(), fmt_name)
        kp = _compile("mvm", "A", A)
        kt = _compile("mvm", "A", A, backend="c")
        x = rng.random(N)
        yp, yt = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kt({"A": A, "x": x, "y": yt}, {"m": N, "n": N})
        assert yp.tobytes() == yt.tobytes()

    def test_spmm_register_tile(self, rng):
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2), "csr")
        kp = _compile("spmm", "A", A)
        kt = _compile("spmm", "A", A, backend="c")
        spec = kt.native().spec
        assert spec.transforms == ["register_tile"]
        # the fill of the panel is the tile's: the 16-, 8- and 1-column
        # accumulators start from it and nothing else is zeroed
        assert spec.c_source.count("] = 0;") == 3
        assert "arr_Y[" not in spec.c_source.split("] = 0;")[0]
        # columns one at a time; one 8; 8s that overlap; a 16; 16s and 8s,
        # the last 8 moved back (k % 16 and k % 8 remainders)
        for k in (0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 32, 41):
            X = rng.random((N, k))
            Yp, Yt = np.zeros((N, k)), np.zeros((N, k))
            kp({"A": A, "X": X, "Y": Yp}, {"m": N, "n": N, "k": k})
            kt({"A": A, "X": X, "Y": Yt}, {"m": N, "n": N, "k": k})
            assert Yp.tobytes() == Yt.tobytes()

    def test_bsr_spmm_is_not_tiled(self, rng):
        """BSR accumulates a panel row across blocks, its fill far away:
        a tile would load and store the panel around every two-column
        block (measured 1.14-1.41x slower than the loops as they are)."""
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2).to_dense(), "bsr",
                      block_size=2)
        kp = _compile("spmm", "A", A)
        kt = _compile("spmm", "A", A, backend="c")
        assert kt.native().spec.transforms == []
        X = rng.random((N, 19))
        Yp, Yt = np.zeros((N, 19)), np.zeros((N, 19))
        kp({"A": A, "X": X, "Y": Yp}, {"m": N, "n": N, "k": 19})
        kt({"A": A, "X": X, "Y": Yt}, {"m": N, "n": N, "k": 19})
        assert Yp.tobytes() == Yt.tobytes()

    def test_transforms_recorded_and_digested(self):
        """What fired is on the spec whatever ``opt`` says, every pointer
        is ``restrict``, and the three spellings are one artifact."""
        _native_or_skip()
        A = as_format(banded(N, bandwidth=3, seed=2), "dia")
        specs = [_compile("mvm", "A", A, backend="c", opt=opt).native().spec
                 for opt in OPTS]
        for spec in specs:
            assert spec.transforms == ["guard_absorb"]
            assert "restrict" in spec.c_source
            assert "#pragma omp simd" not in spec.c_source
        assert len({spec.c_source for spec in specs}) == 1
        csc = as_format(banded(N, bandwidth=3, seed=2), "csc")
        plain = _compile("mvm", "A", csc, backend="c").native().spec
        assert plain.transforms == [] and "restrict" in plain.c_source
        # a kernel whose rows run in pairs is the one printed at -O1
        csr = as_format(banded(N, bandwidth=3, seed=2), "csr")
        paired = _compile("mvm", "A", csr, backend="c").native().spec
        assert paired.transforms == ["row_pair"]
        o1 = '__attribute__((optimize("O1")))\nvoid kernel('
        assert o1 in paired.c_source
        assert "optimize" not in specs[0].c_source + plain.c_source

    def test_opt_is_an_echo(self):
        """``opt="tiled"`` after ``opt="none"``: no second ``cc``, and
        both attributes read what was passed."""
        _native_or_skip()
        A = as_format(random_sparse(N, N, 0.3, seed=5), "csr")
        first = _compile("mvm", "A", A, backend="c", opt="none")
        assert (first.opt, first.opt_used) == ("none", "none")
        compiles = INSTR.get("native.compiles")
        again = _compile("mvm", "A", A, backend="c", opt="tiled")
        assert INSTR.get("native.compiles") == compiles
        assert again.backend_used == "c"
        assert (again.opt, again.opt_used) == ("tiled", "tiled")
        assert again.c_source == first.c_source
        default = _compile("mvm", "A", A, backend="c")
        assert (default.opt, default.opt_used) == ("none", "none")
        assert "opt=" not in repr(again)


class TestTierFlags:
    def test_no_tier_permits_fp_contraction(self):
        assert "-ffp-contract=off" in be._CFLAGS
        assert "-fopenmp-simd" not in be._CFLAGS


class TestDemotion:
    def test_no_toolchain_demotes_to_python(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        try:
            A = as_format(random_sparse(N, N, 0.3, seed=5), "csr")
            with pytest.warns(NativeBackendWarning):
                k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                   backend="c", opt="tiled")
            assert k.native() is None
            assert k.backend_used == "python"
            assert k.fallback_reason is not None
            x = rng.random(N)
            y = np.zeros(N)
            k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
            assert np.allclose(y, A.to_dense() @ x)
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()


class TestEnvKnobs:
    def test_repro_opt_is_not_read(self, monkeypatch):
        """The knob is gone: garbage in it neither warns nor changes
        anything."""
        monkeypatch.setenv("REPRO_OPT", "warp9")
        A = as_format(random_sparse(N, N, 0.3, seed=7), "csr")
        with warnings.catch_warnings():
            warnings.simplefilter("error", EnvVarWarning)
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A})
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
        from repro.blas.api import _spgemm_csr_csr_vectorized, spgemm_triples

        A = as_format(laplacian_2d(8), "csr")
        before = INSTR.get("spgemm.tier.native")
        rn, cn, vn, mn = spgemm_triples(A, A)
        assert INSTR.get("spgemm.tier.native") == before + 1
        rv, cv, vv, mv = _spgemm_csr_csr_vectorized(A, A)
        assert rn.tobytes() == np.ascontiguousarray(rv).tobytes()
        assert cn.tobytes() == np.ascontiguousarray(cv).tobytes()
        assert vn.tobytes() == np.ascontiguousarray(vv).tobytes()
        assert mn == mv

    def test_non_csr_operands_run_on_csr_images(self):
        _native_or_skip()
        from repro.blas.api import spgemm_triples

        A = as_format(laplacian_2d(4), "csr")
        B = as_format(laplacian_2d(4), "coo")
        before = INSTR.get("spgemm.tier.native")
        got = spgemm_triples(A, B)
        assert INSTR.get("spgemm.tier.native") == before + 1
        want = spgemm_triples(A, as_format(laplacian_2d(4), "csr"))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

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
    """The autotuner had a (format, tier) axis; records it wrote then
    still replay, with the tier ignored."""

    @staticmethod
    def _replay(record):
        from repro.formats.base import coo_dedup_sort
        from repro.search.format_select import _replay_winner

        A = as_format(banded(40, bandwidth=2, seed=1), "csr")
        rows, cols, vals = A.to_coo_arrays()
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, A.shape,
                                          order="row")
        res = _replay_winner(ALL_KERNELS["mvm"](), "A", A, record, rows,
                             cols, vals, A.bounds(), "c", {})
        return res.choices[0]

    def test_record_carrying_tier_still_replays(self):
        """A winner record written at the tiled tier: its format wins, its
        time is found under the ``format+tier`` key it was stored with."""
        choice = self._replay({"format": "csr", "tier": "tiled",
                               "backend_used": "c",
                               "measured": {"csr": 2e-6, "csr+tiled": 1e-6}})
        assert choice.format_name == "csr" and choice.measured == 1e-6
        assert choice.kernel.opt == "none"
        assert not hasattr(choice, "tier")

    def test_pre_tier_record_replays_as_naive(self):
        """Back-compat: a winner record without a 'tier' key (older
        still) replays too; ``opt`` reads its default."""
        choice = self._replay({"format": "csr", "backend_used": "c",
                               "measured": {"csr": 1e-6}})
        assert choice.kernel.opt == "none"
        assert choice.measured == 1e-6

    def test_new_records_name_no_tier(self):
        _native_or_skip()
        from repro.search.autotune import WINNER_CACHE, clear_winner_cache
        from repro.search.format_select import select_format

        clear_winner_cache()
        A = as_format(banded(600, bandwidth=3, seed=1), "csr")
        runs = INSTR.get("autotune.microbench.runs")
        cold = select_format(ALL_KERNELS["mvm"](), "A", A, mode="auto",
                             backend="c", repeats=2, topk=2,
                             autotune_cache="memory")
        # one measurement per top-k format, none per tier
        assert INSTR.get("autotune.microbench.runs") == runs + 2
        assert not cold.cached and cold.best[2].backend_used == "c"
        records = WINNER_CACHE.values()
        assert records and all("tier" not in r for r in records)
        assert all("+" not in name for r in records for name in r["measured"])


class TestSolverContextTier:
    def test_explicit_opt_binds_tier(self, rng):
        """The context forwards ``opt``; the kernel echoes it."""
        _native_or_skip()
        from repro.solvers.context import SolverContext

        A = as_format(banded(200, bandwidth=3, seed=4), "csr")
        ctx = SolverContext(A, ops=("mvm",), backend="c", opt="tiled",
                            register=False)
        k = ctx.bound("mvm").kernel
        assert k.opt == "tiled" and k.opt_used == "tiled"
        assert "opt=" not in repr(ctx)
        x = rng.random(ctx.A.ncols)
        y = ctx.matvec(x).copy()
        assert np.allclose(y, ctx.A.to_dense() @ x)
