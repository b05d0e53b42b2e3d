"""Native C backend: parity with the Python kernels, OpenMP flavours,
artifact caching, and fallback behaviour.

Every test is toolchain-tolerant: where no C compiler exists the backend
falls back to the Python kernel (with a NativeBackendWarning), and the
numerical assertions hold either way.  Tests that specifically exercise
the *native* path first check ``find_compiler()`` and skip without one.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.core import NativeBackendWarning, PlanError, compile_kernel
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS
from tests.conftest import at_width

FORMATS = ["csr", "csc", "coo", "dia", "ell", "jad", "bsr", "msr"]

N = 12  # even, so bsr block_size=2 tiles exactly


def _fmt(matrix, name):
    kwargs = {"block_size": 2} if name == "bsr" else {}
    return as_format(matrix, name, **kwargs)


@pytest.fixture(scope="module")
def square():
    return random_sparse(N, N, density=0.35, seed=42).to_dense()


@pytest.fixture(scope="module")
def lower():
    return lower_triangular_of(random_sparse(N, N, 0.35, seed=7))


def _compile_pair(kernel_name, array_name, fmt, parallel="none"):
    """(python kernel, c kernel) for the same program/bindings."""
    prog = ALL_KERNELS[kernel_name]()
    kp = compile_kernel(prog, {array_name: fmt})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        kc = compile_kernel(ALL_KERNELS[kernel_name](), {array_name: fmt},
                            backend="c", parallel=parallel)
    return kp, kc


class TestParity:
    """backend="c" must be numerically identical to backend="python"
    across the full format x kernel matrix (acceptance criterion)."""

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_mvm(self, fmt_name, square, rng):
        A = _fmt(square, fmt_name)
        kp, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        params = {"m": N, "n": N}
        kp({"A": A, "x": x, "y": yp}, params)
        kc({"A": A, "x": x, "y": yc}, params)
        assert np.array_equal(yp, yc)

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_ts_lower(self, fmt_name, lower, rng):
        try:
            L = _fmt(lower, fmt_name)
        except (ValueError, NotImplementedError) as e:
            pytest.skip(f"{fmt_name} cannot hold this operand: {e}")
        try:
            kp, kc = _compile_pair("ts_lower", "L", L)
        except PlanError as e:
            pytest.skip(f"no legal plan for ts on {fmt_name}: {e}")
        b = rng.random(N)
        bp, bc = b.copy(), b.copy()
        params = {"m": N, "n": N}
        kp({"L": L, "b": bp}, params)
        kc({"L": L, "b": bc}, params)
        assert np.array_equal(bp, bc)

    @pytest.mark.parametrize("width", [np.int32, np.int64])
    def test_mvm_sym(self, width, square, rng):
        """SYM's two branches are declared level pairs (the mirror skips
        the diagonal), so the pair lowers: C, byte for byte the Python
        kernel, at both index widths."""
        A = at_width(_fmt(np.tril(square) + np.tril(square, -1).T, "sym"),
                     width)
        kp, kc = _compile_pair("mvm", "A", A)
        if be.find_compiler() is not None:
            assert kc.backend_used == "c", kc.fallback_reason
            assert ("int32_t *" in kc.c_source) == (width is np.int32)
            assert "if (M1_cc6 != M1_rr4)" in kc.c_source
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        assert yp.tobytes() == yc.tobytes()
        assert np.allclose(yp, A.to_dense() @ x)

    def test_run_also_dispatches_native(self, square, rng):
        A = _fmt(square, "csr")
        kp, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp.run({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc.run({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        assert np.array_equal(yp, yc)

    def test_int32_indices(self, square, rng):
        A = _fmt(square, "csr")
        for name in ("rowptr", "colind"):
            setattr(A, name, getattr(A, name).astype(np.int32))
        kp, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        assert np.array_equal(yp, yc)
        if kc.backend_used != "python":
            assert "int32_t *" in kc.c_source


@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
class TestOpenMP:
    def test_strict_parity(self, square, rng):
        A = _fmt(square, "csr")
        kp, kc = _compile_pair("mvm", "A", A, parallel="strict")
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        # strict DOALL loops reorder nothing within a reduction:
        # byte-identical results are required, not just allclose
        assert np.array_equal(yp, yc)
        if be.openmp_supported(be.find_compiler()):
            assert kc.backend_used == "c+openmp"
            assert "#pragma omp parallel for" in kc.c_source

    @pytest.mark.parametrize("kernel_name, fmt_name",
                             [("mvm", "csc"), ("mvm_t", "csr"),
                              ("mvm", "dia")])
    def test_strict_parity_nested_loop(self, kernel_name, fmt_name, square,
                                       rng):
        """The order-free loop sits inside a sequential one (two-versioned
        on its trip count): still byte-identical to ``parallel="none"``
        and to the Python kernel."""
        A = _fmt(square, fmt_name)
        kp, kc = _compile_pair(kernel_name, "A", A, parallel="strict")
        _, kn = _compile_pair(kernel_name, "A", A, parallel="none")
        x = rng.random(N)
        ys = [np.zeros(N) for _ in range(3)]
        for k, y in zip((kp, kc, kn), ys):
            k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        assert ys[0].tobytes() == ys[1].tobytes() == ys[2].tobytes()
        if be.openmp_supported(be.find_compiler()):
            assert kc.backend_used == "c+openmp"

    @pytest.mark.slow
    def test_strict_does_not_fork_per_column(self):
        """``mvm``/CSC on a 40k-row Laplacian: one team per 5-entry column
        made ``strict`` 200x slower than ``none``; it must stay within 3x.
        Own process, passive waiters: spinning OpenMP workers on a shared
        machine cost a scheduler quantum per region wherever the pragma
        sits, which is not what is being measured."""
        import subprocess
        import sys

        if not be.openmp_supported(be.find_compiler()):
            pytest.skip("toolchain has no OpenMP")
        script = (
            "import time, numpy as np\n"
            "from repro.core import compile_kernel\n"
            "from repro.formats import as_format\n"
            "from repro.formats.generate import laplacian_2d\n"
            "from repro.ir.kernels import mvm\n"
            "A = as_format(laplacian_2d(200), 'csc')\n"
            "n = A.nrows\n"
            "x, best, out = np.ones(n), {}, {}\n"
            "ks = {p: compile_kernel(mvm(), {'A': A}, backend='c', "
            "parallel=p) for p in ('none', 'strict')}\n"
            "assert ks['strict'].backend_used == 'c+openmp'\n"
            "for rep in range(8):\n"
            "    for p, k in ks.items():\n"
            "        out[p] = np.zeros(n)\n"
            "        t = time.perf_counter()\n"
            "        k({'A': A, 'x': x, 'y': out[p]}, {'m': n, 'n': n})\n"
            "        t = time.perf_counter() - t\n"
            "        best[p] = min(best.get(p, t), t)\n"
            "assert out['none'].tobytes() == out['strict'].tobytes()\n"
            "print(best['none'], best['strict'])\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OMP_NUM_THREADS="2", OMP_WAIT_POLICY="passive")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              check=True, capture_output=True, text=True)
        t_none, t_strict = map(float, proc.stdout.split())
        assert t_strict <= 3 * t_none, (t_none, t_strict)

    def test_sequential_kernel_has_no_pragmas(self, lower):
        L = _fmt(lower, "csr")
        _, kc = _compile_pair("ts_lower", "L", L, parallel="strict")
        if kc.backend_used == "python":
            pytest.skip("native path unavailable")
        # forward substitution has no strict DOALL loop
        assert "#pragma omp parallel for" not in kc.c_source


class TestObservability:
    def test_repr_records_backend(self, square):
        A = _fmt(square, "csr")
        _, kc = _compile_pair("mvm", "A", A)
        r = repr(kc)
        if kc.fallback_reason is None:
            assert "backend=c->c" in r
        else:
            assert "backend=c->python-fallback" in r

    def test_python_backend_repr_unchanged(self, square):
        A = _fmt(square, "csr")
        kp, _ = _compile_pair("mvm", "A", A)
        assert "backend=" not in repr(kp)

    def test_run_counters(self, square, rng):
        A = _fmt(square, "csr")
        _, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        before = INSTR.snapshot()["counters"]
        kc({"A": A, "x": x, "y": np.zeros(N)}, {"m": N, "n": N})
        after = INSTR.snapshot()["counters"]
        bumped = "backend.run.native" if kc.backend_used != "python" \
            else "backend.run.python"
        assert after.get(bumped, 0) == before.get(bumped, 0) + 1

    def test_lowering_fallback_is_observable(self, lower, rng):
        # COO triangular solve plans through a sorted enumeration, which
        # the lowering rejects: the kernel must fall back, record why,
        # and still compute the right answer
        L = _fmt(lower, "coo")
        prog = ALL_KERNELS["ts_lower"]()
        with pytest.warns(NativeBackendWarning):
            kc = compile_kernel(prog, {"L": L}, backend="c", cache="off")
        assert kc.backend_used == "python"
        assert kc.fallback_reason is not None
        assert kc.fallback_reason.startswith("lowering:")
        assert "python-fallback" in repr(kc)
        b = rng.random(N)
        got = b.copy()
        kc({"L": L, "b": got}, {"m": N, "n": N})
        kp = compile_kernel(ALL_KERNELS["ts_lower"](), {"L": L})
        want = b.copy()
        kp({"L": L, "b": want}, {"m": N, "n": N})
        assert np.array_equal(got, want)


class TestFallback:
    def test_no_toolchain_falls_back(self, square, rng, monkeypatch):
        """With no C compiler every kernel still works (acceptance
        criterion: no hard dependency on a toolchain)."""
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        try:
            A = _fmt(square, "csr")
            before = INSTR.get("native.fallback.toolchain")
            with pytest.warns(NativeBackendWarning):
                kc = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                    backend="c", cache="off")
            assert kc.backend_used == "python"
            assert kc.fallback_reason.startswith("toolchain:")
            assert INSTR.get("native.fallback.toolchain") == before + 1
            x = rng.random(N)
            y = np.zeros(N)
            kc({"A": A, "x": x, "y": y}, {"m": N, "n": N})
            assert np.allclose(y, square @ x)
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()

    def test_invalid_backend_rejected(self, square):
        with pytest.raises(ValueError, match="backend"):
            compile_kernel(ALL_KERNELS["mvm"](), {"A": _fmt(square, "csr")},
                           backend="fortran")
        with pytest.raises(ValueError, match="parallel"):
            compile_kernel(ALL_KERNELS["mvm"](), {"A": _fmt(square, "csr")},
                           parallel="speculative")


class TestAliasing:
    """Every pointer with a source of its own is ``restrict``, so a call
    whose written operand overlaps another must not reach the C function:
    it runs the Python kernel (same bytes as ever), is counted, is never
    prepared — and the next clean call is native and preparable again."""

    @staticmethod
    def _mvm_operands(how, rng):
        buf = rng.random(N + 4)
        if how == "same":
            return buf[:N], buf[:N]
        return buf[:N], buf[2:N + 2]            # y starts inside x

    @staticmethod
    def _check(kp, kc, arrays_of, params, out):
        """Run one aliased call through both kernels on twin operand sets
        and one clean call after it; return nothing, assert everything."""
        native = kc.backend_used == "c"
        want, got = arrays_of(), arrays_of()
        kp(want, params)
        aliased = INSTR.get("native.dispatch.aliased")
        coerced = INSTR.get("native.dispatch.coerced")
        kc(got, params)
        for name in want:
            if isinstance(want[name], np.ndarray):
                assert got[name].tobytes() == want[name].tobytes(), name
        assert INSTR.get("native.dispatch.aliased") == aliased + int(native)
        assert INSTR.get("native.dispatch.coerced") == coerced
        if not native:
            return
        # the bound function is what a BoundOp calls, with no
        # CompiledKernel in between: it must decline by itself
        again = arrays_of()
        kc.native()(again, params)
        assert again[out].tobytes() == want[out].tobytes()
        assert INSTR.get("native.dispatch.aliased") == aliased + 2
        assert kc.native()._prep is None        # never prepared
        clean = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                 for k, v in arrays_of().items()}
        ref = {k: (v.copy() if isinstance(v, np.ndarray) else v)
               for k, v in clean.items()}
        kp(ref, params)
        prepared = INSTR.get("native.dispatch.prepared")
        kc(clean, params)
        assert clean[out].tobytes() == ref[out].tobytes()
        assert INSTR.get("native.dispatch.aliased") == aliased + 2
        assert kc.native()._prep is not None
        kc(clean, params)
        assert INSTR.get("native.dispatch.prepared") == prepared + 1

    @pytest.mark.parametrize("how", ["same", "view"])
    @pytest.mark.parametrize("fmt_name", ["csr", "csc", "dia"])
    def test_mvm_output_overlaps_input(self, fmt_name, how, square):
        A = _fmt(square, fmt_name)
        kp, kc = _compile_pair("mvm", "A", A)

        def arrays_of():
            x, y = self._mvm_operands(how, np.random.default_rng(3))
            return {"A": A, "x": x, "y": y}

        self._check(kp, kc, arrays_of, {"m": N, "n": N}, "y")

    @pytest.mark.parametrize("k", [3, 16])
    def test_spmm_panel_overlaps_input(self, k, square):
        A = _fmt(square, "csr")
        kp, kc = _compile_pair("spmm", "A", A)

        def arrays_of():
            buf = np.random.default_rng(5).random((N + 1, k))
            return {"A": A, "X": buf[:N], "Y": buf[1:]}

        self._check(kp, kc, arrays_of, {"m": N, "n": N, "k": k}, "Y")

    def test_storage_array_as_operand(self, square):
        """The output may not be one of the matrix's own arrays either."""
        A = _fmt(square, "dia")
        kp, kc = _compile_pair("mvm", "A", A)
        if kc.backend_used != "c":
            pytest.skip("no C toolchain")
        x = np.random.default_rng(7).random(N)
        aliased = INSTR.get("native.dispatch.aliased")
        kc({"A": A, "x": x, "y": A.data[0]}, {"m": N, "n": N})
        assert INSTR.get("native.dispatch.aliased") == aliased + 1

    def test_bound_without_a_python_kernel_raises(self):
        """A hand-bound function has nothing to fall back on: the call is
        refused rather than run with ``restrict`` broken."""
        if be.find_compiler() is None:
            pytest.skip("no C toolchain")
        from repro.solvers.vecops import ENTRY_POINTS
        from tests.conftest import run_ir_native

        ir = ENTRY_POINTS["cg_update"]
        names = [a.name for a in ir.args if a.kind == "array"]
        v = np.ones(4)
        with pytest.raises(ValueError, match="overlaps another argument"):
            run_ir_native(ir, {name: v for name in names}, {"n": 4})

    def test_entry_points_fall_back_on_their_python_print(self):
        if be.find_compiler() is None:
            pytest.skip("no C toolchain")
        from repro.solvers.context import SolverContext
        from repro.solvers.vecops import ENTRY_POINTS
        from tests.conftest import run_ir_python

        ctx = SolverContext(as_format(np.eye(4) * 2.0, "csr"), ops=("mvm",),
                            backend="c", register=False)
        ir = ENTRY_POINTS["cg_update"]
        names = [a.name for a in ir.args if a.kind == "array"]

        def operands():
            v = np.arange(1.0, 5.0)
            return {name: (np.array([0.5, 0.0]) if name == "c" else v)
                    for name in names}

        want, got = operands(), operands()
        run_ir_python(ir, want, {"n": 4})
        aliased = INSTR.get("native.dispatch.aliased")
        ctx.vec_entries["cg_update"](got, {"n": 4})
        assert INSTR.get("native.dispatch.aliased") == aliased + 1
        for name in names:
            assert got[name].tobytes() == want[name].tobytes()


class TestFloorDiv:
    """Satellite: Python // floors, C / truncates toward zero — the C
    printer must be floor-correct."""

    def test_renderer_emits_fdiv(self):
        from repro.codegen.loopir import (Assign, BinOp, KernelIR, V,
                                          print_python)
        from repro.codegen.native import lower_kernel
        from repro.polyhedra.linexpr import LinExpr
        from tests.conftest import IRKernel

        ir = KernelIR([], [Assign("b", LinExpr.constant(-7)),
                           Assign("a", BinOp("//", V("b"),
                                             LinExpr.constant(2)))])
        assert "a = b // 2" in print_python(ir)
        c = lower_kernel(IRKernel(ir)).c_source
        assert "_fdiv(b, 2)" in c
        assert "static inline int64_t _fdiv" in c  # the text stands alone
        assert "b / 2" not in c

    @pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
    def test_native_fdiv_floors_negative_operands(self):
        import ctypes

        from repro.codegen import native

        src = (native._helper_fdiv() +
               "\nvoid kernel(int64_t *out, int64_t a, int64_t b)"
               " { out[0] = _fdiv(a, b); }\n")
        src = "#include <stdint.h>\n" + src
        fn, _ = be.compile_native_function(src, want_openmp=False,
                                           cache_mode="off")
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
        fn.restype = None
        out = np.zeros(1, dtype=np.int64)
        for a in (-7, -1, 0, 1, 7):
            for b in (-3, -2, 2, 3):
                fn(out.ctypes.data, a, b)
                assert out[0] == a // b, (a, b)


@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
class TestArtifactCache:
    def _compile_c(self, square, cache):
        A = _fmt(square, "csr")
        return compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, backend="c",
                              cache=cache), A

    def test_disk_artifact_written_and_reloaded(self, square, rng,
                                                monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        be.reset_toolchain_cache()
        kc, A = self._compile_c(square, "disk")
        assert kc.backend_used != "python"
        sos = list(tmp_path.rglob("*.so"))
        assert len(sos) == 1, "exactly one .so artifact persisted"
        assert sos[0].parent.name == sos[0].name[:2], "sharded by digest prefix"

        # a fresh process would have an empty memory layer: simulate by
        # clearing it, then recompile — must be served from disk
        be.reset_toolchain_cache()
        before = INSTR.get("native.so_cache.hits.disk")
        kc2, _ = self._compile_c(square, "disk")
        assert INSTR.get("native.so_cache.hits.disk") == before + 1
        x = rng.random(N)
        y = np.zeros(N)
        kc2({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        assert np.allclose(y, square @ x)
        be.reset_toolchain_cache()

    def test_corrupt_artifact_is_a_miss(self, square, rng, monkeypatch,
                                        tmp_path):
        # the artifact must come from ANOTHER process: dlopen dedups
        # already-loaded objects by path, so a .so this process compiled
        # and loaded would never be re-read from disk
        import subprocess
        import sys

        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                   PYTHONPATH="src")
        seed = (
            "import numpy as np\n"
            "from repro.core import compile_kernel\n"
            "from repro.formats import as_format\n"
            "from repro.formats.generate import random_sparse\n"
            "from repro.ir.kernels import ALL_KERNELS\n"
            f"A = as_format(random_sparse({N}, {N}, density=0.35, "
            "seed=42).to_dense(), 'csr')\n"
            "k = compile_kernel(ALL_KERNELS['mvm'](), {'A': A}, "
            "backend='c', cache='disk')\n"
            "assert k.backend_used != 'python', k.fallback_reason\n"
        )
        subprocess.run([sys.executable, "-c", seed], env=env, check=True,
                       cwd=os.path.dirname(os.path.dirname(
                           os.path.abspath(__file__))))
        [so] = tmp_path.rglob("*.so")
        so.write_bytes(b"not an ELF object")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        be.reset_toolchain_cache()
        before = INSTR.get("native.so_cache.corrupt")
        kc, A = self._compile_c(square, "disk")
        assert INSTR.get("native.so_cache.corrupt") == before + 1
        assert kc.backend_used != "python"
        x = rng.random(N)
        y = np.zeros(N)
        kc({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        assert np.allclose(y, square @ x)
        be.reset_toolchain_cache()

    def test_memory_layer_hit(self, square):
        kc, _ = self._compile_c(square, "off")
        assert kc.backend_used != "python"
        before = INSTR.get("native.so_cache.hits.memory")
        kc2, _ = self._compile_c(square, "off")
        assert INSTR.get("native.so_cache.hits.memory") == before + 1
        assert kc2.backend_used != "python"


def _plan_loop_dims(plan):
    """The dimensions of the plan's loop nodes that emit a ``for``, in
    emission order — the walk pragmas used to be aligned by, position for
    position.  Search-driven nodes emit no loop; a sorted enumeration's
    gather loop is auxiliary (no dimensions) and its replay loop is not a
    ``For`` node at all."""
    from repro.core.plan import LoopNode, SearchEnum, SortedEnum, VarLoopNode

    out = []

    def walk(nodes):
        for n in nodes:
            if isinstance(n, LoopNode):
                walk(n.before)
                if isinstance(n.method, SortedEnum):
                    out.append(())
                elif not isinstance(n.method, SearchEnum):
                    out.append(tuple(n.dim_names))
                walk(n.body)
                walk(n.after)
            elif isinstance(n, VarLoopNode):
                out.append((n.dim_name,))
                walk(n.body)

    walk(plan.nodes)
    return out


class TestLoopDims:
    """Every emitted loop carries its plan dimensions, so verdicts looked
    up by dimension mark exactly the loops positional alignment marked."""

    CASES = [(k, f) for k in ("mvm", "ts_lower") for f in FORMATS]

    def _kernel(self, kernel_name, fmt_name, square, lower):
        name, mat = ("A", square) if kernel_name == "mvm" else ("L", lower)
        try:
            inst = _fmt(mat, fmt_name)
            return compile_kernel(ALL_KERNELS[kernel_name](), {name: inst})
        except (ValueError, NotImplementedError, PlanError) as e:
            pytest.skip(f"{kernel_name} on {fmt_name}: {e}")

    @pytest.mark.parametrize("kernel_name,fmt_name", CASES)
    def test_for_dims_are_the_plan_loop_dims(self, kernel_name, fmt_name,
                                             square, lower):
        from repro.codegen.loopir import For, walk

        k = self._kernel(kernel_name, fmt_name, square, lower)
        fors = [n for n in walk(k.loop_ir().body) if isinstance(n, For)]
        assert [f.dims for f in fors] == _plan_loop_dims(k.plan)

    @pytest.mark.parametrize("kernel_name,fmt_name", CASES)
    def test_strict_pragmas_match_positional_alignment(
            self, kernel_name, fmt_name, square, lower):
        from repro.codegen.loopir import For
        from repro.codegen.native import NativeLoweringError, lower_kernel

        k = self._kernel(kernel_name, fmt_name, square, lower)
        try:
            c = lower_kernel(k, parallel="strict").c_source
        except NativeLoweringError as e:
            pytest.skip(f"falls back: {e}")
        strict = k.parallel_report().strict
        flags = [bool(dims) and all(d in strict for d in dims)
                 for dims in _plan_loop_dims(k.plan)]
        # the parent's rule: the i-th ``for`` in source order takes the
        # i-th plan verdict, unless it sits inside a parallel loop
        want, cursor = set(), iter(flags)

        def mark(stmts, in_par):
            for s in stmts:
                par = False
                if isinstance(s, For):
                    par = next(cursor) and not in_par
                    if par:
                        want.add(s.var)
                mark(getattr(s, "body", None) or [], in_par or par)

        mark(k.loop_ir().body, False)
        lines = [l.strip() for l in c.splitlines()]
        got = {l.split()[2] for prev, l in zip(lines, lines[1:])
               if l.startswith("for (int64_t ")
               and prev == "#pragma omp parallel for"}
        assert got == want
