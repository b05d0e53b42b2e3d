"""The format-designer story: a user-defined format described by one
declaration of its paths and where their arrays are compiles through the
full pipeline, to C like a built-in format; its ``get``, ``set``,
``to_coo_arrays`` and runtime are read from the declaration.  The
declaration is checked where it is read — at emitter and at runtime
construction — and a format that declares nothing is refused."""

import warnings

import numpy as np
import pytest

from repro.codegen.emitters import ViewEmitter, make_emitter
from repro.codegen.loopir import BinOp, Builder, While, walk
from repro.codegen.native import lower_kernel
from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.core.spaces import build_copies
from repro.formats import as_format
from repro.formats.base import SparseFormat
from repro.formats.csr import CsrMatrix
from repro.formats.jad import JadMatrix
from repro.formats.csr import ROWS
from repro.formats.levels import Coords, Dense, Offset, Path, Perm, Size, Storage
from repro.formats.views import (
    Axis,
    BINARY,
    INCREASING,
    LINEAR,
    NOSEARCH,
    UNORDERED,
)
from repro.instrument import INSTR
from repro.ir import execute_dense
from repro.ir.kernels import col_sums, mvm, mvm_t, scale
from tests.oracles.plan_interp import run_plan


#: column-major coordinates: one level of joint coordinates ``<cols, rows>``
#: over ``nnz`` slots, values in ``vals``; ``c`` enumerates in increasing
#: order, which its Coords level does not say by itself
FLAT = Path((Axis("c", INCREASING, LINEAR), "r"), Storage(
    (Coords(("cols", "rows"), "nnz"),), ("vals", "c"),
    ("rows", "cols", "vals", Size("nnz", "nnz"))))


class DeclaredCoo(SparseFormat):
    """Coordinate storage sorted column-major: ``<c, r> -> v`` with ``c``
    (and ``r`` within ``c``) enumerating in increasing order — the kind of
    one-off application-specific format the paper's Section 1 motivates —
    declared as :data:`FLAT`.  Nothing else: no access of its own."""

    format_name = "cscoo"

    def __init__(self, rows, cols, vals, shape):
        super().__init__(shape)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)

    @property
    def nnz(self):
        return int(self.vals.size)

    def declaration(self):
        return {"flat": FLAT}


class Undeclared(DeclaredCoo):
    """The same format without its declaration (built by its constructor:
    there is nothing to assemble it from)."""

    format_name = "cscoo_undeclared"
    declaration = SparseFormat.declaration

    @staticmethod
    def of(dense):
        d = DeclaredCoo.from_dense(dense)
        return Undeclared(d.rows, d.cols, d.vals, d.shape)


class Single(DeclaredCoo):
    """The same format, its values in float32 under another name."""

    format_name = "cscoo_single"

    def __init__(self, rows, cols, vals, shape):
        super().__init__(rows, cols, vals, shape)
        self.payload = self.vals.astype(np.float32)
        del self.vals

    def declaration(self):
        return {"flat": FLAT._replace(storage=FLAT.storage._replace(
            value=("payload", "c"),
            args=("rows", "cols", "payload", Size("nnz", "nnz"))))}


class FlatOnly(JadMatrix):
    """JAD with its flat path alone: the walk of an ``Offset``."""

    format_name = "flat_only"

    def declaration(self):
        return {"flat": JadMatrix.declaration(self)["flat"]}


class UnsortedCsr(CsrMatrix):
    """CSR whose columns are declared unordered within a row."""

    def declaration(self):
        return {"rows": Path(("r", Axis("c", UNORDERED, LINEAR)), ROWS)}


def walked(c):
    """JAD whose flat path's axes are ``r`` and the override ``c``, ``r``
    searched as ``c`` is."""

    class Walked(JadMatrix):
        format_name = "walked"

        def declaration(self):
            flat, rows = JadMatrix.declaration(self).values()
            return {"flat": flat._replace(
                        axes=(Axis("r", UNORDERED, c.search), c)),
                    "rows": rows}

    return Walked


@pytest.fixture(scope="module")
def small_rect_module():
    from repro.formats.generate import random_sparse

    return random_sparse(6, 8, 0.3, seed=77).to_dense()


@pytest.fixture(scope="module")
def declared(small_rect_module):
    return DeclaredCoo.from_dense(small_rect_module)


class TestCustomFormat:
    def test_roundtrip(self, declared, small_rect_module):
        assert np.array_equal(declared.to_dense(), small_rect_module)
        rows, cols, vals = declared.to_coo_arrays()     # in stored order
        assert np.array_equal(cols, declared.cols)
        assert np.array_equal(rows, declared.rows)
        assert not np.shares_memory(vals, declared.vals)
        m, n = small_rect_module.shape
        assert [declared.get(r, c) for r in range(m) for c in range(n)] \
            == small_rect_module.ravel().tolist()

    def test_column_major_order(self, declared):
        assert np.all(np.diff(declared.cols) >= 0)

    def test_compiled_mvm(self, declared, small_rect_module, rng):
        k = compile_kernel(mvm(), {"A": declared})
        x = rng.random(8)
        y = rng.random(6)
        yd, yg = y.copy(), y.copy()
        execute_dense(mvm(), {"A": small_rect_module.copy(), "x": x, "y": yd},
                      {"m": 6, "n": 8})
        run_plan(k.plan, {"A": declared, "x": x, "y": y}, {"m": 6, "n": 8})
        k({"A": declared, "x": x, "y": yg}, {"m": 6, "n": 8})
        assert np.allclose(y, yd)
        assert np.allclose(yg, yd)

    def test_generated_code_inlines_the_declaration(self, declared, rng):
        k = compile_kernel(mvm(), {"A": declared})
        assert ".enumerate(" not in k.source and ".runtime(" not in k.source
        x = rng.random(8)
        y = np.zeros(6)
        k({"A": declared, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, declared.to_dense() @ x)

    def test_col_sums_exploits_column_order(self, declared, small_rect_module):
        k = compile_kernel(col_sums(), {"A": declared})
        s = np.zeros(8)
        sd = np.zeros(8)
        execute_dense(col_sums(), {"A": small_rect_module.copy(), "s": sd},
                      {"m": 6, "n": 8})
        sg = np.zeros(8)
        run_plan(k.plan, {"A": declared, "s": s}, {"m": 6, "n": 8})
        k({"A": declared, "s": sg}, {"m": 6, "n": 8})
        assert np.allclose(s, sd)
        assert np.allclose(sg, sd)

    def test_mvm_t(self, declared, small_rect_module, rng):
        k = compile_kernel(mvm_t(), {"A": declared})
        x = rng.random(6)
        y = np.zeros(8)
        k({"A": declared, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, small_rect_module.T @ x)


def _emitter(fmt):
    """The emitter ``mvm``'s reference to ``fmt`` gets."""
    ref = next(c.refs[0] for c in build_copies(mvm(), {"A": fmt}, {})
               if c.refs)
    return make_emitter(ref, "M0", fmt, Builder())


class TestDeclaredFormat:
    @pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
    @pytest.mark.parametrize("opt", ["none", "tiled"])
    @pytest.mark.parametrize("prog", [mvm, mvm_t, col_sums])
    def test_lowers_to_c_byte_identical(self, declared, prog, opt, rng):
        """The user's own int64 arrays go to the C kernel as they are, and
        it agrees bit for bit with the Python kernel and the plan
        interpreter."""
        kp = compile_kernel(prog(), {"A": declared})
        kc = compile_kernel(prog(), {"A": declared}, backend="c", opt=opt)
        assert kc.backend_used == "c", kc.fallback_reason
        assert ".enumerate(" not in kp.source
        assert "int64_t * M0_cols" in kc.c_source.replace("restrict ", "")
        dense = {"x": rng.random(8 if prog is mvm else 6),
                 "y": np.zeros(6 if prog is mvm else 8), "s": np.zeros(8)}
        outs = []
        before = INSTR.get("native.dispatch.coerced")
        for run in (kp, kc, lambda a, p: run_plan(kp.plan, a, p)):
            arrays = {"A": declared, **{k: v.copy() for k, v in dense.items()}}
            run(arrays, {"m": 6, "n": 8})
            outs.append(arrays["s" if prog is col_sums else "y"])
        assert INSTR.get("native.dispatch.coerced") == before
        assert outs[0].any()
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_without_a_compiler_the_python_kernel_answers(self, declared, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            k = compile_kernel(mvm(), {"A": declared}, backend="c")
        x, y = rng.random(8), np.zeros(6)
        k({"A": declared, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, declared.to_dense() @ x)

    def test_dtype_is_the_declared_value_arrays(self, declared):
        """Whatever the array is called: ``blas.api`` allocates outputs in
        the promotion of ``A.dtype`` and the operand's."""
        from repro.blas.api import _out

        A = Single(declared.rows, declared.cols, declared.vals, declared.shape)
        x = np.ones(8, dtype=np.float32)
        assert A.dtype == np.float32
        assert _out("mvm", A, x, None, (6,)).dtype == np.float32
        assert _out("mvm", declared, x, None, (6,)).dtype == np.float64

    def test_an_undeclared_format_is_refused(self, declared, monkeypatch):
        """``compile_kernel`` refuses it before any search runs, naming
        the format; so do the high-level API, the runtime and the
        assembly, which read the same declaration."""
        from repro.core import compiler

        assert isinstance(_emitter(declared), ViewEmitter)
        fmt = Undeclared(declared.rows, declared.cols, declared.vals,
                         declared.shape)
        refusal = r"format 'cscoo_undeclared': no declaration"
        monkeypatch.setattr(compiler, "search", lambda *a, **k: pytest.fail(
            "searched an undeclared format"))
        for backend in ("python", "c"):
            for cache in ("off", "memory"):
                with pytest.raises(ValueError, match=refusal):
                    compile_kernel(mvm(), {"A": fmt}, backend=backend,
                                   cache=cache)
        for read in (lambda: fmt.get(0, 0), fmt.to_coo_arrays,
                     lambda: fmt.runtime("flat"), lambda: fmt.dtype,
                     lambda: Undeclared.from_coo(fmt.rows, fmt.cols,
                                                 fmt.vals, fmt.shape)):
            with pytest.raises(ValueError, match=refusal):
                read()


def _rejected(fmt, match):
    """Both readers of a declaration refuse it, in the same words."""
    for read in (_emitter, lambda fmt: fmt.runtime("flat")):
        with pytest.raises(ValueError, match=match):
            read(fmt)


class TestDeclarationIsChecked:
    """A wrong declaration is a ``ValueError`` when the emitter or the
    runtime is built, naming the format, the path and the axis."""

    def _broken(self, declared, axes=FLAT.axes, **fields):
        class Broken(DeclaredCoo):
            format_name = "broken"

            def declaration(self):
                return {"flat": Path(axes, FLAT.storage._replace(**fields))}

        return Broken(declared.rows, declared.cols, declared.vals,
                      declared.shape)

    def test_level_count(self, declared):
        fmt = self._broken(declared, levels=(
            Dense("nnz"), Coords(("cols", "rows"), "nnz")))
        _rejected(fmt, r"'broken', path 'flat': 2 axes named for the 3 its "
                       r"levels take")

    def test_missing_attribute(self, declared):
        fmt = self._broken(declared, args=(
            "rows", "columns", "vals", Size("nnz", "nnz")))
        _rejected(fmt, r"'broken'.*'flat'.*axes c, r.*'columns'.*Broken")
        fmt = self._broken(declared, args=(
            "rows", "cols", "vals", Size("nnz", "entries")))
        _rejected(fmt, "'entries'")

    def test_search_the_level_cannot_build(self, declared):
        # a joint level has no order to bisect on ...
        fmt = self._broken(declared, axes=(Axis("c", INCREASING, BINARY),
                                           Axis("r", UNORDERED, BINARY)))
        _rejected(fmt, r"'broken'.*'flat'.*axis c, r.*"
                       r"binary search.*Coords.*linear")
        # ... and a dense level answers by a bounds check, not by scanning
        fmt = self._broken(declared, levels=(Dense("nnz"), Dense("nnz")))
        _rejected(fmt, r"axis c: a linear search.*Dense.*direct")

    def test_a_perm_holds_what_its_level_walks(self, declared):
        """A ``Perm`` permutes a ``Dense`` level or, as a ``Coords``
        coordinate, an ``Offset``; an ``Offset`` is only a ``Perm``'s."""
        refusal = r"'broken', path 'flat': a Perm holds a Dense level"
        for coord in (Offset("rows"), Perm(Dense("nnz"), "cols", "rows")):
            _rejected(self._broken(declared, levels=(
                Coords((coord, "rows"), "nnz"),)), refusal)
        _rejected(self._broken(declared, axes=("c",), levels=(
            Perm(Offset("rows"), "cols", "rows"),)), refusal)

    @pytest.mark.parametrize("c, match", [
        (Axis("c", INCREASING, NOSEARCH),
         r"'walked', path 'flat', axis r, c: an Offset is walked forward"),
        (Axis("c", UNORDERED, BINARY),
         r"'walked', path 'flat', axis r, c: a binary search is declared, "
         r"a Coords level builds linear"),
    ])
    def test_an_offset_is_only_walked_forward(self, c, match):
        """The segment of an ``Offset`` is found by a walk that only moves
        forward: a step that could be enumerated in reverse (an ordered
        axis) or bisected has none."""
        _rejected(walked(c).from_dense(np.eye(3)), match)

    def test_an_offset_walk_is_never_doall(self):
        """Each slot starts from the segment the slot before it ended in,
        so the walked loop stays sequential even where every slot is
        independent (``scale`` on a format whose one path is the walk)."""
        k = compile_kernel(scale(), {"A": FlatOnly.from_dense(np.eye(3))},
                           backend="python", cache="off")
        c = lower_kernel(k, parallel="strict").c_source
        assert "while" in c and "omp" not in c

    def test_linear_axis_never_receives_bisect(self, small_rect_module, rng):
        """Dispatch used to be by ``format_name``: a CSR subclass whose
        declaration says its columns are unordered got a bisection all the
        same.  The search now comes from the declaration — a scan of the
        row segment, right on columns stored in any order."""

        A = as_format(small_rect_module, "csr")
        for r in range(A.nrows):            # reverse every row's columns
            lo, hi = A.rowptr[r], A.rowptr[r + 1]
            A.colind[lo:hi] = A.colind[lo:hi][::-1].copy()
            A.values[lo:hi] = A.values[lo:hi][::-1].copy()
        U = UnsortedCsr._adopt(A.rowptr, A.colind, A.values, A.shape)
        for fmt, bisects in ((U, False), (as_format(small_rect_module, "csr"),
                                          True)):
            em = _emitter(fmt)
            (r,), _ = em.search(0, [], [em.size("q", "nrows") - 1])
            em.search(1, [r], [em.size("k", "ncols") - 1])
            (loop,) = [n for n in walk(em.b.body) if isinstance(n, While)]
            halves = any(isinstance(n, BinOp) and n.op == "//"
                         for n in walk(loop.body))
            assert halves == bisects
        # end to end: B is searched per stored element of A
        from tests.test_cross_matrix_join import hadamard_dot

        Ad = small_rect_module * (rng.random(small_rect_module.shape) < 0.7)
        k = compile_kernel(hadamard_dot(), {"A": as_format(Ad, "coo"), "B": U})
        assert "//" not in k.source and "while" in k.source
        acc = np.array(0.0)
        k({"A": as_format(Ad, "coo"), "B": U, "acc": acc}, {"m": 6, "n": 8})
        assert acc == pytest.approx((Ad * small_rect_module).sum())
