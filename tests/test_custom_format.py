"""The format-designer story: a user-defined format compiles through the
full pipeline — described with the view grammar and a runtime of its own,
through the generic runtime fallback; described with the view grammar and
a declaration of where its arrays are, to C like a built-in format, its
runtime read from the declaration.  The declaration is checked where it is
read: at emitter and at runtime construction."""

import warnings

import numpy as np
import pytest

from repro.codegen import run_plan
from repro.codegen.emitters import GenericEmitter, ViewEmitter, make_emitter
from repro.codegen.loopir import BinOp, Builder, While, walk
from repro.codegen.native import lower_kernel
from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.core.spaces import build_copies
from repro.formats import as_format
from repro.formats.base import PathRuntime, SparseFormat, coo_dedup_sort
from repro.formats.csr import CsrMatrix
from repro.formats.jad import JadMatrix
from repro.formats.levels import Coords, Dense, Offset, Perm, Size, Storage
from repro.formats.views import (
    Axis,
    BINARY,
    INCREASING,
    Joint,
    LINEAR,
    NOSEARCH,
    Nest,
    PermTerm,
    Perspective,
    Term,
    UNORDERED,
    Value,
    interval_axis,
)
from repro.instrument import INSTR
from repro.ir import execute_dense
from repro.ir.kernels import col_sums, mvm, mvm_t, scale


class ColSortedCoo(SparseFormat):
    """Coordinate storage sorted column-major: ``<c, r> -> v`` with ``c``
    (and ``r`` within ``c``) enumerating in increasing order — the kind of
    one-off application-specific format the paper's Section 1 motivates."""

    format_name = "cscoo"

    def __init__(self, rows, cols, vals, shape):
        super().__init__(shape)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)

    @property
    def nnz(self):
        return int(self.vals.size)

    def get(self, r, c):
        hits = np.nonzero((self.rows == r) & (self.cols == c))[0]
        return float(self.vals[hits[0]]) if hits.size else 0.0

    def set(self, r, c, v):
        hits = np.nonzero((self.rows == r) & (self.cols == c))[0]
        if not hits.size:
            raise KeyError((r, c))
        self.vals[hits[0]] = v

    def to_coo_arrays(self):
        return self.rows.copy(), self.cols.copy(), self.vals.copy()

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="col")
        return cls(rows, cols, vals, shape)

    def view(self) -> Term:
        return Joint(
            [Axis("c", INCREASING, LINEAR), Axis("r", UNORDERED, LINEAR)],
            Value(),
        )

    def path_ids(self):
        return ["flat"]

    def runtime(self, path_id):
        fmt = self

        class Rt(PathRuntime):
            path = fmt.path(path_id)

            def enumerate(self, step, prefix):
                for k in range(fmt.nnz):
                    yield (int(fmt.cols[k]), int(fmt.rows[k])), k

            def search(self, step, prefix, keys):
                c, r = keys
                hits = np.nonzero((fmt.rows == r) & (fmt.cols == c))[0]
                return int(hits[0]) if hits.size else None

            def get(self, prefix):
                return float(fmt.vals[prefix[0]])

            def set(self, prefix, value):
                fmt.vals[prefix[0]] = value

        return Rt()


@pytest.fixture(scope="module")
def custom(small_rect_module):
    return ColSortedCoo.from_dense(small_rect_module)


@pytest.fixture(scope="module")
def small_rect_module():
    from repro.formats.generate import random_sparse

    return random_sparse(6, 8, 0.3, seed=77).to_dense()


class TestCustomFormat:
    def test_roundtrip(self, custom, small_rect_module):
        assert np.allclose(custom.to_dense(), small_rect_module)

    def test_column_major_order(self, custom):
        assert np.all(np.diff(custom.cols) >= 0)

    def test_compiled_mvm(self, custom, small_rect_module, rng):
        k = compile_kernel(mvm(), {"A": custom})
        x = rng.random(8)
        y = rng.random(6)
        yd = y.copy()
        execute_dense(mvm(), {"A": small_rect_module.copy(), "x": x, "y": yd},
                      {"m": 6, "n": 8})
        k.run({"A": custom, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, yd)

    def test_generated_code_falls_back_to_runtime(self, custom, rng):
        k = compile_kernel(mvm(), {"A": custom})
        assert ".enumerate(" in k.source  # generic fallback, still compiled
        x = rng.random(8)
        y = np.zeros(6)
        k({"A": custom, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, custom.to_dense() @ x)

    def test_col_sums_exploits_column_order(self, custom, small_rect_module):
        k = compile_kernel(col_sums(), {"A": custom})
        s = np.zeros(8)
        sd = np.zeros(8)
        execute_dense(col_sums(), {"A": small_rect_module.copy(), "s": sd},
                      {"m": 6, "n": 8})
        k.run({"A": custom, "s": s}, {"m": 6, "n": 8})
        assert np.allclose(s, sd)

    def test_mvm_t(self, custom, small_rect_module, rng):
        k = compile_kernel(mvm_t(), {"A": custom})
        x = rng.random(6)
        y = np.zeros(8)
        k({"A": custom, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, small_rect_module.T @ x)


# -- the same format, declared ----------------------------------------------

class DeclaredCoo(ColSortedCoo):
    """:class:`ColSortedCoo` plus where its arrays are: one level of joint
    coordinates ``<cols, rows>`` over ``nnz`` slots, values in ``vals``."""

    format_name = "cscoo_declared"
    runtime = SparseFormat.runtime      # read from the declaration

    def storage(self, path_id):
        return Storage((Coords(("cols", "rows"), "nnz"),), ("vals", "c"),
                       ("rows", "cols", "vals", Size("nnz", "nnz")))


@pytest.fixture(scope="module")
def declared(small_rect_module):
    return DeclaredCoo.from_dense(small_rect_module)


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

    def test_dtype_is_the_declared_value_arrays(self, custom, declared):
        """Whatever the array is called: ``blas.api`` allocates outputs in
        the promotion of ``A.dtype`` and the operand's."""
        from repro.blas.api import _alloc

        class Single(DeclaredCoo):
            format_name = "cscoo_single"

            def __init__(self, rows, cols, vals, shape):
                super().__init__(rows, cols, vals, shape)
                self.payload = self.vals.astype(np.float32)
                del self.vals

            def storage(self, path_id):
                return Storage((Coords(("cols", "rows"), "nnz"),),
                               ("payload", "c"),
                               ("rows", "cols", "payload", Size("nnz", "nnz")))

        A = Single(declared.rows, declared.cols, declared.vals, declared.shape)
        x = np.ones(8, dtype=np.float32)
        assert A.dtype == np.float32
        assert _alloc(6, A, x).dtype == np.float32
        assert _alloc(6, declared, x).dtype == np.float64
        # a format that declares nothing is still probed for the usual names
        single = ColSortedCoo(custom.rows, custom.cols, custom.vals,
                              custom.shape)
        single.vals = single.vals.astype(np.float32)
        assert single.dtype == np.float32

    def test_undeclared_format_keeps_the_generic_emitter(self, custom,
                                                         declared):
        assert isinstance(_emitter(custom), GenericEmitter)
        assert isinstance(_emitter(declared), ViewEmitter)
        before = INSTR.get("native.fallback.lowering")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            k = compile_kernel(mvm(), {"A": custom}, backend="c", cache="off")
        assert k.backend_used == "python"
        assert k.fallback_reason.startswith("lowering: PyOnly")
        assert "generic runtime" in k.fallback_reason
        assert INSTR.get("native.fallback.lowering") == before + 1


def _rejected(fmt, match):
    """Both readers of a declaration refuse it, in the same words."""
    for read in (_emitter, lambda fmt: fmt.runtime("flat")):
        with pytest.raises(ValueError, match=match):
            read(fmt)


class TestDeclarationIsChecked:
    """A wrong declaration is a ``ValueError`` when the emitter or the
    runtime is built, naming the format, the path and the axis."""

    def _broken(self, declared, **fields):
        class Broken(DeclaredCoo):
            format_name = "broken"

            def storage(self, path_id):
                return DeclaredCoo.storage(self, path_id)._replace(**fields)

        return Broken(declared.rows, declared.cols, declared.vals,
                      declared.shape)

    def test_level_count(self, declared):
        fmt = self._broken(declared, levels=(
            Dense("nnz"), Coords(("cols", "rows"), "nnz")))
        _rejected(fmt, r"'broken'.*'flat'.*2 levels "
                       r"declared for the 1 steps.*c,r")

    def test_missing_attribute(self, declared):
        fmt = self._broken(declared, args=(
            "rows", "columns", "vals", Size("nnz", "nnz")))
        _rejected(fmt, r"'broken'.*'flat'.*axes c, r.*'columns'.*Broken")
        fmt = self._broken(declared, args=(
            "rows", "cols", "vals", Size("nnz", "entries")))
        _rejected(fmt, "'entries'")

    def test_search_the_level_cannot_build(self, declared):
        # a joint level has no order to bisect on ...
        class Bisected(DeclaredCoo):
            format_name = "bisected"

            def view(self):
                return Joint([Axis("c", INCREASING, BINARY),
                              Axis("r", UNORDERED, BINARY)], Value())

        fmt = Bisected(declared.rows, declared.cols, declared.vals,
                       declared.shape)
        _rejected(fmt, r"'bisected'.*'flat'.*axis c, r.*"
                       r"binary search.*Coords.*linear")
        # ... and a dense level answers by a bounds check, not by scanning
        fmt = self._broken(declared, levels=(Dense("nnz"),))
        _rejected(fmt, r"axis c, r.*linear search.*Dense.*direct")

    def test_a_permuted_axis_is_declared_by_a_perm(self, declared):
        """... and only a permuted one."""

        class Unpermuted(JadMatrix):
            format_name = "unpermuted"

            def storage(self, path_id):
                return JadMatrix.storage(self, path_id)._replace(levels=(
                    Coords((Offset("dptr"), "colind"), "nnz", slot="jj"),))

        _rejected(Unpermuted.from_dense(np.eye(3)),
                  r"'unpermuted', path 'flat', axis r: the view permutes "
                  r"it through 'iperm', the storage declares no Perm")
        for coord in (Perm(Offset("rows"), "cols"), Offset("rows")):
            fmt = self._broken(declared, levels=(
                Coords((coord, "rows"), "nnz"),))
            _rejected(fmt, r"'broken', path 'flat', axis c: a Perm or Offset "
                           r"on an axis the view does not permute")

    @pytest.mark.parametrize("c, match", [
        (Axis("c", INCREASING, NOSEARCH),
         r"'walked', path 'flat', axis r, c: an Offset is walked forward"),
        (Axis("c", UNORDERED, BINARY),
         r"'walked', path 'flat', axis r, c: the view declares a binary "
         r"search, a Coords level builds linear"),
    ])
    def test_an_offset_is_only_walked_forward(self, c, match):
        """The segment of an ``Offset`` is found by a walk that only moves
        forward: a step that could be enumerated in reverse (an ordered
        axis) or bisected has none."""

        class Walked(JadMatrix):
            format_name = "walked"

            def view(self):
                flat = Joint([Axis("rr", UNORDERED, c.search), c], Value())
                hier = Nest(interval_axis("rr"),
                            Nest(Axis("c", INCREASING, BINARY), Value()))
                return PermTerm("r", "rr", "iperm", Perspective(flat, hier))

        _rejected(Walked.from_dense(np.eye(3)), match)

    def test_an_offset_walk_is_never_doall(self):
        """Each slot starts from the segment the slot before it ended in,
        so the walked loop stays sequential even where every slot is
        independent (``scale`` on a format whose one path is the walk)."""

        class FlatOnly(JadMatrix):
            format_name = "flat_only"

            def view(self):
                return PermTerm("r", "rr", "iperm", Joint(
                    [Axis("rr", UNORDERED, NOSEARCH),
                     Axis("c", UNORDERED, NOSEARCH)], Value()))

            def path_ids(self):
                return ["flat"]

        k = compile_kernel(scale(), {"A": FlatOnly.from_dense(np.eye(3))},
                           backend="python", cache="off")
        c = lower_kernel(k, parallel="strict").c_source
        assert "while" in c and "omp" not in c

    def test_linear_axis_never_receives_bisect(self, small_rect_module, rng):
        """Dispatch used to be by ``format_name``: a CSR subclass whose
        view says its columns are unordered got a bisection all the same.
        The search now comes from the view — a scan of the row segment,
        right on columns stored in any order."""

        class UnsortedCsr(CsrMatrix):
            def view(self):
                return Nest(interval_axis("r"),
                            Nest(Axis("c", UNORDERED, LINEAR), Value()))

        A = as_format(small_rect_module, "csr")
        for r in range(A.nrows):            # reverse every row's columns
            lo, hi = A.row_slice(r)
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
