"""Unit tests for the code-generation internals, seated on the loop IR:
affine rendering, static guard folding, the builder, the per-format
emitters (printed through both printers), the C printer's expression and
statement coverage, printer totality and the lowering-error enumeration."""

from fractions import Fraction

import numpy as np
import pytest

from repro.codegen import loopir as ir
from repro.codegen.emitters import make_emitter
from repro.codegen.loopir import (
    ArrayArg, Assign, BinOp, Builder, Cmp, Const, For, If, KernelIR,
    Load, Neg, PyOnly, ScalarArg, Select, Store, V, While, ZERO, cmp0,
    divisible, print_python, py_expr, render_lin,
)
from repro.codegen.native import (
    C_PRINTERS, NativeLoweringError, _CPrinter, lower_kernel,
)
from repro.core import NativeBackendWarning, compile_kernel
from repro.core import backend as be
from repro.core.spaces import build_copies
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, ts_lower
from repro.polyhedra.linexpr import LinExpr
from tests.conftest import IRKernel, run_ir_native, run_ir_python

class TestAffineRendering:
    def test_constant(self):
        assert render_lin(LinExpr({}, 5)) == "5"
        assert render_lin(LinExpr({}, 0)) == "0"
        assert render_lin(LinExpr({}, -3)) == "-3"

    def test_single_var(self):
        assert render_lin(LinExpr({"x": 1})) == "x"
        assert render_lin(LinExpr({"x": -1})) == "-x"
        assert render_lin(LinExpr({"x": 2})) == "2*x"

    def test_combination(self):
        assert render_lin(LinExpr({"a": 1, "b": -2}, 3)) == "a - 2*b + 3"

    def test_fractional_becomes_floordiv(self):
        half = LinExpr({"x": Fraction(1, 2)})
        s = py_expr(half)
        assert s == "(x) // 2"
        # evaluates exactly when divisible
        assert eval(s, {"x": 6}) == 3
        # and floors in C too: '/' would truncate toward zero
        assert _CPrinter().expr(half) == "_fdiv(x, 2)"

    def test_guard_scales(self):
        g = cmp0(LinExpr({"x": Fraction(1, 3)}, Fraction(-2, 3)), ">=")
        assert py_expr(g) == "x - 2 >= 0"

    def test_guard_eq(self):
        assert py_expr(cmp0(LinExpr({"x": 1, "y": -1}), "==")) == "x - y == 0"


class TestStaticGuards:
    """A guard whose residual is a constant never reaches the code."""

    @pytest.mark.parametrize("c", [1, -1, 2, -2, Fraction(1, 2)])
    def test_nonzero_residual_is_false(self, c):
        assert cmp0(LinExpr({}, c), "==") is False

    def test_zero_residual_is_true(self):
        assert cmp0(LinExpr({}, 0), "==") is True

    @pytest.mark.parametrize("c,want", [(0, True), (2, True),
                                        (Fraction(1, 2), True), (-1, False),
                                        (-2, False),
                                        (Fraction(-1, 2), False)])
    def test_sign_guards(self, c, want):
        assert cmp0(LinExpr({}, c), ">=") is want

    def test_divisibility_folds(self):
        assert divisible(LinExpr({"x": 1}, 3)) is True
        assert divisible(LinExpr({}, Fraction(1, 2))) is False
        assert divisible(LinExpr({}, Fraction(4, 2))) is True
        live = divisible(LinExpr({"x": Fraction(1, 2)}, Fraction(1, 2)))
        assert py_expr(live) == "(x + 1) % 2 == 0"

    def test_false_guard_prunes_the_copy(self):
        from repro.codegen.pysource import PySourceGenerator, _State

        st = _State()
        PySourceGenerator._guard("S1", cmp0(LinExpr({}, -3), "=="), st)
        PySourceGenerator._guard("S2", cmp0(LinExpr({}, 0), "=="), st)
        live = cmp0(LinExpr({"i": 1}), ">=")
        PySourceGenerator._guard("S2", live, st)
        PySourceGenerator._guard("S2", live, st)
        assert st.pruned == {"S1"}
        assert st.guards == {"S2": [live]}


class TestBuilder:
    def test_blocks_and_fresh(self):
        b = Builder()
        b.add(Assign("a", ZERO))
        base = b.depth
        b.open(For("i", ZERO, V("n"), 1, []))
        b.open(If(Cmp(">=", V("i"), ZERO), []))
        b.add(Assign("b", V("i")))
        b.close_to(base)
        b.add(Assign("c", ZERO))
        text = print_python(KernelIR([], b.body))
        assert ("    a = 0\n    for i in range(n):\n        if i >= 0:\n"
                "            b = i\n    c = 0\n") in text
        assert b.fresh("x") != b.fresh("x")


def _ref_for(fmt):
    copies = build_copies(mvm(), {"A": fmt}, {})
    for c in copies:
        if c.refs:
            return c.refs[0]
    raise AssertionError("no ref")


def _scalar_out(b):
    """A 0-d float64 output the fragment accumulates into."""
    out = b.arg(ArrayArg("arr_out", ("array", "out"), "float64", 0))
    out.written = True
    return out


class TestEmitters:
    @pytest.mark.parametrize("fmt_name", ["csr", "csc", "coo", "dense",
                                          "ell", "dia", "jad", "bsr"])
    def test_loop_sums_stored_values(self, fmt_name, small_rect):
        """Walking every step of the format's path visits each stored
        entry once, in the Python print and in the C print alike."""
        kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
        fmt = as_format(small_rect, fmt_name, **kwargs)
        ref = _ref_for(fmt)
        b = Builder()
        out = _scalar_out(b)
        em = make_emitter(ref, "M0", fmt, b)
        states = []
        for step in range(len(ref.path.steps)):
            keys, new_states = em.loop(step, states, False, (f"d{step}",))
            states = states + list(new_states)
        b.add(Store(out, (), BinOp("+", Load(out, ()), em.get(states))))
        kernel = KernelIR(b.args, b.body)
        assert [f.dims for f in ir.walk(kernel.body) if isinstance(f, For)] \
            == [(f"d{s}",) for s in range(len(ref.path.steps))]
        # sum of all stored values (dense includes zeros, same sum)
        want = float(np.sum(fmt.to_coo_arrays()[2]))
        total = np.zeros(())
        run_ir_python(kernel, {"A": fmt, "out": total}, {})
        assert total == pytest.approx(want)
        if be.find_compiler() is not None:
            native = np.zeros(())
            run_ir_native(kernel, {"A": fmt, "out": native}, {})
            assert native.tobytes() == total.tobytes()

    @pytest.mark.parametrize("fmt_name", ["csr", "csc", "ell", "dia", "jad"])
    def test_search_finds_stored_entry(self, fmt_name, small_rect):
        fmt = as_format(small_rect, fmt_name)
        ref = _ref_for(fmt)
        b = Builder()
        out = _scalar_out(b)
        keys = [V(b.arg(ScalarArg(f"p_{k}", ("param", k))).name)
                for k in ("k0", "k1")][:len(ref.path.steps[0].names)]
        em = make_emitter(ref, "M0", fmt, b)
        states, found = em.search(0, [], keys)
        b.add(If(found, [Store(out, (), Const(1.0))]))
        kernel = KernelIR(b.args, b.body)
        rows, cols, _ = fmt.to_coo_arrays()
        stored = {"dia": (int(fmt.diags[0]), 0) if fmt_name == "dia" else 0,
                  "csc": (int(cols[0]), 0),
                  "jad": (int(rows[0]), int(cols[0]))}.get(
                      fmt_name, (int(rows[0]), 0))
        for (k0, k1), want in ((stored, 1.0), ((10 ** 6, 0), 0.0)):
            params = {"k0": k0, "k1": k1}
            hit = np.zeros(())
            run_ir_python(kernel, {"A": fmt, "out": hit}, params)
            assert hit == want
            if be.find_compiler() is not None:
                hit = np.zeros(())
                run_ir_native(kernel, {"A": fmt, "out": hit}, params)
                assert hit == want


def _lower(body, args=(), **kwargs):
    return lower_kernel(IRKernel(KernelIR(list(args), body)), **kwargs)


class TestCPrinter:
    def test_expressions(self):
        c = _CPrinter()
        a2 = ArrayArg("a", ("array", "a"), "float64", 2)
        assert c.expr(BinOp("+", V("a"), BinOp("*", V("b"), V("c")))) == \
            "(a + (b * c))"
        # floor division must not print as truncating C "/"
        assert c.expr(BinOp("//", V("x"), LinExpr.constant(3))) == \
            "_fdiv(x, 3)"
        assert "_fdiv" in c.helpers
        assert c.expr(Load(a2, (V("i"), V("j")))) == "a[(i) * a__s0 + j]"
        assert c.expr(Select(V("c"), V("x"), V("y"))) == "(c ? x : y)"
        assert "&&" in c.expr(ir.within(V("x"), ZERO, V("n")))
        assert c.expr(Neg(Const(2.0))) == "(-2.0)"
        assert c.expr(BinOp("/", V("p"), V("q"))) == \
            "((double)p / (double)q)"

    def test_statements(self):
        body = [
            Assign("t", ZERO),
            For("i", ZERO, LinExpr.constant(3), 1, [
                While(Cmp("<", V("t"), LinExpr.constant(2)),
                      [Assign("t", V("t") + 1)]),
                If(Cmp(">=", V("t"), LinExpr.constant(2)),
                   [Assign("t", ZERO)]),
            ]),
            For("j", V("t") - 1, LinExpr.constant(-1), -1, []),
        ]
        c = _lower(body).c_source
        assert "for (int64_t i = 0; i < 3; i++)" in c
        assert "for (int64_t j = t - 1; j > -1; j--)" in c
        assert "while" in c and "if" in c
        assert c.count("int64_t t = 0;") == 1      # declared once
        assert "        t = t + 1;" in c           # then assigned
        assert c.count("{") == c.count("}")

    def test_sibling_blocks_redeclare(self):
        """A scalar first assigned in two sibling blocks is declared in
        each (C block scope), never assigned undeclared."""
        body = [If(Cmp(">=", V("p"), ZERO), [Assign("u", ZERO)]),
                If(Cmp("<", V("p"), ZERO), [Assign("u", V("p"))])]
        c = _lower(body, [ScalarArg("p", ("param", "p"))]).c_source
        assert c.count("int64_t u = ") == 2


class TestPrinterTotality:
    def test_every_node_class_is_listed(self):
        declared = {c for c in vars(ir).values()
                    if isinstance(c, type) and issubclass(c, ir.Node)
                    and c not in (ir.Node, ir.Expr)}
        assert declared | {LinExpr} == set(ir.NODE_CLASSES)

    def test_python_prints_everything(self):
        assert set(ir.PY_EXPR) | set(ir.PY_STMT) == set(ir.NODE_CLASSES)

    def test_c_prints_everything_but_pyonly(self):
        assert set(C_PRINTERS) == set(ir.NODE_CLASSES) - {PyOnly}


class TestLoweringErrors:
    """A kernel that cannot lower says which node stopped it, falls back
    with a warning, and counts the fallback."""

    def _fallback(self, program, bindings):
        from repro.instrument import INSTR

        before = (INSTR.get("native.fallbacks"),
                  INSTR.get("native.fallback.lowering"))
        with pytest.warns(NativeBackendWarning):
            k = compile_kernel(program, bindings, backend="c", cache="off")
        assert k.backend_used == "python"
        assert (INSTR.get("native.fallbacks"),
                INSTR.get("native.fallback.lowering")) == \
            (before[0] + 1, before[1] + 1)
        return k.fallback_reason

    def test_sorted_enumeration(self):
        L = as_format(lower_triangular_of(random_sparse(8, 8, 0.3, seed=3)),
                      "coo")
        reason = self._fallback(ts_lower(), {"L": L})
        assert reason.startswith("lowering: PyOnly")
        assert "sorted enumeration" in reason

    def test_an_undeclared_format_is_refused_not_lowered(self):
        """No Python-only kernel for a format that declares nothing:
        ``compile_kernel`` refuses it, and nothing falls back."""
        from repro.instrument import INSTR
        from tests.test_custom_format import Undeclared

        A = Undeclared.of(random_sparse(6, 8, 0.3, seed=11).to_dense())
        before = (INSTR.get("native.fallbacks"),
                  INSTR.get("native.fallback.lowering"))
        with pytest.raises(ValueError, match="no declaration"):
            compile_kernel(mvm(), {"A": A}, backend="c", cache="off")
        assert (INSTR.get("native.fallbacks"),
                INSTR.get("native.fallback.lowering")) == before

    def test_unsupported_dtype(self):
        A = as_format(random_sparse(6, 8, 0.3, seed=11).to_dense(), "csr")
        A.values = A.values.astype(np.float16)
        reason = self._fallback(mvm(), {"A": A})
        assert reason.startswith("lowering: ArrayArg M0_values")
        assert "float16" in reason

    def test_pyonly_is_rejected_wherever_it_sits(self):
        nested = [For("i", ZERO, PyOnly("n()", "test"), 1, [])]
        with pytest.raises(NativeLoweringError, match="PyOnly.*test"):
            _lower(nested)
