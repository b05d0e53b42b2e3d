"""Generated-source structure, the C print of the same loop IR, and
interpreter internals."""

import ast

import numpy as np
import pytest

from repro.codegen.loopir import print_python
from repro.codegen.native import lower_kernel
from repro.codegen.pysource import build_loop_ir
from repro.formats import as_format
from tests.conftest import compile_cached
from tests.oracles.plan_interp import ExecutionError, PlanInterpreter, run_plan


class TestGeneratedSource:
    def test_csr_ts_structure(self, lower_tri):
        """The generated CSR TS must be structurally the NIST kernel:
        a row loop over rowptr, a column loop, a diagonal-equality guard
        and a strict-lower guard — and nothing else."""
        k = compile_cached("ts_lower", "csr", as_format(lower_tri, "csr"), "L")
        src = k.source
        assert "rowptr" in src and "colind" in src and "values" in src
        tree = ast.parse(src)
        kernel = next(n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "kernel")
        fors = [n for n in ast.walk(kernel) if isinstance(n, ast.For)]
        assert len(fors) == 2
        ifs = [n for n in ast.walk(kernel) if isinstance(n, ast.If)]
        assert len(ifs) == 2

    def test_jad_ts_uses_inverse_permutation(self, lower_tri):
        k = compile_cached("ts_lower", "jad", as_format(lower_tri, "jad"), "L")
        assert "ipermi" in k.source  # Figure 9's unmap(r) search

    def test_source_is_valid_python(self, small_rect):
        for fmt in ["csr", "csc", "coo", "dia", "jad", "msr"]:
            k = compile_cached("mvm", fmt, as_format(small_rect, fmt), "A")
            ast.parse(k.source)

    def test_source_cached(self, small_rect):
        k = compile_cached("mvm", "csr", as_format(small_rect, "csr"), "A")
        assert k.callable() is k.callable()

    def test_no_leftover_runtime_calls_for_builtin_formats(self, small_rect):
        """Built-in formats must be fully inlined (no dynamic dispatch in
        the hot path)."""
        for fmt in ["csr", "csc", "coo", "ell"]:
            k = compile_cached("mvm", fmt, as_format(small_rect, fmt), "A")
            assert ".enumerate(" not in k.source
            assert ".runtime(" not in k.source


class TestCRendering:
    def test_renders_for_loops(self, lower_tri):
        k = compile_cached("ts_lower", "csr", as_format(lower_tri, "csr"), "L")
        c = lower_kernel(k).c_source
        assert c.count("for (int64_t") == 2       # loop-for-loop the Python
        assert "void kernel" in c
        assert c.count("{") == c.count("}")

    def test_plan_alone_prints_the_kernel_source(self, small_rect):
        """The IR built from a plan and the instances it is typed from
        prints the kernel's source."""
        k = compile_cached("mvm", "csr", as_format(small_rect, "csr"), "A")
        assert print_python(build_loop_ir(k.plan, k.bindings)) == k.source


class TestInterpreterInternals:
    def test_missing_format_instance(self, small_rect):
        k = compile_cached("mvm", "csr", as_format(small_rect, "csr"), "A")
        with pytest.raises(ExecutionError):
            PlanInterpreter(k.plan, {"A": small_rect, "x": np.zeros(8),
                                     "y": np.zeros(6)}, {"m": 6, "n": 8})

    def test_propagation_solves_combined_equalities(self, small_square):
        """DIA diagonal access pins d == 0 only through the combination of
        two equalities; the interpreter must solve it at startup, and the
        generated kernel at compile time."""
        fmt = as_format(small_square, "dia")
        k = compile_cached("diag_extract", "dia", fmt, "A")
        d_plan, d_gen = np.zeros(7), np.zeros(7)
        run_plan(k.plan, {"A": fmt, "d": d_plan}, {"n": 7})
        k({"A": fmt, "d": d_gen}, {"n": 7})
        assert np.allclose(d_plan, np.diag(small_square))
        assert np.array_equal(d_plan, d_gen)
