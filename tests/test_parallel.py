"""DOALL parallelism analysis over enumeration plans."""

import numpy as np
import pytest

from repro.analysis import dependences
from repro.codegen.loopir import For, walk
from repro.codegen.native import _FORK_MIN_TRIP, lower_kernel
from repro.core import compile_kernel
from repro.core.parallel import (
    analyze_parallelism,
    annotate_c_source,
    parallel_loop_names,
)
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from tests.conftest import compile_cached


@pytest.fixture(scope="module")
def mvm_csr():
    rect = random_sparse(6, 8, 0.3, seed=11)
    fmt = as_format(rect, "csr")
    return compile_cached("mvm", "csr", fmt, "A"), fmt


@pytest.fixture(scope="module")
def ts_csr():
    L = lower_triangular_of(random_sparse(8, 8, 0.3, seed=3))
    fmt = as_format(L, "csr")
    return compile_cached("ts_lower", "csr", fmt, "L"), fmt


class TestAnalysis:
    def test_mvm_rows_are_doall(self, mvm_csr):
        k, _ = mvm_csr
        deps = dependences(k.program)
        rep = analyze_parallelism(k.plan, deps)
        # the row dimension carries no order requirement even without
        # relaxing reductions: rows write disjoint y entries
        row_dim = next(d for d in rep.all_dims if d.endswith(".r"))
        assert rep.classify(row_dim) == "doall"

    def test_mvm_columns_need_atomics(self, mvm_csr):
        k, _ = mvm_csr
        deps = dependences(k.program)
        rep = analyze_parallelism(k.plan, deps)
        col_dim = next(d for d in rep.all_dims if d.endswith(".c"))
        # strictly, the accumulation serializes the column walk; with
        # atomic adds it is free
        assert rep.classify(col_dim) in ("doall-atomic", "doall")
        assert col_dim in rep.atomic

    def test_ts_rows_sequential(self, ts_csr):
        k, _ = ts_csr
        deps = dependences(k.program)
        rep = analyze_parallelism(k.plan, deps)
        row_dim = next(d for d in rep.all_dims if d.endswith(".r"))
        # forward substitution is inherently ordered in the rows
        assert rep.classify(row_dim) == "sequential"
        assert row_dim not in rep.atomic

    def test_flavours_nest(self, mvm_csr, ts_csr):
        for k, _ in (mvm_csr, ts_csr):
            deps = dependences(k.program)
            rep = analyze_parallelism(k.plan, deps)
            assert rep.strict <= rep.atomic

    def test_loop_names_helper(self, mvm_csr):
        k, _ = mvm_csr
        deps = dependences(k.program)
        names = parallel_loop_names(k.plan, deps, flavour="atomic")
        assert any(n.endswith(".c") for n in names)


@pytest.fixture(scope="module")
def mvm_csc():
    rect = random_sparse(6, 8, 0.3, seed=11)
    fmt = as_format(rect, "csc")
    return compile_cached("mvm", "csc", fmt, "A"), fmt


def _loops(kernel):
    """The kernel's loop nodes in source order."""
    return [n for n in walk(kernel.loop_ir().body) if isinstance(n, For)]


class TestOmpRendering:
    def test_mvm_gets_pragma(self, mvm_csr):
        k, _ = mvm_csr
        assert "#pragma omp parallel for" in annotate_c_source(k)

    def test_ts_outer_loop_not_annotated(self, ts_csr):
        k, _ = ts_csr
        c = annotate_c_source(k)
        # the substitution's row loop must not carry a pragma
        assert not _pragma_above(c, "M0_r")

    def test_report_repr(self, mvm_csr):
        k, _ = mvm_csr
        deps = dependences(k.program)
        rep = analyze_parallelism(k.plan, deps)
        assert "doall" in repr(rep)

    def test_unlowerable_kernel_gets_a_summary(self):
        L = as_format(lower_triangular_of(random_sparse(8, 8, 0.3, seed=3)),
                      "coo")
        k = compile_cached("ts_lower", "coo", L, "L")
        c = annotate_c_source(k)
        assert c.startswith("/* DOALL dimensions (strict):")
        assert "PyOnly" in c and "#pragma" not in c


def _nested_forks(source: str):
    """For every ``parallel for`` that sits inside another ``for``: the
    header of the block directly enclosing it (an unconditional nested
    fork shows up as that ``for`` header itself)."""
    stack, out = [], []
    for line in source.splitlines():
        text = line.strip()
        if text == "#pragma omp parallel for":
            if any(h.startswith("for (") for h in stack):
                out.append(stack[-1])
        elif text.endswith("{"):
            stack.append(text)
        elif text == "}":
            stack.pop()
    return out


def _pragma_above(source: str, marker: str) -> bool:
    """Is there an OpenMP pragma on the line directly above the first
    ``for`` header containing ``marker``?"""
    lines = source.splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("for (") and marker in line:
            return i > 0 and "#pragma omp parallel for" in lines[i - 1]
    raise AssertionError(f"no for-loop matching {marker!r} in:\n{source}")


class TestPragmaPlacement:
    """Satellite coverage: which loop nodes are order-free per flavour, and
    where exactly the pragmas land in the translation unit."""

    def test_verdicts_ride_on_the_loop_nodes(self, mvm_csr):
        k, _ = mvm_csr
        rep = k.parallel_report()
        rows = next(f for f in _loops(k) if f.var.startswith("M0_r"))
        cols = next(f for f in _loops(k) if f.var.startswith("M0_jj"))
        assert rep.verdict(rows.dims, "strict") == "par"
        assert rep.verdict(cols.dims, "strict") == "seq"
        # order-free given atomic accumulation: reported, never scheduled
        assert all(rep.classify(d) == "doall-atomic" for d in cols.dims)
        # a loop a transform introduced enumerates no plan dimension
        assert rep.verdict((), "strict") == "seq"
        assert rep.verdict(rows.dims, "none") == "seq"

    def test_report_is_computed_once(self, mvm_csr):
        k, _ = mvm_csr
        assert k.parallel_report() is k.parallel_report()

    def test_mvm_strict_row_loop_annotated(self, mvm_csr):
        k, _ = mvm_csr
        c = annotate_c_source(k, flavour="strict")
        # rows write disjoint y entries: the row loop is strict DOALL
        assert _pragma_above(c, "M0_r")

    def test_mvm_strict_column_loop_not_annotated(self, mvm_csr):
        k, _ = mvm_csr
        c = annotate_c_source(k, flavour="strict")
        # the column walk accumulates into y[r]: a reduction, not strict
        assert not _pragma_above(c, "M0_jj")

    def test_csc_strict_segment_loop_forks_only_when_long(self, mvm_csc):
        k, _ = mvm_csc
        c = annotate_c_source(k, flavour="strict")
        # columns scatter into y: the column loop is sequential; a
        # column's rows are distinct, so its segment loop is order-free —
        # but a thread team per ~5-entry column costs 200x the loop
        assert not _pragma_above(c, "M0_c")
        assert _nested_forks(c) == [f"if ((_hi1 - _lo1) >= {_FORK_MIN_TRIP}) {{"]
        # the short path is the same loop without the pragma
        serial, forked = [ln for ln in c.splitlines() if "M0_jj" in ln
                          and ln.lstrip().startswith("for (")]
        assert serial == forked
        assert f"if ((_hi1 - _lo1) < {_FORK_MIN_TRIP}) {{" in c

    def test_outermost_parallel_loops_fork_unconditionally(self, mvm_csr):
        k, _ = mvm_csr
        c = annotate_c_source(k, flavour="strict")
        assert "#pragma omp parallel for" in c and _nested_forks(c) == []
        assert str(_FORK_MIN_TRIP) not in c

    @pytest.mark.parametrize("opt", ["none", "tiled"])
    def test_dia_offset_loop_keeps_its_parallel_version(self, opt):
        from repro.formats.generate import banded

        # ``opt`` is still accepted; guard_absorb runs whatever it says
        A = as_format(banded(12, bandwidth=2, seed=1), "dia")
        k = compile_cached("mvm", "dia", A, "A", opt=opt)
        c = lower_kernel(k, "strict").c_source
        # few diagonals, each as long as the matrix: worth a fork per
        # diagonal, which the trip-count test lets through
        assert len(_nested_forks(c)) == 1
        assert _pragma_above(c.split(">= %d" % _FORK_MIN_TRIP)[1], "M0_o")

    @pytest.mark.parametrize("entry", [lower_kernel, annotate_c_source])
    def test_atomic_flavour_is_gone(self, mvm_csc, entry):
        # compile_kernel's own rejection: tests/test_env.py
        k, _ = mvm_csc
        with pytest.raises(ValueError, match="must be 'none' or 'strict'"):
            entry(k, "atomic")
        assert "atomic" not in annotate_c_source(k, flavour="strict")

    def test_mvm_loop_names_by_flavour(self, mvm_csr):
        k, _ = mvm_csr
        deps = dependences(k.program)
        strict = parallel_loop_names(k.plan, deps, flavour="strict")
        atomic = parallel_loop_names(k.plan, deps, flavour="atomic")
        assert any(n.endswith(".r") for n in strict)
        assert not any(n.endswith(".c") for n in strict)
        assert any(n.endswith(".c") for n in atomic)

    def test_ts_strict_no_pragmas(self, ts_csr):
        k, _ = ts_csr
        c = annotate_c_source(k, flavour="strict")
        # forward substitution is ordered in the rows and accumulates
        # within a row: no loop of the nest is strict DOALL
        assert "#pragma omp parallel for" not in c

    def test_ts_row_loop_never_annotated(self, ts_csr):
        k, _ = ts_csr
        c = lower_kernel(k, "strict").c_source
        assert not _pragma_above(c, "M0_r")
