"""Instrumentation registry, pipeline counters, and report rendering."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro import instrument
from repro.instrument import INSTR, Instrumentation
from repro.instrument.reporting import compare_snapshots, render_report


class TestRegistry:
    def test_counters_accumulate(self):
        reg = Instrumentation()
        reg.count("a.x")
        reg.count("a.x", 4)
        assert reg.get("a.x") == 5
        assert reg.get("missing") == 0

    def test_timers_accumulate(self):
        reg = Instrumentation()
        reg.add_time("p", 0.25)
        reg.add_time("p", 0.5)
        assert reg.time("p") == pytest.approx(0.75)

    def test_phase_context_manager(self):
        reg = Instrumentation()
        with reg.phase("work"):
            pass
        with reg.phase("work"):
            pass
        assert reg.time("work") > 0.0

    def test_phase_records_on_exception(self):
        reg = Instrumentation()
        with pytest.raises(RuntimeError):
            with reg.phase("boom"):
                raise RuntimeError("x")
        assert reg.time("boom") > 0.0

    def test_snapshot_is_a_copy(self):
        reg = Instrumentation()
        reg.count("c")
        snap = reg.snapshot()
        reg.count("c")
        assert snap["counters"]["c"] == 1
        assert reg.get("c") == 2

    def test_reset(self):
        reg = Instrumentation()
        reg.count("c")
        reg.add_time("t", 1.0)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}}


class TestPipelineCounters:
    def test_search_populates_counters_and_stats(self):
        from repro.core.embedding import clear_pair_memo
        from repro.formats import as_format
        from repro.formats.generate import random_sparse
        from repro.ir.kernels import mvm
        from repro.polyhedra.fm import clear_memos
        from repro.search.driver import search

        # cold-start the process-wide memos: warm FM/pair memos (from other
        # tests in the same process) would satisfy the legality queries with
        # zero fresh eliminations
        clear_memos()
        clear_pair_memo()
        A = as_format(random_sparse(8, 6, 0.3, seed=3).to_dense(), "csr")
        before = instrument.snapshot()
        result = search(mvm(), {"A": A}, param_values={"m": 8, "n": 6})
        after = instrument.snapshot()
        delta = compare_snapshots(before, after)

        assert delta["counters"]["search.candidates.generated"] == result.stats.generated
        assert delta["counters"]["search.candidates.legal"] == result.stats.legal
        assert delta["counters"]["search.candidates.lowered"] == result.stats.lowered
        assert delta["counters"]["fm.eliminations"] > 0
        assert delta["counters"]["plan.build_calls"] >= result.stats.lowered
        assert delta["timers"]["search.total"] > 0.0
        # per-search stats carry the same movement
        assert result.stats.fm_eliminations == delta["counters"]["fm.eliminations"]
        assert result.stats.timings["search.total"] > 0.0
        assert "search.legality" in result.stats.timings
        assert not result.stats.from_cache

    def test_codegen_counters(self):
        from repro.codegen.pysource import compile_plan_to_python
        from repro.core.cache import clear_compile_cache
        from repro.core.compiler import compile_kernel
        from repro.formats import as_format
        from repro.formats.generate import random_sparse
        from repro.ir.kernels import mvm

        clear_compile_cache()
        A = as_format(random_sparse(8, 6, 0.3, seed=3).to_dense(), "csr")
        kernel = compile_kernel(mvm(), {"A": A}, cache="off")
        before = instrument.snapshot()
        compile_plan_to_python(kernel.loop_ir())
        after = instrument.snapshot()
        delta = compare_snapshots(before, after)
        assert delta["counters"]["codegen.compiles"] == 1
        assert delta["timers"]["codegen.total"] > 0.0

    def test_fm_memo_hits_counted(self):
        from repro.polyhedra import fm
        from repro.polyhedra.linexpr import LinExpr
        from repro.polyhedra.system import Constraint, GE, System

        fm.clear_memos()
        x = LinExpr.variable("x")
        sys_ = System([Constraint(x - 1, GE), Constraint(LinExpr.constant(10) - x, GE)])
        before = INSTR.get("fm.feasible.memo_hits")
        assert fm.is_feasible(sys_)
        assert fm.is_feasible(System(list(sys_.constraints)))  # same content
        assert INSTR.get("fm.feasible.memo_hits") == before + 1


class TestReport:
    def test_render_empty(self):
        assert "no activity" in render_report(Instrumentation())

    def test_render_sections(self):
        reg = Instrumentation()
        reg.count("search.candidates.generated", 12)
        reg.count("cache.hits.exact", 3)
        reg.add_time("search.total", 1.5)
        text = render_report(reg)
        assert "phase timers" in text
        assert "counters" in text
        assert "search.candidates.generated" in text
        assert "1.500 s" in text

    def test_compare_snapshots_drops_zero_deltas(self):
        reg = Instrumentation()
        reg.count("a")
        before = reg.snapshot()
        reg.count("b", 2)
        delta = compare_snapshots(before, reg.snapshot())
        assert delta["counters"] == {"b": 2}

    def test_module_report_helper(self):
        assert isinstance(instrument.report(), str)


class TestTraceEnv:
    def test_trace_enabled_parsing(self, monkeypatch):
        for off in ("", "0", "false", "off", "no", "  OFF "):
            monkeypatch.setenv("REPRO_TRACE", off)
            assert not instrument.trace_enabled()
        for on in ("1", "true", "yes", "full"):
            monkeypatch.setenv("REPRO_TRACE", on)
            assert instrument.trace_enabled()

    def test_atexit_report_emitted(self):
        """REPRO_TRACE=1 prints the report on interpreter exit."""
        code = (
            "from repro.instrument import INSTR\n"
            "INSTR.count('search.candidates.generated', 7)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_TRACE": "1", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 0
        assert "repro pipeline instrumentation" in proc.stderr
        assert "search.candidates.generated" in proc.stderr

    def test_no_report_without_trace(self):
        code = "from repro.instrument import INSTR\nINSTR.count('x', 1)\n"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 0
        assert "instrumentation" not in proc.stderr
