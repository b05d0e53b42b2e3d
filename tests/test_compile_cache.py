"""Compilation-cache semantics: hit/miss, statistics-shift invalidation,
disk persistence, source replay, and the repeated-compile speedup."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import instrument
from repro.core.cache import (
    COMPILE_CACHE,
    CacheEntry,
    clear_compile_cache,
    resolve_mode,
    stats_signature,
    structural_signature,
)
from repro.core.compiler import compile_kernel
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, smvm_two


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _csr(m=8, n=6, density=0.3, seed=7):
    return as_format(random_sparse(m, n, density=density, seed=seed).to_dense(), "csr")


def _generated_delta(fn):
    """(result, number of candidates the search generated while running fn)."""
    before = instrument.snapshot()["counters"].get("search.candidates.generated", 0)
    out = fn()
    after = instrument.snapshot()["counters"].get("search.candidates.generated", 0)
    return out, after - before


class TestModes:
    def test_resolve_mode_explicit(self):
        assert resolve_mode("off") == "off"
        assert resolve_mode("memory") == "memory"
        assert resolve_mode("disk") == "disk"

    def test_resolve_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
        assert resolve_mode(None) == "off"
        monkeypatch.delenv("REPRO_COMPILE_CACHE")
        assert resolve_mode(None) == "memory"

    def test_resolve_mode_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_mode("maybe")

    def test_off_never_populates(self):
        A = _csr()
        compile_kernel(mvm(), {"A": A}, cache="off")
        assert len(COMPILE_CACHE) == 0

    def test_off_always_searches(self):
        A = _csr()
        _, gen1 = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="off"))
        _, gen2 = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="off"))
        assert gen1 > 0 and gen2 == gen1


class TestHitMiss:
    def test_second_compile_skips_search(self):
        A = _csr()
        k1, gen1 = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="memory"))
        k2, gen2 = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="memory"))
        assert gen1 > 0
        assert gen2 == 0                       # no candidate search on the hit
        assert k2.plan is k1.plan
        assert k2.cost == k1.cost

    def test_hit_counter_and_source_replay(self):
        A = _csr()
        before = instrument.snapshot()
        k1 = compile_kernel(mvm(), {"A": A}, cache="memory")
        src1 = k1.source                       # publish generated source
        k2 = compile_kernel(mvm(), {"A": A}, cache="memory")
        after = instrument.snapshot()
        assert (after["counters"].get("cache.hits.exact", 0)
                - before["counters"].get("cache.hits.exact", 0)) == 1
        assert k2.source == src1               # byte-identical replay
        assert k2._pyfunc is k1._pyfunc        # exec'd callable shared too

    def test_different_structure_misses(self):
        A = _csr()
        B = as_format(random_sparse(8, 6, 0.3, seed=7).to_dense(), "csc")
        _, gen1 = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="memory"))
        _, gen2 = _generated_delta(lambda: compile_kernel(mvm(), {"A": B}, cache="memory"))
        assert gen1 > 0 and gen2 > 0           # csc is a different structure

    def test_different_shape_misses(self):
        _, gen1 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": _csr(8, 6)}, cache="memory"))
        _, gen2 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": _csr(9, 6)}, cache="memory"))
        assert gen1 > 0 and gen2 > 0

    def test_pick_is_part_of_the_key(self):
        A = _csr()
        _, gen1 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": A}, cache="memory", pick="best"))
        _, gen2 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": A}, cache="memory", pick="first"))
        assert gen1 > 0 and gen2 > 0

    def test_cached_kernel_still_executes_correctly(self):
        A = _csr()
        dense = A.to_dense()
        compile_kernel(mvm(), {"A": A}, cache="memory")
        k = compile_kernel(mvm(), {"A": A}, cache="memory")
        x = np.arange(1.0, 7.0)
        y = np.zeros(8)
        k({"A": A, "x": x, "y": y}, {"m": 8, "n": 6})
        np.testing.assert_allclose(y, dense @ x)


class TestInvalidation:
    def test_stats_shift_reranks_not_researches(self):
        sparse = _csr(density=0.1, seed=1)
        dense_ = _csr(density=0.9, seed=2)
        assert sparse.nnz != dense_.nnz
        k1, gen1 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": sparse}, cache="memory"))
        before = instrument.snapshot()
        k2, gen2 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": dense_}, cache="memory"))
        after = instrument.snapshot()
        assert gen1 > 0 and gen2 == 0          # served from cache
        assert (after["counters"].get("cache.hits.rerank", 0)
                - before["counters"].get("cache.hits.rerank", 0)) == 1
        assert k2.result.stats.reranked

    def test_rerank_matches_fresh_search_selection(self):
        """The re-ranked selection must be the plan a from-scratch compile
        would pick for the new instance."""
        first = _csr(density=0.1, seed=1)
        second = _csr(density=0.9, seed=2)
        compile_kernel(mvm(), {"A": first}, cache="memory")
        cached = compile_kernel(mvm(), {"A": second}, cache="memory")
        fresh = compile_kernel(mvm(), {"A": second}, cache="off")
        assert cached.plan.pretty() == fresh.plan.pretty()
        assert cached.cost == pytest.approx(fresh.cost)

    def test_rerank_execution_stays_correct(self):
        first = _csr(density=0.1, seed=1)
        second = _csr(density=0.9, seed=2)
        compile_kernel(mvm(), {"A": first}, cache="memory")
        k = compile_kernel(mvm(), {"A": second}, cache="memory")
        x = np.arange(1.0, 7.0)
        y = np.zeros(8)
        k({"A": second, "x": x, "y": y}, {"m": 8, "n": 6})
        np.testing.assert_allclose(y, second.to_dense() @ x)

    def test_exact_stats_hit_does_not_rerank(self):
        A = _csr()
        B = as_format(A.to_dense(), "csr")     # same data, fresh instance
        compile_kernel(mvm(), {"A": A}, cache="memory")
        before = instrument.snapshot()
        k = compile_kernel(mvm(), {"A": B}, cache="memory")
        after = instrument.snapshot()
        assert (after["counters"].get("cache.hits.exact", 0)
                - before["counters"].get("cache.hits.exact", 0)) == 1
        assert not k.result.stats.reranked

    def test_first_pick_replays_across_stats(self):
        """pick='first' ignores costs, so its cached selection is valid for
        any statistics."""
        first = _csr(density=0.1, seed=1)
        second = _csr(density=0.9, seed=2)
        k1, gen1 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": first}, cache="memory", pick="first"))
        k2, gen2 = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": second}, cache="memory", pick="first"))
        assert gen1 > 0 and gen2 == 0
        assert k2.plan is k1.plan


class TestSignatures:
    def test_structural_signature_ignores_values(self):
        A = _csr(seed=7)
        B = as_format(A.to_dense() * 3.0, "csr")   # same pattern, new values
        pv = {"m": 8, "n": 6}
        sig_a = structural_signature(mvm(), {"A": A}, pv, "best", 12, True)
        sig_b = structural_signature(mvm(), {"A": B}, pv, "best", 12, True)
        assert sig_a == sig_b

    def test_structural_signature_sees_bounds_annotations(self):
        A = _csr(8, 8)
        B = as_format(A.to_dense(), "csr").annotate_triangular("lower")
        pv = {"m": 8, "n": 8}
        assert (structural_signature(mvm(), {"A": A}, pv, "best", 12, True)
                != structural_signature(mvm(), {"A": B}, pv, "best", 12, True))

    def test_structural_signature_sees_param_values(self):
        A = _csr()
        s1 = structural_signature(mvm(), {"A": A}, {"m": 8, "n": 6}, "best", 12, True)
        s2 = structural_signature(mvm(), {"A": A}, {"m": 8, "n": 7}, "best", 12, True)
        assert s1 != s2

    def test_stats_signature_sees_nnz(self):
        assert (stats_signature({"A": _csr(density=0.1, seed=1)})
                != stats_signature({"A": _csr(density=0.9, seed=2)}))


class TestDiskLayer:
    def test_disk_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        A = _csr()
        k1 = compile_kernel(mvm(), {"A": A}, cache="disk")
        src1 = k1.source
        assert list(tmp_path.glob("*.pkl"))
        # wipe memory: the entry must come back from disk
        COMPILE_CACHE.clear()
        k2, gen = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="disk"))
        assert gen == 0
        assert k2.source == src1
        x = np.arange(1.0, 7.0)
        y = np.zeros(8)
        k2({"A": A, "x": x, "y": y}, {"m": 8, "n": 6})
        np.testing.assert_allclose(y, A.to_dense() @ x)

    def test_an_edited_declaration_misses_its_parents_entry(
            self, tmp_path, monkeypatch):
        """The key sees the storage and the axes' search kinds: a class
        of the same name whose declared storage or axis override was
        edited does not replay the source recorded for the other one."""
        from repro.formats.csr import ROWS, CsrMatrix
        from repro.formats.levels import Path
        from repro.formats.views import Axis, LINEAR, UNORDERED

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        A = _csr()
        k1 = compile_kernel(mvm(), {"A": A}, cache="disk")

        def recompiled(**edited):
            B = type("CsrMatrix", (CsrMatrix,), edited)._adopt(
                A.rowptr, A.colind, A.values, A.shape)
            COMPILE_CACHE.clear()           # the disk layer has to answer
            return _generated_delta(
                lambda: compile_kernel(mvm(), {"A": B}, cache="disk"))

        k, gen = recompiled()               # control: only the name is shared
        assert gen == 0 and k.source == k1.source
        renamed = ROWS._replace(levels=(
            ROWS.levels[0], ROWS.levels[1]._replace(slot="slot")))
        k, gen = recompiled(
            declaration=lambda self: {"rows": Path(("r", "c"), renamed)})
        assert gen > 0
        assert "_slot" in k.source and "_slot" not in k1.source
        k, gen = recompiled(declaration=lambda self: {
            "rows": Path(("r", Axis("c", UNORDERED, LINEAR)), ROWS)})
        assert gen > 0

    def test_entry_pickled_with_fraction_coefficients_loads_canonical(
            self, tmp_path, monkeypatch):
        """A disk entry written before the integer polyhedral core (every
        coefficient a ``Fraction``, ``System`` without its cached fields;
        ``tests/golden/fraction_disk_cache``, pickled at the parent commit
        by this very request) is found under the same key — no digest
        hashes a coefficient's type — and replays as canonical values that
        print the same Python and C as a fresh search."""
        import io
        import pickle
        import shutil
        from fractions import Fraction
        from pathlib import Path

        from repro.codegen.native import lower_kernel
        from repro.polyhedra.linexpr import LinExpr

        A = as_format(lower_triangular_of(random_sparse(8, 8, 0.3, seed=7)).to_dense(),
                      "bsr", block_size=2)
        A.annotate_triangular("lower")      # its bounds are a pickled System
        key = structural_signature(mvm(), {"A": A}, {"m": 8, "n": 8}, "best", 12, True)
        fixture = Path(__file__).parent / "golden" / "fraction_disk_cache" / f"{key}.pkl"
        assert fixture.exists(), "the structural key moved"
        try:
            pickle.loads(fixture.read_bytes())
        except ModuleNotFoundError as e:       # numpy's array pickles name its internals
            pytest.skip(f"fixture needs the numpy that pickled it: {e}")
        assert b"fractions" in fixture.read_bytes()
        assert b"repro.polyhedra.system" in fixture.read_bytes()
        shutil.copy(fixture, tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        before = instrument.snapshot()["counters"].get("cache.hits.disk", 0)
        k, gen = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="disk"))
        assert gen == 0
        assert instrument.snapshot()["counters"].get("cache.hits.disk", 0) == before + 1

        seen = []

        class Collect(pickle.Pickler):      # visits every object the entry holds
            def reducer_override(self, obj):
                if isinstance(obj, LinExpr):
                    seen.extend([*obj.coeffs.values(), obj.const])
                return NotImplemented

        Collect(io.BytesIO()).dump(COMPILE_CACHE.get(key))
        assert len(seen) > 50 and any(c not in (0, 1, -1) for c in seen)
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                   for c in seen)

        fresh = compile_kernel(mvm(), {"A": A}, cache="off")
        # the Python source is replayed as stored: today's kernel under the
        # search routines every source carried until they became loop IR
        from tests.test_search_golden import PR19_PREAMBLE
        head = "import numpy as _np\n"
        assert k.source == head + PR19_PREAMBLE + fresh.source[len(head):]
        assert lower_kernel(k).c_source == lower_kernel(fresh).c_source
        assert k.cost == fresh.cost
        x = np.arange(1.0, 9.0)
        y = np.zeros(8)
        k({"A": A, "x": x, "y": y}, {"m": 8, "n": 8})
        np.testing.assert_allclose(y, A.to_dense() @ x)

    def test_entry_holding_a_plan_twice_replays(self, tmp_path, monkeypatch):
        """A disk entry written while the search still lowered every
        candidate (``tests/golden/duplicate_plans_disk_cache``, pickled at
        the parent commit by this very request: three ranked plans, two of
        them one plan) is found under the same key, replays the winner a
        fresh search picks, and re-ranks for shifted statistics as a fresh
        search ranks."""
        import pickle
        import shutil
        from pathlib import Path

        A = _csr()
        key = structural_signature(mvm(), {"A": A}, {"m": 8, "n": 6}, "best", 12, True)
        fixture = Path(__file__).parent / "golden" / "duplicate_plans_disk_cache" / f"{key}.pkl"
        assert fixture.exists(), "the structural key moved"
        try:
            pickle.loads(fixture.read_bytes())
        except ModuleNotFoundError as e:       # numpy's array pickles name its internals
            pytest.skip(f"fixture needs the numpy that pickled it: {e}")
        shutil.copy(fixture, tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        k, gen = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": A}, cache="disk", backend="python"))
        assert gen == 0
        entry = COMPILE_CACHE.get(key)
        texts = [plan.pretty() for _c, _cand, plan in entry.ranked]
        assert len(texts) == 3 and len(set(texts)) == 2
        fresh = compile_kernel(mvm(), {"A": A}, cache="off", backend="python")
        assert len(fresh.result.ranked) == 2
        assert k.source == fresh.source and k.cost == fresh.cost

        shifted = _csr(density=0.9, seed=2)
        k2, gen = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": shifted}, cache="disk", backend="python"))
        assert gen == 0 and k2.result.stats.reranked
        fresh = compile_kernel(mvm(), {"A": shifted}, cache="off", backend="python")
        assert k2.plan.pretty() == fresh.plan.pretty()
        assert k2.cost == pytest.approx(fresh.cost)
        assert k2.result.stats.distinct == 2

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        A = _csr()
        compile_kernel(mvm(), {"A": A}, cache="disk")
        (pkl,) = tmp_path.glob("*.pkl")
        pkl.write_bytes(b"not a pickle")
        COMPILE_CACHE.clear()
        k, gen = _generated_delta(lambda: compile_kernel(mvm(), {"A": A}, cache="disk"))
        assert gen > 0                         # fell back to a real search
        x = np.arange(1.0, 7.0)
        y = np.zeros(8)
        k({"A": A, "x": x, "y": y}, {"m": 8, "n": 6})
        np.testing.assert_allclose(y, A.to_dense() @ x)

    def test_clear_compile_cache_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        A = _csr()
        compile_kernel(mvm(), {"A": A}, cache="disk")
        assert list(tmp_path.glob("*.pkl"))
        clear_compile_cache(disk=True)
        assert not list(tmp_path.glob("*.pkl"))

    def test_clear_disk_leaves_a_cold_disk(self, tmp_path, monkeypatch):
        """``disk=True`` removes everything ``cache="disk"`` put there —
        pickled entries, sharded ``.so`` artifacts, lock files, temporaries
        orphaned by a killed writer — so the next compile really is cold:
        it searches, and it runs ``cc`` (no ``native.so_cache.hits.disk``).
        The winner cache's records under ``autotune/`` are not ours."""
        from repro.core import backend as be
        from repro.search.autotune import WINNER_CACHE, clear_winner_cache

        if be.find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def files():
            return sorted(str(p.relative_to(tmp_path))
                          for p in tmp_path.rglob("*") if p.is_file())

        def counters():
            return dict(instrument.snapshot()["counters"])

        A = _csr()
        be.reset_toolchain_cache()          # no loaded .so from an earlier test
        k = compile_kernel(mvm(), {"A": A}, cache="disk", backend="c")
        assert k.backend_used.startswith("c")
        (so,) = tmp_path.glob("??/*.so")
        # what a writer killed mid-flight leaves behind
        orphans = [so.with_name(so.name + ".lock"),
                   so.with_name("repro-tmp-dead0001.tmp"),
                   so.with_name("repro-tmp-dead0001.tmp.c"),
                   tmp_path / "repro-tmp-dead0002.tmp",
                   tmp_path / "autotune" / "repro-tmp-dead0003.tmp"]
        WINNER_CACHE.store("c" * 64, {"format": "csr"}, disk=True)
        for p in orphans:
            p.write_bytes(b"")
        assert len(files()) == 2 + len(orphans) + 1

        clear_compile_cache(disk=True)
        assert files() == ["autotune/" + "c" * 64 + ".json",
                           "autotune/repro-tmp-dead0003.tmp"]
        clear_winner_cache(disk=True)
        assert files() == []

        be.reset_toolchain_cache(scratch=True)
        before = counters()
        k2, gen = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": A}, cache="disk", backend="c"))
        assert k2.backend_used.startswith("c")
        after = counters()
        delta = lambda name: after.get(name, 0) - before.get(name, 0)  # noqa: E731
        assert gen > 0
        assert delta("native.compiles") == 1
        assert delta("native.so_cache.hits.disk") == 0
        assert delta("cache.hits.disk") == 0


class TestLru:
    def test_eviction_respects_capacity(self):
        old_cap = COMPILE_CACHE.capacity
        COMPILE_CACHE.capacity = 2
        try:
            for n in (5, 6, 7):
                compile_kernel(mvm(), {"A": _csr(8, n)}, cache="memory")
            assert len(COMPILE_CACHE) == 2
            # oldest (n=5) evicted: compiling it again searches afresh
            _, gen = _generated_delta(
                lambda: compile_kernel(mvm(), {"A": _csr(8, 5)}, cache="memory"))
            assert gen > 0
        finally:
            COMPILE_CACHE.capacity = old_cap

    def test_entry_picklability_guard(self):
        entry = CacheEntry([], 0, "best", (), None)
        entry.fns[0] = lambda a, p: None
        state = entry.__getstate__()
        assert state["fns"] == {}              # callables never pickled


class TestSpeedup:
    def test_repeated_compile_speedup(self):
        """Acceptance criterion: >= 5x on cache hits, identical source."""
        A = as_format(random_sparse(20, 20, 0.2, seed=9).to_dense(), "csr")
        prog = smvm_two()
        t0 = time.perf_counter()
        k1 = compile_kernel(prog, {"A": A}, cache="memory")
        src1 = k1.source
        cold = time.perf_counter() - t0

        best_hit = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            k2 = compile_kernel(prog, {"A": A}, cache="memory")
            assert k2.source == src1
            best_hit = min(best_hit, time.perf_counter() - t0)
        assert cold / best_hit >= 5.0
