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
    format_structure,
    resolve_mode,
    stats_signature,
    structural_signature,
)
from repro.core.compiler import compile_kernel
from repro.formats import FORMATS, as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, smvm_two
from repro.search.driver import search


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

    def test_a_misspelt_env_mode_warns_and_uses_memory(self, monkeypatch):
        from repro.util.env import EnvVarWarning

        name = "env.parse_errors.REPRO_COMPILE_CACHE"
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "memroy")
        before = instrument.snapshot()["counters"].get(name, 0)
        with pytest.warns(EnvVarWarning, match="REPRO_COMPILE_CACHE"):
            compile_kernel(mvm(), {"A": _csr()})
        assert len(COMPILE_CACHE) == 1
        assert instrument.snapshot()["counters"].get(name, 0) == before + 1

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


def _texts(ranked):
    return [plan.pretty() for _cost, _cand, plan in ranked]


class TestNoSearchedPlanIsRewritten:
    """Guard simplification makes a new plan.  On every path a compile
    takes, the plans its search result ranks (and the cache entry holds)
    print as a fresh search prints them, in order, and the kernel runs
    the simplified copy of the selected one."""

    PV = {"m": 8, "n": 6}

    def _check(self, k, A, recorded=None):
        """``recorded``: the instance the cache entry was searched with."""
        fresh = search(mvm(), {"A": A}, None, self.PV)
        assert _texts(k.result.ranked) == _texts(fresh.ranked)
        assert k.result.plan.pretty() == fresh.plan.pretty()
        assert k.plan.pretty() == fresh.plan.simplified(self.PV).pretty()
        assert k.plan.pretty() != fresh.plan.pretty()   # guards did drop
        first = search(mvm(), {"A": recorded or A}, None, self.PV)
        for entry in COMPILE_CACHE.values():
            assert _texts(entry.ranked) == _texts(first.ranked)
        x = np.arange(1.0, 7.0)
        y = np.zeros(8)
        k({"A": A, "x": x, "y": y}, self.PV)
        np.testing.assert_allclose(y, A.to_dense() @ x)

    def test_off(self):
        A = _csr()
        self._check(compile_kernel(mvm(), {"A": A}, cache="off"), A)

    def test_memory_miss_exact_hit_and_rerank_hit(self):
        A = _csr(density=0.1, seed=1)
        k = compile_kernel(mvm(), {"A": A}, cache="memory")
        assert not k.result.stats.from_cache
        self._check(k, A)
        B = as_format(A.to_dense(), "csr")
        k = compile_kernel(mvm(), {"A": B}, cache="memory")
        assert k.result.stats.from_cache and not k.result.stats.reranked
        self._check(k, B)
        C = _csr(density=0.9, seed=2)
        k = compile_kernel(mvm(), {"A": C}, cache="memory")
        assert k.result.stats.reranked
        self._check(k, C, recorded=A)

    def test_disk_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        A = _csr()
        self._check(compile_kernel(mvm(), {"A": A}, cache="disk"), A)
        COMPILE_CACHE.clear()
        k = compile_kernel(mvm(), {"A": A}, cache="disk")
        assert k.result.stats.from_cache
        self._check(k, A)


class TestSignatures:
    def test_structural_signature_ignores_values(self):
        A = _csr(seed=7)
        B = as_format(A.to_dense() * 3.0, "csr")   # same pattern, new values
        pv = {"m": 8, "n": 6}
        sig_a = structural_signature(mvm(), {"A": A}, pv, "best", True)
        sig_b = structural_signature(mvm(), {"A": B}, pv, "best", True)
        assert sig_a == sig_b

    def test_structural_signature_sees_bounds_annotations(self):
        A = _csr(8, 8)
        B = as_format(A.to_dense(), "csr").annotate_triangular("lower")
        pv = {"m": 8, "n": 8}
        assert (structural_signature(mvm(), {"A": A}, pv, "best", True)
                != structural_signature(mvm(), {"A": B}, pv, "best", True))

    def test_structural_signature_sees_param_values(self):
        A = _csr()
        s1 = structural_signature(mvm(), {"A": A}, {"m": 8, "n": 6}, "best", True)
        s2 = structural_signature(mvm(), {"A": A}, {"m": 8, "n": 7}, "best", True)
        assert s1 != s2

    def test_stats_signature_sees_nnz(self):
        assert (stats_signature({"A": _csr(density=0.1, seed=1)})
                != stats_signature({"A": _csr(density=0.9, seed=2)}))

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_a_plan_holds_a_stand_in_of_the_structure(self, name):
        """The search builds its plans over a data-free stand-in of each
        instance, one per instance, whose structure is the instance's."""
        dense = lower_triangular_of(random_sparse(8, 8, 0.4, seed=3)).to_dense()
        if name == "sym":
            A = as_format(dense + np.tril(dense, -1).T, name)
        else:
            A = as_format(dense, name).annotate_triangular("lower")
        k = compile_kernel(mvm(), {"A": A}, cache="off")
        stand_ins = {id(ref.fmt): ref.fmt for _c, cand, _p in k.result.ranked
                     for copy in cand.space.copies for ref in copy.refs}
        (S,) = stand_ins.values()
        assert type(S) is type(A) and S is not A
        assert format_structure(S) == format_structure(A)
        assert not any(isinstance(v, np.ndarray) for v in vars(S).values())
        assert repr(S) == f"<{name} 8x8, nnz=->"


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

    @pytest.mark.parametrize("backend,bind", [
        ("python", True), ("c", True), ("python", False)])
    def test_a_cold_disk_compile_writes_its_entry_once(
            self, backend, bind, tmp_path, monkeypatch):
        """One pickle per cold compile: with its source when the kernel is
        bound (printed at once), or, unbound, when it prints the source or
        dies without.  The next process (memory cleared) hits the disk and
        replays the source, if there was one, unprinted."""
        import gc

        from repro.core import backend as be

        if backend == "c" and be.find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        puts, put = [], COMPILE_CACHE.disk_put
        monkeypatch.setattr(COMPILE_CACHE, "disk_put", lambda key, value: (
            puts.append(key), put(key, value)))
        A = _csr()
        k = compile_kernel(mvm(), {"A": A}, cache="disk", backend=backend,
                           bind=bind)
        assert len(puts) == bind
        del k
        gc.collect()
        assert len(puts) == 1
        COMPILE_CACHE.clear()
        before = dict(instrument.snapshot()["counters"])
        k, gen = _generated_delta(
            lambda: compile_kernel(mvm(), {"A": A}, cache="disk",
                                   backend=backend))
        k.source
        del k
        gc.collect()
        after = instrument.snapshot()["counters"]
        assert gen == 0 and len(puts) == 1 + (not bind)
        delta = lambda name: after.get(name, 0) - before.get(name, 0)  # noqa: E731
        assert delta("cache.hits.disk") == 1
        assert delta("cache.source_replays") == bind

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

    @pytest.mark.parametrize("fmt", ["csr", "dia"])
    def test_an_entry_does_not_carry_the_matrix(self, fmt, tmp_path,
                                                monkeypatch):
        """``mvm`` on ``can_1072``: the DIA instance holds 16 MiB of
        diagonals, its entry a few kB."""
        from repro.formats.generate import can_1072_like

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        compile_kernel(mvm(), {"A": as_format(can_1072_like(), fmt)},
                       cache="disk", backend="python")
        (pkl,) = tmp_path.glob("*.pkl")
        assert pkl.stat().st_size < 32 * 1024

    def test_another_builds_entry_is_a_miss(self, tmp_path, monkeypatch):
        """An entry file is named under a digest of the package source: the
        entry another build wrote is not read, a fresh search writes this
        build's beside it, and ``disk=True`` clears both."""
        from repro.core import cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        A = _csr()
        k1 = compile_kernel(mvm(), {"A": A}, cache="disk")
        COMPILE_CACHE.clear()
        monkeypatch.setattr(cache, "_source_digest", lambda: "another build")
        misses = instrument.snapshot()["counters"].get("cache.misses", 0)
        k2, gen = _generated_delta(lambda: compile_kernel(mvm(), {"A": A},
                                                          cache="disk"))
        assert gen > 0
        assert instrument.snapshot()["counters"]["cache.misses"] == misses + 1
        assert k2.source == k1.source
        assert len(list(tmp_path.glob("*.pkl"))) == 2
        clear_compile_cache(disk=True)
        assert not list(tmp_path.glob("*.pkl"))

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
        import pickle

        result = search(mvm(), {"A": _csr()}, None, {"m": 8, "n": 6})
        entry = CacheEntry(result.ranked, 0, "best", (), result.stats)
        memo = entry.memo(0, {"m": 8, "n": 6}, True)
        memo.fn = lambda a, p: None
        memo.ir = lambda: None                 # stands in for the loop IR
        state = memo.__getstate__()
        assert set(state) == {"plan", "source"}  # callables never pickled
        back = pickle.loads(pickle.dumps(entry))  # a lambda would not pickle
        assert back.memos[0].fn is None and back.memos[0].ir is None
        assert back.memos[0].plan.pretty() == memo.plan.pretty()


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
