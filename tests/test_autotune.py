"""Structure-adaptive autotuning: auto mode, the winner cache, and the
single-flight tune (paper Section 6's empirical route, made cacheable)."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cost.model import step_totals
from repro.formats import as_format
from repro.formats.generate import banded, random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import mvm
from repro.search.autotune import (
    WINNER_CACHE,
    autotune_repeats,
    autotune_topk,
    clear_winner_cache,
)
from repro.search.format_select import select_format
from repro.solvers import SolverContext, cg
from repro.util.env import EnvVarWarning

CANDS = ("csr", "coo", "ell")


@pytest.fixture(autouse=True)
def fresh_winner_cache():
    clear_winner_cache()
    yield
    clear_winner_cache()


def perturbed(matrix, seed=99):
    """Same pattern, different values — the same structure class by
    construction (cross-*sample* collision needs statistics to
    concentrate, i.e. larger matrices; see test_features)."""
    from repro.formats.coo import CooMatrix

    rows, cols, vals = matrix.to_coo_arrays()
    rng = np.random.default_rng(seed)
    return CooMatrix.from_coo(rows, cols, rng.random(vals.size) + 0.5,
                              matrix.shape)


def auto_select(matrix, **kw):
    kw.setdefault("candidates", CANDS)
    kw.setdefault("topk", 2)
    kw.setdefault("repeats", 1)
    return select_format(mvm(), "A", matrix, mode="auto", **kw)


class TestAutoMode:
    def test_picks_a_measured_winner(self):
        m = random_sparse(30, 30, density=0.15, seed=0)
        res = auto_select(m)
        name, inst, kernel = res.best
        assert name in CANDS
        assert res.choices[0].measured is not None
        assert res.choices[0].backend_used == "python"
        assert res.signature is not None
        assert not res.cached

        x = np.ones(30)
        y = np.zeros(30)
        kernel({"A": inst, "x": x, "y": y}, {"m": 30, "n": 30})
        assert np.allclose(y, m.to_dense() @ x)

    def test_untuned_candidates_keep_model_rank(self):
        m = random_sparse(30, 30, density=0.15, seed=0)
        res = auto_select(m, topk=1)
        measured = [c for c in res.choices if c.measured is not None]
        untuned = [c for c in res.choices if c.ok and c.measured is None]
        assert len(measured) == 1
        assert untuned and all(c.score is None and c.model_cost is not None
                               for c in untuned)
        # measured winner ranks ahead of untuned candidates
        assert res.choices[0].measured is not None

    def test_warm_path_serves_cached_winner(self):
        a = random_sparse(60, 60, density=0.1, seed=0)
        b = perturbed(a)                     # same structure class
        cold = auto_select(a)
        runs0 = INSTR.get("autotune.microbench.runs")
        warm = auto_select(b)
        assert warm.cached
        assert INSTR.get("autotune.microbench.runs") == runs0
        assert warm.best[0] == cold.best[0]
        assert warm.signature == cold.signature
        assert len(warm.choices) == 1        # only the winner is rebuilt
        assert "cached winner" in warm.table()

    def test_structure_change_is_a_miss(self):
        auto_select(random_sparse(60, 60, density=0.1, seed=0))
        tunes0 = INSTR.get("autotune.tunes")
        res = auto_select(banded(60, bandwidth=2, seed=0))
        assert not res.cached
        assert INSTR.get("autotune.tunes") == tunes0 + 1

    def test_cache_off_always_tunes(self):
        m = random_sparse(30, 30, density=0.15, seed=0)
        auto_select(m, autotune_cache="off")
        res = auto_select(m, autotune_cache="off")
        assert not res.cached
        assert len(WINNER_CACHE) == 0

    def test_bad_cache_mode_raises(self):
        m = random_sparse(10, 10, density=0.3, seed=0)
        with pytest.raises(ValueError):
            auto_select(m, autotune_cache="psychic")

    def test_table_mixes_measured_and_estimated(self):
        m = random_sparse(30, 30, density=0.15, seed=0)
        res = auto_select(m, topk=1)
        t = res.table()
        assert "seconds, python" in t
        assert "not tuned" in t


class TestReplayFallback:
    def test_stale_winner_re_tunes(self):
        m = random_sparse(30, 30, density=0.15, seed=0)
        auto_select(m)
        # poison the cached record with a format that cannot be built
        (key, rec), = WINNER_CACHE.items()
        WINNER_CACHE.put(key, dict(rec, format="no-such-format"))
        fails0 = INSTR.get("autotune.replay_failures")
        res = auto_select(perturbed(m))
        assert INSTR.get("autotune.replay_failures") == fails0 + 1
        assert not res.cached
        assert res.best[0] in CANDS
        # the stale record was overwritten with a good one
        assert WINNER_CACHE.get(key)["format"] == res.best[0]


class TestSingleFlight:
    def test_concurrent_selections_tune_once(self):
        base = random_sparse(60, 60, density=0.1, seed=0)
        mats = [perturbed(base, seed=s) for s in range(6)]
        tunes0 = INSTR.get("autotune.tunes")
        barrier = threading.Barrier(len(mats))

        def work(m):
            barrier.wait()
            return auto_select(m)

        with ThreadPoolExecutor(max_workers=len(mats)) as ex:
            results = list(ex.map(work, mats))
        assert INSTR.get("autotune.tunes") == tunes0 + 1
        assert len({r.best[0] for r in results}) == 1


class TestDiskLayer:
    def test_disk_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        m = random_sparse(30, 30, density=0.15, seed=0)
        res = auto_select(m, autotune_cache="disk")
        files = os.listdir(tmp_path / "autotune")
        assert len(files) == 1 and files[0].endswith(".json")

        # a fresh process would start with an empty memory layer
        WINNER_CACHE.clear()
        hits0 = INSTR.get("autotune.cache.hits.disk")
        warm = auto_select(perturbed(m), autotune_cache="disk")
        assert warm.cached
        assert warm.best[0] == res.best[0]
        assert INSTR.get("autotune.cache.hits.disk") == hits0 + 1

    def test_corrupt_disk_record_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        m = random_sparse(30, 30, density=0.15, seed=0)
        auto_select(m, autotune_cache="disk")
        (entry,) = (tmp_path / "autotune").iterdir()
        entry.write_text("{not json")
        WINNER_CACHE.clear()
        res = auto_select(m, autotune_cache="disk")
        assert not res.cached                 # re-tuned, not crashed


class TestKnobs:
    def test_topk_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE_TOPK", "1")
        assert autotune_topk() == 1
        m = random_sparse(30, 30, density=0.15, seed=0)
        runs0 = INSTR.get("autotune.microbench.runs")
        auto_select(m, topk=None)
        assert INSTR.get("autotune.microbench.runs") == runs0 + 1

    def test_malformed_env_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE_TOPK", "banana")
        with pytest.warns(EnvVarWarning):
            assert autotune_topk() == 3
        monkeypatch.setenv("REPRO_AUTOTUNE_REPEATS", "-4")
        with pytest.warns(EnvVarWarning):
            assert autotune_repeats() == 3

    def test_cache_mode_env(self, monkeypatch):
        from repro.core.cache import resolve_mode

        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", "off")
        assert resolve_mode(None, "REPRO_AUTOTUNE_CACHE") == "off"
        assert resolve_mode("disk", "REPRO_AUTOTUNE_CACHE") == "disk"   # kwarg wins
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", "psychic")
        with pytest.warns(EnvVarWarning):         # warn and default, like every knob
            assert resolve_mode(None, "REPRO_AUTOTUNE_CACHE") == "memory"
        with pytest.raises(ValueError):
            resolve_mode("psychic", "REPRO_AUTOTUNE_CACHE")


class TestLRU:
    def test_capacity_evicts_oldest(self):
        from repro.util.store import LRU

        assert isinstance(WINNER_CACHE, LRU)
        c = LRU(2)
        c.put("a", {"format": "csr"})
        c.put("b", {"format": "coo"})
        c.get("a")                            # refresh a
        c.put("c", {"format": "ell"})         # evicts b
        assert c.get("a") is not None
        assert c.get("b") is None
        assert c.get("c") is not None


class TestSolverContextAuto:
    def test_select_auto_string(self):
        m = random_sparse(40, 40, density=0.15, seed=0, ensure_diag=True)
        auto0 = INSTR.get("select.auto")
        ctx = SolverContext(as_format(m, "coo"), ops=("mvm",),
                            backend="python", select="auto",
                            candidates=CANDS, register=False)
        assert INSTR.get("select.auto") == auto0 + 1
        x = cg(ctx, np.ones(40), tol=0.0, max_iter=30)[0]
        x_ref = cg(as_format(m, "csr"), np.ones(40), tol=0.0, max_iter=30)[0]
        assert np.allclose(x, x_ref, atol=1e-8)


class TestStepTotalsMemo:
    def test_concurrent_memo_converges_to_one_list(self):
        fmt = as_format(random_sparse(20, 20, density=0.2, seed=0), "csr")
        barrier = threading.Barrier(8)

        def work(_):
            barrier.wait()
            return step_totals(fmt, "rows")

        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(work, range(8)))
        assert all(r is results[0] for r in results)
