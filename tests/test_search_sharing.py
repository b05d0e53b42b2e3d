"""What a search's candidates share is built once, and dies with the search.

Every candidate of one path choice shares that choice's statement copies,
so the search keeps one table of per-copy facts
(:class:`repro.core.facts.SearchFacts`): relations, guards, base
determinacy trackers, value ranges, loop bounds and pair polyhedra.  These
tests count how often each is built and check that nothing of the search
survives it: no table, no copy, no cyclic garbage for the collector.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.core import embedding, spaces
from repro.core.compiler import infer_param_values
from repro.core.plan import ExecNode, LoopNode, PlanError, VarLoopNode
from repro.core.redundancy import DeterminacyTracker
from repro.formats import as_format
from repro.formats.generate import can_1072_like, upper_triangular_of
from repro.ir.kernels import ALL_KERNELS
from repro.search import search
from tests.test_search_golden import _bindings


def _search(kernel, bindings):
    program = ALL_KERNELS[kernel]()
    return search(program, bindings, None,
                  infer_param_values(program, bindings))


@pytest.mark.parametrize("kernel,fmt", [("mvm", "csr"), ("mvm", "bsr"),
                                        ("spgemm", "csr"), ("mvm", "msr")],
                         ids=lambda p: str(p))
def test_search_leaves_no_cyclic_garbage(kernel, fmt):
    """Over a pre-built program (parsing one leaves cycles of its own)."""
    program = ALL_KERNELS[kernel]()
    bindings = _bindings(kernel, fmt)
    params = infer_param_values(program, bindings)
    search(program, bindings, None, params)     # first-use imports, memos
    gc.collect()
    gc.disable()
    try:
        search(program, bindings, None, params)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_each_fact_is_built_once(monkeypatch):
    """One ``spgemm/csr`` search: 24 candidates over one path choice, so
    one set of copies."""
    polyhedra, relations, trackers = Counter(), Counter(), Counter()
    pair_polyhedron = embedding.pair_polyhedron
    relation = spaces.StmtCopy.relation
    tracker_init = DeterminacyTracker.__init__

    def counted_pair(dep, src, dst, *rels):
        polyhedra[(id(dep), id(src), id(dst))] += 1
        return pair_polyhedron(dep, src, dst, *rels)

    def counted_relation(copy):
        relations[id(copy)] += 1
        return relation(copy)

    def counted_tracker(self, copy, rel):
        trackers[id(copy)] += 1
        tracker_init(self, copy, rel)

    monkeypatch.setattr(embedding, "pair_polyhedron", counted_pair)
    monkeypatch.setattr(spaces.StmtCopy, "relation", counted_relation)
    monkeypatch.setattr(DeterminacyTracker, "__init__", counted_tracker)
    result = _search("spgemm", _bindings("spgemm", "csr"))

    assert result.stats.generated == 24
    copies = {id(c) for c in result.plan.space.copies}
    assert polyhedra and set(polyhedra.values()) == {1}
    assert {k[1] for k in polyhedra} | {k[2] for k in polyhedra} <= copies
    assert relations == Counter(dict.fromkeys(copies, 1))
    assert trackers == Counter(dict.fromkeys(copies, 1))


def _exec_nodes(nodes):
    for n in nodes:
        if isinstance(n, ExecNode):
            yield n
        elif isinstance(n, LoopNode):
            for part in (n.before, n.body, n.after):
                yield from _exec_nodes(part)
        elif isinstance(n, VarLoopNode):
            yield from _exec_nodes(n.body)


def test_every_plan_gets_its_own_guard_lists():
    """A copy's guards are one tuple per search; each ExecNode holds its
    own list of them."""
    result = _search("spgemm", _bindings("spgemm", "csr"))
    execs = [n for _c, _cand, plan in result.ranked
             for n in _exec_nodes(plan.nodes)]
    assert len(execs) > len(result.ranked)
    assert len({id(n.guards) for n in execs}) == len(execs)


class _WeakCopy(spaces.StmtCopy):
    """A statement copy a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)
    made = []

    def __init__(self, *args):
        super().__init__(*args)
        _WeakCopy.made.append(weakref.ref(self))


@pytest.fixture
def weak_copies(monkeypatch):
    monkeypatch.setattr(spaces, "StmtCopy", _WeakCopy)
    _WeakCopy.made = []
    gc.collect()
    gc.disable()
    try:
        yield _WeakCopy.made
    finally:
        gc.enable()


def test_copies_die_with_the_search_result(weak_copies):
    result = _search("spgemm", _bindings("spgemm", "csr"))
    assert weak_copies
    held = {id(c) for _c, _cand, plan in result.ranked
            for c in plan.space.copies}
    assert {id(r()) for r in weak_copies} == held
    del result
    assert [r() for r in weak_copies] == [None] * len(weak_copies)


def test_copies_die_with_a_search_that_finds_no_plan(weak_copies):
    """``ts_upper`` on DIA has a candidate but no legal one: no plan is
    returned, so nothing may keep a copy alive."""
    upper = as_format(upper_triangular_of(can_1072_like(seed=1072)), "dia")
    upper.annotate_triangular("upper")
    try:
        _search("ts_upper", {"U": upper})
    except PlanError:
        pass
    else:
        pytest.fail("ts_upper on DIA found a plan")
    assert weak_copies
    assert [r() for r in weak_copies] == [None] * len(weak_copies)


@pytest.mark.parametrize("cache", ["off", "memory", "disk"])
def test_a_kernel_and_its_matrix_die_without_the_collector(
        cache, tmp_path, monkeypatch):
    """A compiled kernel's plan and the matrix it was bound on are freed
    with their last reference, not at the next full collection: a cold
    DIA request on ``can_1072`` holds 16 MiB of diagonals.  Guard
    simplification's recursive walk and a ``Coords`` level's runtime were
    reference cycles over them.  A cached entry keeps its plans, which
    hold a data-free stand-in of the matrix, not the matrix: a new
    instance of the same structure is then served from memory."""
    import repro
    from repro import instrument
    from repro.core.cache import (COMPILE_CACHE, clear_compile_cache,
                                  structural_signature)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = ALL_KERNELS["mvm"]()
    repro.compile_kernel(program, _bindings("mvm", "dia"), backend="python",
                         cache="off")                 # first-use imports
    clear_compile_cache()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        bindings = _bindings("mvm", "dia")
        matrix = weakref.ref(bindings["A"])
        key = structural_signature(program, bindings,
                                   infer_param_values(program, bindings),
                                   "best", 12, True)
        kernel = repro.compile_kernel(program, bindings, backend="python",
                                      cache=cache)
        source = kernel.source
        del kernel, bindings
        assert matrix() is None
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not kinds & {"Plan", "LevelRuntime", "DiaMatrix"}
    if cache == "off":
        return
    assert COMPILE_CACHE.get(key) is not None
    hits = instrument.snapshot()["counters"].get("cache.hits.memory", 0)
    kernel = repro.compile_kernel(program, _bindings("mvm", "dia"),
                                  backend="python", cache=cache)
    assert instrument.snapshot()["counters"]["cache.hits.memory"] == hits + 1
    assert kernel.source == source


@pytest.mark.parametrize("fmt", ["csr", "dia", "sym", "msr"])
def test_a_cold_compile_leaves_no_recursive_closure(fmt):
    """Parsing, validating and compiling ``mvm`` and printing its Python
    leave nothing in the collector's garbage: a nested function that calls
    itself, or an exec'd kernel its own globals hold, is a reference cycle
    per call."""
    import repro

    repro.compile_kernel(ALL_KERNELS["mvm"](), _bindings("mvm", fmt),
                         cache="off")                 # first-use imports
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        kernel = repro.compile_kernel(ALL_KERNELS["mvm"](),
                                      _bindings("mvm", fmt), cache="off")
        kernel.source
        del kernel
        gc.collect()
        closures = [o.__qualname__ for o in gc.garbage
                    if type(o).__name__ == "function"
                    and (o.__module__ or "").startswith("repro")
                    and "<locals>" in o.__qualname__]
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert closures == []
    assert garbage == 0
