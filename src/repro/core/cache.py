"""Compilation cache: amortize the enumerate-estimate-select pipeline.

The Bernoulli model compiles one kernel per (program, format-structure)
pair and reuses it for every matrix instance with that structure.  This
module implements that amortization for :func:`repro.core.compiler.
compile_kernel`:

**Structural signature** — the cache key is a SHA-256 digest of
everything the candidate search depends on: the program text (the IR
printer is deterministic and round-trippable), the per-array format
*structure* (format class and name, view shape via access-path reprs and
index substitutions, bounds annotations, per-axis ranges/totals — all
shape-derived, none statistics-derived), the concrete ``param_values``,
and the search knobs (``pick``, ``max_orders``, ``simplify_guards``).
Two calls with equal structural signatures are guaranteed to enumerate
the identical candidate set and lower the identical plans; only the
*cost ranking* can differ, because costs read instance statistics.

**Statistics signature & invalidation** — alongside each entry we record
the instance statistics the ranking consumed (shape, nnz, per-path step
totals).  On a hit with equal statistics the memoized selection is
returned as-is.  On a hit with shifted statistics the cached ranked plans
are *re-costed* against the new instances (``plan_cost(..., fmts=...)``)
and re-selected — exactly what a fresh search would do after re-lowering
the same candidates, minus the polyhedral work.  ``pick="first"``
ignores costs entirely, so its entries replay regardless of statistics
(the first legal candidate is structure-determined).

**Layers** — :data:`COMPILE_CACHE` is a :class:`repro.util.store.Store`:
an in-memory LRU (always consulted when caching is on) and an opt-in
on-disk layer (``cache="disk"``) that pickles entries under a cache
directory so separate processes share compiles.  Generated Python source
is published into the entry on first codegen and replayed byte-identically
on later hits.

**Concurrency** — the store guards its own bookkeeping; every entry
carries its own RLock serializing mutation (re-ranking, guard
simplification, source publication), so concurrent ``compile_kernel``
calls — e.g. through :func:`repro.core.service.compile_many` — share
entries safely.  Re-ranking never mutates plans in place (costs are
computed with a guard-count override), so a thread executing a cached
plan is never perturbed by a sibling's rerank.

Control: ``compile_kernel(..., cache="off"|"memory"|"disk")``, default
taken from ``REPRO_COMPILE_CACHE`` (default ``"memory"``).  With
``"off"`` the pipeline runs untouched — zero behavior change.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.plan import ExecNode, LoopNode, VarLoopNode
from repro.cost.model import plan_cost, step_totals
from repro.formats.base import SparseFormat
from repro.instrument import INSTR
from repro.ir.printer import program_to_text
from repro.ir.program import Program
from repro.search.driver import SearchResult, SearchStats
from repro.util.store import Store

MODES = ("off", "memory", "disk")


def resolve_mode(cache: Optional[str]) -> str:
    """``cache`` kwarg if given, else ``REPRO_COMPILE_CACHE``, else memory."""
    mode = cache if cache is not None else os.environ.get(
        "REPRO_COMPILE_CACHE", "memory").strip().lower()
    if mode not in MODES:
        raise ValueError(f"cache mode must be one of {MODES}, got {mode!r}")
    return mode


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def format_structure(fmt: SparseFormat) -> Tuple:
    """Everything about a format instance the candidate search and the
    emitted code can see: class, view/path shape, substitutions,
    annotations, axis properties and geometry, the storage declaration.
    Deliberately excludes the stored data and its statistics."""
    paths = []
    for p in fmt.paths():
        axes = []
        for a in p.axis_names:
            axes.append((repr(p.axis(a)),     # name, order, search, perm
                         fmt.axis_range(a), fmt.axis_total(a)))
        paths.append((
            p.path_id,
            repr(p),                          # steps + branch (subs omitted)
            repr(sorted(p.subs.items(), key=lambda kv: kv[0])),
            tuple(axes),
            repr(fmt.storage(p.path_id)),
        ))
    return (
        type(fmt).__name__,
        fmt.format_name,
        fmt.nrows,
        fmt.ncols,
        repr(fmt.bounds()),
        tuple(paths),
    )


def structural_signature(
    program: Program,
    bindings: Mapping[str, SparseFormat],
    param_values: Mapping[str, int],
    pick: str,
    max_orders: int,
    simplify_guards: bool,
) -> str:
    """Canonical digest of everything that determines the candidate set
    and the lowered plans (not their cost ranking)."""
    parts: List[str] = [
        program_to_text(program),
        repr(sorted((k, int(v)) for k, v in param_values.items())),
        repr((pick, max_orders, bool(simplify_guards))),
    ]
    for name in sorted(bindings):
        parts.append(repr((name, format_structure(bindings[name]))))
    blob = "\x1e".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stats_signature(bindings: Mapping[str, SparseFormat]) -> Tuple:
    """The instance statistics the cost ranking consumed."""
    out = []
    for name in sorted(bindings):
        fmt = bindings[name]
        per_path = tuple(
            (p.path_id, tuple(step_totals(fmt, p.path_id))) for p in fmt.paths()
        )
        out.append((name, fmt.nrows, fmt.ncols, fmt.nnz, per_path))
    return tuple(out)


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------

class CacheEntry:
    """One memoized search: the ranked lowered plans (cost-sorted at record
    time), which index was selected, the statistics that ranking saw, and
    the generated source per selected plan (published lazily).

    ``_lock`` serializes every mutation of the entry (re-ranking, guard
    simplification, source publication) — hits on the same structural key
    from concurrent threads share this object.  It is re-created on
    unpickling (locks don't pickle).

    The per-plan side tables (``simplified``, ``sources``, ``fns``,
    ``irs``, ``guard_snapshots``) are keyed by *stable ids* — each plan's position
    in the record-time ranking — not by current ranked position.  A
    statistics-shift rerank permutes ``ranked``/``ids`` only, so an id a
    caller obtained from :func:`lookup` stays valid even if a sibling
    thread reranks the entry before the caller touches the side tables."""

    def __init__(self, ranked, selected_index: int, pick: str,
                 stats_sig: Tuple, search_stats: SearchStats):
        self._lock = threading.RLock()
        self.ranked = list(ranked)            # [(cost, candidate, plan)]
        self.ids = list(range(len(self.ranked)))  # stable id per ranked slot
        self.selected_index = selected_index
        self.pick = pick
        self.stats_sig = stats_sig
        self.search_stats = search_stats
        self.simplified = set()               # stable ids already guard-simplified
        self.sources: Dict[int, str] = {}     # stable id -> generated source
        self.fns: Dict[int, object] = {}      # stable id -> exec'd kernel (transient)
        self.irs: Dict[int, object] = {}      # stable id -> loop IR (transient)
        # pristine per-exec-node guard lists, captured before any guard
        # simplification, so re-ranking can cost plans the way a fresh
        # search would (simplification rewrites the live guard lists)
        self.guard_snapshots: Dict[int, List[List]] = {
            i: [list(n.guards) for n in _exec_nodes(plan)]
            for i, (_c, _cand, plan) in enumerate(self.ranked)
        }

    def selected_id(self) -> int:
        """Stable id of the currently selected ranked slot."""
        return self.ids[self.selected_index]

    def __getstate__(self):
        state = dict(self.__dict__)
        state["fns"] = {}                     # callables don't pickle; rebuilt from source
        state["irs"] = {}                     # memory only; rebuilt from the plan
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()
        # entries pickled before stable ids existed kept their side tables
        # aligned with current ranked positions — identical to ids 0..n-1
        self.__dict__.setdefault("ids", list(range(len(self.ranked))))
        self.__dict__.setdefault("irs", {})


def _load_entry(f) -> Optional[CacheEntry]:
    entry = pickle.load(f)
    return entry if isinstance(entry, CacheEntry) else None


def _cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(tempfile.gettempdir(), "repro-compile-cache"))


#: the process-wide compilation cache: structural key -> :class:`CacheEntry`,
#: pickled one file per key under ``REPRO_CACHE_DIR`` in ``disk`` mode.  The
#: native backend shards its ``.so`` artifacts (with their ``.lock`` files
#: and ``.c`` temporaries) under the same directory, so they are this
#: store's to clear.
COMPILE_CACHE = Store(
    256, directory=_cache_dir, suffix=".pkl",
    dump=lambda entry, f: pickle.dump(entry, f, pickle.HIGHEST_PROTOCOL),
    load=_load_entry, save_errors="cache.disk.save_errors",
    owns=(".so", ".lock", ".c"))


def clear_compile_cache(disk: bool = False) -> None:
    """Drop the in-memory cache — and, with ``disk=True``, everything the
    disk layer holds: pickled entries, native artifacts, lock files and
    temporaries orphaned by a killed writer."""
    COMPILE_CACHE.clear(disk)


# ---------------------------------------------------------------------------
# Lookup / record
# ---------------------------------------------------------------------------

def _select(ranked, pick: str) -> int:
    return len(ranked) - 1 if pick == "worst" else 0


def _exec_nodes(plan) -> List[ExecNode]:
    out: List[ExecNode] = []

    def walk(nodes):
        for n in nodes:
            if isinstance(n, ExecNode):
                out.append(n)
            elif isinstance(n, LoopNode):
                walk(n.before)
                walk(n.body)
                walk(n.after)
            elif isinstance(n, VarLoopNode):
                walk(n.body)

    walk(plan.nodes)
    return out


def _pristine_cost(entry: CacheEntry, idx: int, plan,
                   param_values: Mapping[str, int],
                   fmts: Mapping[str, SparseFormat]) -> float:
    """Cost the plan as a fresh search would see it: guard simplification
    happens after costing, so simplified plans are re-costed with their
    recorded pre-simplification guard *counts* overriding the live ones.
    The override (rather than swapping guards in place) keeps re-ranking
    read-only on the plan — other threads may be executing it."""
    snap = entry.guard_snapshots.get(idx)
    if idx not in entry.simplified or snap is None:
        return plan_cost(plan, param_values, fmts=fmts)
    nodes = _exec_nodes(plan)
    guard_counts = {id(n): len(g) for n, g in zip(nodes, snap)}
    return plan_cost(plan, param_values, fmts=fmts, guard_counts=guard_counts)


def lookup(
    key: str,
    mode: str,
    bindings: Mapping[str, SparseFormat],
    param_values: Mapping[str, int],
    pick: str,
) -> Optional[Tuple[SearchResult, CacheEntry, int]]:
    """Serve a memoized search for this structural key, or None.

    Returns the reconstructed :class:`SearchResult` plus the entry and the
    *stable id* of the selected plan (for source replay/publication; valid
    across concurrent reranks)."""
    INSTR.count("cache.lookups")
    entry, layer = COMPILE_CACHE.lookup(key, mode == "disk")
    if entry is None:
        INSTR.count("cache.misses")
        return None

    # entry contents (stats_sig, ranked order, side tables) are shared with
    # every thread that hit this key: serialize the compare-and-rerank
    with entry._lock:
        new_sig = stats_signature(bindings)
        stats = entry.search_stats.clone()
        stats.from_cache = True

        if new_sig == entry.stats_sig:
            INSTR.count(f"cache.hits.{layer}")
            INSTR.count("cache.hits.exact")
            pos = entry.selected_index
            cost, cand, plan = entry.ranked[pos]
            return (SearchResult(plan, cost, cand, stats, list(entry.ranked)),
                    entry, entry.ids[pos])

        # Statistics shifted: re-cost the memoized plans against the new
        # instances and re-select, exactly as a fresh search would rank them.
        INSTR.count(f"cache.hits.{layer}")
        INSTR.count("cache.hits.rerank")
        stats.reranked = True
        if entry.pick == "first":
            # "first" never consulted costs; the selection is structure-determined.
            pos = entry.selected_index
            sid = entry.ids[pos]
            _old, cand, plan = entry.ranked[pos]
            cost = _pristine_cost(entry, sid, plan, param_values, dict(bindings))
            entry.ranked[pos] = (cost, cand, plan)
            entry.stats_sig = new_sig
            return (SearchResult(plan, cost, cand, stats, list(entry.ranked)),
                    entry, sid)

        fmts = dict(bindings)
        rescored = [
            (_pristine_cost(entry, entry.ids[pos], plan, param_values, fmts),
             entry.ids[pos], cand, plan)
            for pos, (_oc, cand, plan) in enumerate(entry.ranked)
        ]
        rescored.sort(key=lambda t: (t[0], t[1]))  # record-time rank breaks ties
        old_selected = entry.ranked[entry.selected_index][2]

        # permute the ranking only — the side tables are keyed by stable id
        entry.ranked = [(c, cand, plan) for c, _sid, cand, plan in rescored]
        entry.ids = [sid for _c, sid, _cand, _p in rescored]
        entry.stats_sig = new_sig
        entry.selected_index = _select(entry.ranked, pick)

        cost, cand, plan = entry.ranked[entry.selected_index]
        if plan is not old_selected:
            INSTR.count("cache.rerank.changed")
        return (SearchResult(plan, cost, cand, stats, list(entry.ranked)),
                entry, entry.selected_id())


def record(
    key: str,
    mode: str,
    result: SearchResult,
    bindings: Mapping[str, SparseFormat],
    pick: str,
) -> Tuple[CacheEntry, int]:
    """Memoize a fresh search result under its structural key.

    Returns the entry and the stable id of the selected plan (equal to its
    record-time rank; safe to use after the entry becomes visible to — and
    possibly reranked by — concurrent threads)."""
    selected = next(
        i for i, (_c, _cand, plan) in enumerate(result.ranked)
        if plan is result.plan
    )
    entry = CacheEntry(result.ranked, selected, pick,
                       stats_signature(bindings), result.stats.clone())
    COMPILE_CACHE.store(key, entry, mode == "disk")
    INSTR.count("cache.stores")
    return entry, selected
