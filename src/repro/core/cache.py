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
returned as-is.  On a hit with shifted statistics the recorded plans are
*re-costed* against the new instances (``plan_cost(..., fmts=...)``) and
re-selected — exactly what a fresh search would do after re-lowering the
same candidates, minus the polyhedral work.  Plans stay as the search
built them: guard simplification makes a new plan, kept in the entry's
memo for that plan beside its generated Python source, which later hits
replay byte-identically.

**Layers** — :data:`COMPILE_CACHE` is a :class:`repro.util.store.Store`:
an in-memory LRU (always consulted when caching is on) and an opt-in
on-disk layer (``cache="disk"``) that pickles entries under a cache
directory so separate processes of one build share compiles (an entry
file is named by its key under a digest of the ``repro`` source).  Plans
hold data-free stand-ins of the formats, so no entry holds a matrix.

**Concurrency** — the store guards its own bookkeeping; every entry
carries its own RLock serializing its writes (re-ranking, memo fill), so
concurrent ``compile_kernel`` calls — e.g. through
:func:`repro.core.service.compile_many` — share entries safely.  No
write touches a plan, so a thread executing one is never perturbed.

Control: ``compile_kernel(..., cache="off"|"memory"|"disk")``, default
taken from ``REPRO_COMPILE_CACHE`` (default ``"memory"``).  With
``"off"`` the pipeline runs untouched — zero behavior change.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle
import tempfile
import threading
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cost.model import plan_cost, step_totals
from repro.formats.base import SparseFormat
from repro.instrument import INSTR
from repro.ir.printer import program_to_text
from repro.ir.program import Program
from repro.search.driver import SearchResult, SearchStats
from repro.util.env import env_choice
from repro.util.store import Store

MODES = ("off", "memory", "disk")


def resolve_mode(mode: Optional[str],
                 variable: str = "REPRO_COMPILE_CACHE") -> str:
    """``mode`` if given (one of :data:`MODES`), else the environment
    ``variable`` (warn-and-default ``"memory"``).  The format-selection
    winner cache resolves ``REPRO_AUTOTUNE_CACHE`` here too."""
    if mode is None:
        return env_choice(variable, MODES, "memory")
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

class PlanMemo:
    """What one recorded plan compiles to: the plan the kernel runs
    (guard-simplified, or the recorded plan itself) and its generated
    Python source, both pickled with the entry, plus the exec'd source and
    the loop IR, which live in this process only."""

    fn = ir = None

    def __init__(self, plan, param_values: Mapping[str, int], simplify: bool):
        self.plan = plan.simplified(dict(param_values)) if simplify else plan
        self.source: Optional[str] = None

    def __getstate__(self):
        return {"plan": self.plan, "source": self.source}


class CacheEntry:
    """One memoized search.  ``ranked`` is the search's ranking as recorded
    (``(cost, candidate, plan)``, best first at record time) and is never
    permuted or rewritten: a record index names one plan for the entry's
    life.  ``costs``, ``selected`` (a record index) and ``stats_sig`` are
    the latest ranking's; ``memos`` hold one :class:`PlanMemo` per record
    index a kernel was made from.

    ``_lock`` serializes the writes after recording (re-ranking, memo
    fill, the disk write that follows a source) — hits on the same
    structural key from concurrent threads share this object.  It is
    re-created on unpickling (locks don't pickle)."""

    def __init__(self, ranked, selected: int, pick: str,
                 stats_sig: Tuple, search_stats: SearchStats):
        self._lock = threading.RLock()
        self.ranked = list(ranked)
        self.costs = [cost for cost, _cand, _plan in self.ranked]
        self.selected = selected
        self.pick = pick
        self.stats_sig = stats_sig
        self.search_stats = search_stats
        self.memos: Dict[int, PlanMemo] = {}

    def order(self) -> List[int]:
        """Record indices in the latest ranking: by cost, record order
        breaking ties."""
        return [i for _cost, i in sorted(zip(self.costs, range(len(self.costs))))]

    def memo(self, index: int, param_values: Mapping[str, int],
             simplify: bool) -> PlanMemo:
        """Record index ``index``'s memo, made on first use."""
        with self._lock:
            memo = self.memos.get(index)
            if memo is None:
                memo = self.memos[index] = PlanMemo(
                    self.ranked[index][2], param_values, simplify)
            return memo

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()


def _load_entry(f) -> Optional[CacheEntry]:
    entry = pickle.load(f)
    return entry if isinstance(entry, CacheEntry) else None


def _cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(tempfile.gettempdir(), "repro-compile-cache"))


_SOURCE_DIGEST: Optional[str] = None


def _source_digest() -> str:
    """SHA-256 of the ``repro`` package source, read once per process."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        h = hashlib.sha256()
        for path in sorted(glob.glob(f"{root}/**/*.py", recursive=True)):
            with open(path, "rb") as f:
                h.update(f"{os.path.relpath(path, root)}\0".encode() + f.read())
        _SOURCE_DIGEST = h.hexdigest()
    return _SOURCE_DIGEST


def _entry_name(key: str) -> str:
    """An entry's file: its key under this build's source digest, so the
    entry another build wrote is a miss here."""
    return hashlib.sha256((_source_digest() + key).encode()).hexdigest()


#: the process-wide compilation cache: structural key -> :class:`CacheEntry`,
#: pickled one file per key under ``REPRO_CACHE_DIR`` in ``disk`` mode.  The
#: native backend shards its ``.so`` artifacts (with their ``.lock`` files
#: and ``.c`` temporaries) under the same directory, so they are this
#: store's to clear.
COMPILE_CACHE = Store(
    256, directory=_cache_dir, suffix=".pkl",
    dump=lambda entry, f: pickle.dump(entry, f, pickle.HIGHEST_PROTOCOL),
    load=_load_entry, save_errors="cache.disk.save_errors",
    owns=(".so", ".lock", ".c"), name=_entry_name)


def clear_compile_cache(disk: bool = False) -> None:
    """Drop the in-memory cache — and, with ``disk=True``, everything the
    disk layer holds: pickled entries, native artifacts, lock files and
    temporaries orphaned by a killed writer."""
    COMPILE_CACHE.clear(disk)


# ---------------------------------------------------------------------------
# Lookup / record
# ---------------------------------------------------------------------------

def lookup(
    key: str,
    mode: str,
    bindings: Mapping[str, SparseFormat],
    param_values: Mapping[str, int],
) -> Optional[Tuple[SearchResult, CacheEntry, int]]:
    """Serve a memoized search for this structural key, or None.

    Returns the reconstructed :class:`SearchResult` plus the entry and the
    record index of the selected plan."""
    INSTR.count("cache.lookups")
    entry, layer = COMPILE_CACHE.lookup(key, mode == "disk")
    if entry is None:
        INSTR.count("cache.misses")
        return None
    INSTR.count(f"cache.hits.{layer}")
    stats = entry.search_stats.clone()
    stats.from_cache = True
    new_sig = stats_signature(bindings)

    # the latest ranking is shared with every thread that hit this key:
    # serialize the compare-and-rerank
    with entry._lock:
        if new_sig == entry.stats_sig:
            INSTR.count("cache.hits.exact")
            order = entry.order()
        else:
            # Statistics shifted: re-cost the recorded plans against the
            # new instances and re-select, as a fresh search ranks them.
            INSTR.count("cache.hits.rerank")
            stats.reranked = True
            entry.costs = [plan_cost(plan, param_values, fmts=bindings)
                           for _cost, _cand, plan in entry.ranked]
            entry.stats_sig = new_sig
            order = entry.order()
            selected = order[-1 if entry.pick == "worst" else 0]
            if selected != entry.selected:
                INSTR.count("cache.rerank.changed")
            entry.selected = selected
        costs, index = entry.costs, entry.selected
    ranked = [(costs[i], *entry.ranked[i][1:]) for i in order]
    _cost, cand, plan = entry.ranked[index]
    return SearchResult(plan, costs[index], cand, stats, ranked), entry, index


def record(
    key: str,
    result: SearchResult,
    bindings: Mapping[str, SparseFormat],
    pick: str,
) -> Tuple[CacheEntry, int]:
    """Memoize a fresh search result under its structural key, in memory:
    the disk layer gets it from :func:`save`, once, when a kernel prints
    its source or dies without.

    Returns the entry and the record index of the selected plan."""
    selected = next(
        i for i, (_c, _cand, plan) in enumerate(result.ranked)
        if plan is result.plan
    )
    entry = CacheEntry(result.ranked, selected, pick,
                       stats_signature(bindings), result.stats.clone())
    COMPILE_CACHE.put(key, entry)
    INSTR.count("cache.stores")
    return entry, selected


def save(key: str, entry: CacheEntry) -> None:
    """Write ``entry`` to the disk layer (after a memo filled), so later
    processes replay its plans and sources byte-identically."""
    with entry._lock:
        COMPILE_CACHE.disk_put(key, entry)
