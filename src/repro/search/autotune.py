"""Structure-adaptive autotuning: the signature-keyed winner cache.

The empirical route of the paper's Section 6 (ATLAS-style measurement)
gives the right answer but pays a micro-benchmark per call; the analytical
route is instant but blind to sparsity structure.  ``mode="auto"`` in
:func:`repro.search.format_select.select_format` combines them: rank all
candidates with the Figure 11 cost model, micro-benchmark only the
analytically top-k, and record the measured winner here, keyed by the
matrix's quantized structure signature (:mod:`repro.search.features`).
Every later selection over a matrix of the same structure class is served
the cached winner without running a single measurement.

Layers and concurrency are the compile cache's, from the same kit
(:mod:`repro.util.store`):

- :data:`WINNER_CACHE` is a ``Store``: an in-memory LRU always consulted
  when caching is on, and an opt-in disk layer (``autotune_cache="disk"``
  or ``REPRO_AUTOTUNE_CACHE=disk``) storing one JSON record per key under
  ``<REPRO_CACHE_DIR>/autotune/`` — the same cache directory the compile
  cache and native artifacts use, so one warm directory serves a fleet;
- a ``SingleFlight`` per key: concurrent selections of the same structure
  class elect one leader to tune while followers wait and share its
  record (``autotune.coalesced``), so a thundering herd of same-shaped
  matrices costs one tune; a follower whose leader fails or outlasts
  ``REPRO_SINGLEFLIGHT_TIMEOUT`` tunes itself.

Records are plain JSON-safe dicts (winner format name, measured seconds
per tuned candidate, the backend that executed the measurements) so the
disk layer never needs pickle.

Instrumentation (namespace ``autotune.*``): ``autotune.tunes``,
``autotune.cache.lookups`` / ``.hits.memory`` / ``.hits.disk`` /
``.misses``, ``autotune.coalesced``, ``autotune.microbench.runs``,
``autotune.replays`` / ``autotune.replay_failures``, and the
``autotune.features`` / ``autotune.measure`` phase timers.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.instrument import INSTR
from repro.util.env import env_int
from repro.util.store import SingleFlight, Store

__all__ = ["MODES", "resolve_autotune_cache", "autotune_topk",
           "autotune_repeats", "WINNER_CACHE", "clear_winner_cache",
           "winner_key", "winner_for", "store"]

MODES = ("off", "memory", "disk")


def resolve_autotune_cache(mode: Optional[str]) -> str:
    """``autotune_cache`` kwarg if given, else ``REPRO_AUTOTUNE_CACHE``,
    else memory."""
    resolved = mode if mode is not None else os.environ.get(
        "REPRO_AUTOTUNE_CACHE", "memory").strip().lower()
    if resolved not in MODES:
        raise ValueError(
            f"autotune cache mode must be one of {MODES}, got {resolved!r}")
    return resolved


def autotune_topk() -> int:
    """How many analytically top-ranked candidates to micro-benchmark
    (``REPRO_AUTOTUNE_TOPK``, default 3; warn-and-default parsing)."""
    return env_int("REPRO_AUTOTUNE_TOPK", 3, minimum=1)


def autotune_repeats() -> int:
    """Best-of repeats per micro-benchmarked candidate
    (``REPRO_AUTOTUNE_REPEATS``, default 3)."""
    return env_int("REPRO_AUTOTUNE_REPEATS", 3, minimum=1)


# ---------------------------------------------------------------------------
# Winner cache
# ---------------------------------------------------------------------------

def _winner_dir() -> str:
    from repro.core.cache import COMPILE_CACHE

    return os.path.join(COMPILE_CACHE.directory(), "autotune")


def _load_record(f) -> Optional[Dict]:
    record = json.loads(f.read())
    return record if isinstance(record, dict) and "format" in record else None


#: the process-wide winner cache: winner key -> JSON-safe record (treated
#: as immutable once stored)
WINNER_CACHE = Store(
    512, directory=_winner_dir, suffix=".json",
    dump=lambda record, f: f.write(json.dumps(record).encode("utf-8")),
    load=_load_record, save_errors="autotune.disk.save_errors")


def clear_winner_cache(disk: bool = False) -> None:
    """Drop the in-memory winner cache (and, with ``disk=True``, the
    records and orphaned temporaries under ``autotune/``)."""
    WINNER_CACHE.clear(disk)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def winner_key(program, signature: str, candidates: Sequence[str],
               backend: str, topk: int) -> str:
    """Canonical digest of everything a cached winner depends on: the
    program (deterministic printer text), the structure signature, the
    candidate set, the measuring backend, and how many candidates were in
    the running."""
    from repro.ir.printer import program_to_text

    blob = "\x1e".join([
        program_to_text(program),
        signature,
        repr(tuple(sorted(candidates))),
        backend,
        str(int(topk)),
    ])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Single-flight tuning
# ---------------------------------------------------------------------------

#: one tune per winner key at a time; ``autotune.coalesced`` counts the
#: selections that waited on somebody else's
_FLIGHT = SingleFlight(waits="autotune.coalesced")


def store(key: str, record: Dict, mode: str) -> None:
    """Publish a winner record into the cache layers for ``mode``."""
    if mode != "off":
        WINNER_CACHE.store(key, record, mode == "disk")


def winner_for(
    key: str,
    mode: str,
    tune: Callable[[], Tuple[Dict, object]],
) -> Tuple[Dict, object, str]:
    """Serve the winner record for ``key``: from cache, from a concurrent
    leader's tune, or by running ``tune`` ourselves.

    ``tune()`` returns ``(record, payload)`` — the JSON-safe record that
    is cached and shared, plus an arbitrary payload (the leader's fully
    built selection result) that is returned only to the caller that
    actually tuned.  Returns ``(record, payload_or_None, origin)`` with
    origin one of ``"memory"`` / ``"disk"`` / ``"tuned"`` /
    ``"coalesced"``."""
    if mode != "off":
        INSTR.count("autotune.cache.lookups")
        rec, layer = WINNER_CACHE.lookup(key, mode == "disk")
        if rec is not None:
            INSTR.count(f"autotune.cache.hits.{layer}")
            return rec, None, layer
        INSTR.count("autotune.cache.misses")

    def tune_and_store():
        record, payload = tune()
        store(key, record, mode)
        INSTR.count("autotune.tunes")
        return record, payload

    (record, payload), shared = _FLIGHT.do(key, tune_and_store)
    if shared:
        return record, None, "coalesced"
    return record, payload, "tuned"
