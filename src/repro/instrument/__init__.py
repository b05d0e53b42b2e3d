"""Pipeline instrumentation: phase timers and counters for the compiler.

Every stage of the enumerate-estimate-select pipeline (candidate
generation, Fourier-Motzkin legality, plan lowering, cost ranking, code
generation) and every cache layer (compilation cache, FM memo, pair-
analysis memo) reports into one process-wide :class:`Instrumentation`
registry.  Collection is always on — the counters are plain dictionary
increments and the timers a pair of ``perf_counter`` calls per phase, so
the overhead is negligible next to the exact-rational polyhedral work they
measure.

**Thread model** — the registry is safe under concurrent compilation
(the daemon's request pool drives the pipeline from several threads).
Each thread accumulates into its own private shard
(``threading.local``), so the hot path stays a lock-free dictionary
increment with no lost updates; readers (:meth:`~Instrumentation.get`,
:meth:`~Instrumentation.snapshot`, the report) merge the shards of every
thread that ever reported, including threads that have since exited.
:meth:`~Instrumentation.thread_snapshot` exposes the calling thread's
shard alone, which the search driver diffs to attribute polyhedral work
to one search even while sibling threads compile concurrently.

Set ``REPRO_TRACE=1`` in the environment to get a rendered report on
interpreter exit (and ``repro.instrument.report()`` returns the same
rendering on demand at any point).

Counter namespaces used by the compiler:

- ``search.*``          — driver-level candidate statistics
- ``fm.*``              — Fourier-Motzkin eliminations and memo traffic
- ``pair.*``            — per-(dependence, copy pair) legality memo
- ``cache.*``           — compilation-cache hits/misses/invalidations
- ``codegen.*``         — specialized Python source generation
- ``plan.*``            — plan lowering
- ``native.*``          — C backend: compiles, loaded-unit traffic
                          (``native.so_cache.hits.{memory,coalesced,disk}``,
                          ``.corrupt``), joins that waited for a unit
                          (``native.singleflight.waits``) or rebuilt one
                          whose build had failed
                          (``native.singleflight.leader_failures``),
                          fallbacks, starts that first reaped a
                          toolchain process to stay within the bound
                          (``native.toolchain.bound_waits``)
- ``native.dispatch.*`` — NativeKernel call paths: prepared-argument
                          fast-path hits (``native.dispatch.prepared``),
                          arguments that needed a dtype/layout copy to
                          match the compiled signature
                          (``native.dispatch.coerced`` — stays 0 on a
                          kernel called with the arrays it was bound on),
                          calls whose written operand overlapped another
                          and ran the Python kernel instead
                          (``native.dispatch.aliased``)
- ``backend.run.*``     — per-call dispatch (native / python)
- ``service.*``         — compile_many batch driver traffic
- ``daemon.*``          — compilation daemon: requests by op, handle-LRU
                          and payload-store traffic, request coalescing,
                          queue-full/draining rejections, timeouts,
                          malformed frames, client disconnects
- ``client.*``          — ServiceClient: connects/retries, digest sends
                          and transparent payload re-uploads
- ``env.*``             — REPRO_* environment variables that failed to
                          parse and fell back to their defaults
- ``solver.*``          — SolverContext setup/iterate phase split,
                          iteration counts, fast-path fallbacks
- ``blas.handle.*``     — functional-API calls served by registered
                          kernel handles; ``blas.fallback.csr_image``
                          — ops bound over a matrix's CSR image (no
                          plan for its own format)
- ``format.convert.*``  — data-plane conversions: the ``format.convert``
                          phase timer, per-route counters (``identity`` /
                          ``fastpath`` / ``via_coo``) and per ordered
                          format pair (``format.convert.csr->ell``)
- ``select.*``          — format selection: the shared one-time COO
                          extraction (``select.extract`` phase,
                          ``select.candidates`` counter), auto-mode
                          entries (``select.auto``)
- ``autotune.*``        — structure-adaptive autotuning: feature
                          extraction and measurement phases
                          (``autotune.features`` / ``autotune.measure``),
                          tunes performed, winner-cache traffic
                          (``autotune.cache.lookups`` /
                          ``.hits.memory`` / ``.hits.disk`` /
                          ``.misses``), single-flight coalescing
                          (``autotune.coalesced``), micro-benchmark runs
                          (``autotune.microbench.runs``), cached-winner
                          replays and replay failures
- ``solver.split``      — SolverContext triangular-split phase timer
- ``solver.normal``     — SolverContext normal-equation product
                          (``A^T A`` / ``A A^T``) construction phase
- ``spgemm.*``          — sparse×sparse products: phase timers
                          (``spgemm.symbolic`` / ``spgemm.numeric``
                          for the two passes of the native kernel and
                          of its vectorized fallback), call and path
                          counters (``spgemm.calls``,
                          ``spgemm.tier.native`` / ``.vectorized``,
                          plus ``spgemm.tier.native_fallbacks`` when
                          the native kernel cannot be built and the
                          call demotes to vectorized),
                          output-format selections
                          (``spgemm.output_select``) and packing
                          fallbacks to CSR (``spgemm.output_fallbacks``)
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple


def _copy_live(d: Dict) -> Dict:
    """Copy a dict another thread may be growing lock-free.  Growth can
    make the copy raise ``RuntimeError`` (size changed mid-iteration);
    counters only ever gain keys, so retrying converges immediately."""
    for _ in range(8):
        try:
            return dict(d)
        except RuntimeError:
            continue
    return {k: d[k] for k in list(d.keys()) if k in d}


class Instrumentation:
    """A process-wide registry of named counters and accumulated timers,
    sharded per thread for lock-free writes (see module docstring)."""

    __slots__ = ("_lock", "_tls", "_shards", "_base_counters", "_base_timers")

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        # live shards: (owning thread, its counters, its timers); shards of
        # finished threads are folded into the base dicts opportunistically
        self._shards = []
        self._base_counters: Dict[str, int] = {}
        self._base_timers: Dict[str, float] = {}

    # -- sharding ---------------------------------------------------------
    def _shard(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        try:
            return self._tls.shard
        except AttributeError:
            counters: Dict[str, int] = {}
            timers: Dict[str, float] = {}
            self._tls.shard = (counters, timers)
            with self._lock:
                self._compact_locked()
                self._shards.append(
                    (threading.current_thread(), counters, timers))
            return self._tls.shard

    def _compact_locked(self) -> None:
        """Fold shards whose owning thread has finished into the base
        dicts (a finished thread can never write again)."""
        cur = threading.current_thread()
        live = []
        for t, counters, timers in self._shards:
            if t is cur or t.is_alive():
                live.append((t, counters, timers))
                continue
            for k, v in counters.items():
                self._base_counters[k] = self._base_counters.get(k, 0) + v
            for k, v in timers.items():
                self._base_timers[k] = self._base_timers.get(k, 0.0) + v
        self._shards[:] = live

    def _merged(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        with self._lock:
            counters = dict(self._base_counters)
            timers = dict(self._base_timers)
            shards = [(c, t) for _t, c, t in self._shards]
        for c, t in shards:
            for k, v in _copy_live(c).items():
                counters[k] = counters.get(k, 0) + v
            for k, v in _copy_live(t).items():
                timers[k] = timers.get(k, 0.0) + v
        return counters, timers

    # -- counters ---------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        """Merged view across every thread's shard."""
        return self._merged()[0]

    @property
    def timers(self) -> Dict[str, float]:
        """Merged view across every thread's shard."""
        return self._merged()[1]

    def count(self, name: str, n: int = 1) -> None:
        c = self._shard()[0]
        c[name] = c.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._merged()[0].get(name, 0)

    # -- timers -----------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        t = self._shard()[1]
        t[name] = t.get(name, 0.0) + seconds

    def time(self, name: str) -> float:
        return self._merged()[1].get(name, 0.0)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the enclosed block under
        ``name`` (re-entrant: nested phases with distinct names nest
        naturally; the same name accumulates)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    # -- management -------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """A point-in-time merged copy ``{"counters": {...}, "timers":
        {...}}`` — diff two snapshots to attribute work to one pipeline
        run (use :meth:`thread_snapshot` when other threads are active)."""
        counters, timers = self._merged()
        return {"counters": counters, "timers": timers}

    def thread_snapshot(self) -> Dict[str, Dict]:
        """Like :meth:`snapshot` but covering only the calling thread's
        accumulation, so deltas are immune to concurrent siblings."""
        counters, timers = self._shard()
        return {"counters": dict(counters), "timers": dict(timers)}

    def reset(self) -> None:
        """Zero every counter and timer, including other threads' shards.
        (Resetting while other threads are mid-increment is inherently
        approximate; tests reset at quiescent points.)"""
        with self._lock:
            self._base_counters.clear()
            self._base_timers.clear()
            for _t, counters, timers in self._shards:
                counters.clear()
                timers.clear()


#: the process-wide registry every compiler stage reports into
INSTR = Instrumentation()

# convenience module-level aliases
count = INSTR.count
counter = INSTR.get
add_time = INSTR.add_time
phase = INSTR.phase
snapshot = INSTR.snapshot
thread_snapshot = INSTR.thread_snapshot
reset = INSTR.reset


def trace_enabled() -> bool:
    """Is ``REPRO_TRACE`` set to a truthy value?"""
    return os.environ.get("REPRO_TRACE", "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


def report() -> str:
    """Render the current counters and timers as an aligned text report."""
    from repro.instrument.reporting import render_report

    return render_report(INSTR)


def _atexit_report() -> None:  # pragma: no cover - exercised via subprocess
    if INSTR.counters or INSTR.timers:
        print(report(), file=sys.stderr)


if trace_enabled():  # pragma: no cover - exercised via subprocess
    atexit.register(_atexit_report)
