"""Compilation-as-a-service: a long-running server in front of
:func:`repro.core.service.compile_many`.

Every process that imports this library pays its own cold pipeline —
candidate search, plan lowering, toolchain invocations.  The daemon
amortizes that across a fleet: one long-running process owns the warm
process-wide :data:`~repro.core.cache.COMPILE_CACHE`, the loaded-``.so``
cache, and the single-flight machinery, and clients submit compile
requests over a small length-prefixed JSON protocol
(:mod:`repro.core.wire`), getting back *handles* they can re-request for
the cost of one round-trip.

**Protocol** — one JSON object per frame; ``{"op": ...}`` selects:

- ``ping``      → liveness probe.
- ``compile``   → ``program`` (source text, parsed by
  :mod:`repro.ir.parser`) or ``programs`` (a batch), ``bindings``
  (array name → COO payload or a ``{"digest": ...}`` reference to a
  previously-uploaded payload), ``params`` (concrete sizes), and
  ``options`` (``backend`` / ``parallel`` / ``cache`` / ``pick`` /
  ``opt`` / ``simplify_guards``).  Responds with per-item results
  (handle, cost, backend actually used — failures are isolated per item,
  riding :class:`~repro.core.service.BatchResult`) plus the payload
  digests under which the daemon stored each uploaded binding.
- ``describe``  → metadata for a handle (optionally the generated
  sources).
- ``stats``     → queue depth, in-flight count, handle/payload store
  sizes (``payloads``, of them ``payloads_probation``, and the
  ``payload_bytes`` their arrays hold), p50/p99 request latency, and the
  ``daemon.* / native.* / cache.* / service.*`` instrumentation counters.
- ``shutdown``  → graceful drain: the daemon stops accepting work,
  finishes every admitted request, writes every pending response, then
  exits.

**Caching & coalescing** — three layers, cheapest first: a
handle-addressed :class:`~repro.util.store.LRU` (an identical repeat
request is answered without touching the pipeline,
``daemon.handle.hits``); a daemon-level
in-flight map coalescing concurrent identical *requests* onto one
compile (``daemon.coalesced``); and underneath, the compilation cache
plus the native unit table of :mod:`repro.core.backend`, which
guarantees one ``cc`` invocation per unique unit no matter how many
clients race.  The disk
artifact layer is sharded by digest prefix, so a warm
``REPRO_CACHE_DIR`` survives daemon restarts and can be shared by a
fleet.  A handle keeps its metadata and what ``describe`` prints (the
sources and the plan), never the kernel nor the matrix it was compiled
on.

**Payloads** — decoded uploads, by digest, in two
:class:`~repro.util.store.LRU` segments.  A first upload enters
*probation* (``payload_capacity // 8`` entries, at least one); its first
reference by digest (or a second upload of the same digest) promotes it
to the *protected* segment, which holds the rest (at least one).  A new
upload evicts only from probation, so a stream of one-shot uploads (the
same structure with new values each time) holds at most the probation
share and never pushes out the payloads a hot set references; a
protected payload is evicted only by a later promotion.  A client whose
digest was evicted re-sends the payload on ``unknown-digest``.

**Admission control** — a bounded queue: at most ``workers +
queue_depth`` compile requests may be in flight; beyond that the daemon
answers ``queue-full`` immediately (``daemon.rejects.queue_full``)
instead of buffering unboundedly.  Each admitted request is answered
within ``request_timeout`` seconds or gets a ``timeout`` error (the
compile keeps running server-side; its handle becomes available to
later requests).

Sizing is by constructor keyword (and ``--workers`` / ``--queue-depth`` /
``--timeout`` on the command line); the defaults are one worker per CPU,
64 queued requests, a 120 s request timeout, 512 handles, 256 payloads
(32 of them probation).

Run standalone::

    python -m repro.core.daemon --socket /tmp/repro.sock
    python -m repro.core.daemon --tcp 127.0.0.1:7077
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import wire
from repro.core.service import compile_many
from repro.instrument import INSTR
from repro.ir.parser import parse_program
from repro.util.store import LRU

__all__ = ["CompileServer", "main"]

#: options a compile request may forward into the pipeline, with their
#: accepted types (validated before any slot is consumed)
_OPTION_TYPES = {
    "backend": str,
    "parallel": str,
    "cache": str,
    "pick": str,
    "opt": str,
    "simplify_guards": bool,
}

_STATS_PREFIXES = ("daemon.", "native.", "cache.", "service.", "env.",
                   "autotune.", "select.")

#: one payload slot in this many is probation (at least one)
_PROBATION_ONE_IN = 8


def _run_compile(programs, bindings, param_values, options):
    """The actual pipeline call, module-level so tests can wrap it
    (inject latency or failures without touching the server plumbing)."""
    return compile_many(programs, bindings, param_values=param_values,
                        **options)


class CompileServer:
    """Threaded compilation daemon (see module docstring).

    ``socket_path`` selects an ``AF_UNIX`` listener; otherwise a TCP
    listener on ``(host, port)`` (``port=0`` binds an ephemeral port —
    read the resolved address back from :attr:`address`).  Usable as a
    context manager: ``with CompileServer(...) as srv: ...`` starts the
    acceptor and drains on exit."""

    def __init__(self, socket_path: Optional[str] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 queue_depth: int = 64,
                 request_timeout: float = 120.0,
                 handle_capacity: int = 512,
                 payload_capacity: int = 256):
        self.socket_path = socket_path
        self._host, self._port = host, port
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, workers)
        self.queue_depth = queue_depth
        self.request_timeout = request_timeout

        self._handles = LRU(max(1, handle_capacity))    # handle -> record
        # digest -> SparseFormat, uploaded once / referenced again
        payload_capacity = max(1, payload_capacity)
        probation = max(1, payload_capacity // _PROBATION_ONE_IN)
        self._probation = LRU(probation)
        self._protected = LRU(max(1, payload_capacity - probation))
        self._payload_lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}         # request key -> future
        self._inflight_lock = threading.Lock()
        self._admitted = 0                             # slots in use
        self._admit_lock = threading.Lock()

        self._latencies = deque(maxlen=2048)           # recent compile seconds
        self._lat_lock = threading.Lock()

        self._pool: Optional[ThreadPoolExecutor] = None
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._active = 0                               # requests being answered
        self._active_cv = threading.Condition()
        self._t0 = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Union[str, Tuple[str, int]]:
        """What to hand :class:`repro.core.client.ServiceClient`: the
        socket path (unix) or the resolved ``(host, port)`` (TCP)."""
        if self.socket_path is not None:
            return self.socket_path
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def start(self) -> "CompileServer":
        if self._listener is not None:
            raise RuntimeError("server already started")
        if self.socket_path is not None:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise RuntimeError("AF_UNIX sockets unavailable; use TCP")
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            lst = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            lst.bind(self.socket_path)
        else:
            lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lst.bind((self._host, self._port))
        lst.listen(128)
        self._listener = lst
        self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix="repro-daemon")
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          name="repro-daemon-accept",
                                          daemon=True)
        self._acceptor.start()
        return self

    def __enter__(self) -> "CompileServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: close the listener, optionally wait for every
        admitted request to finish *and its response to be written*, then
        tear down the pool and lingering connections."""
        if self._stopped.is_set():
            return
        self._draining.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if drain:
            deadline = time.monotonic() + timeout
            with self._active_cv:
                while self._active > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._active_cv.wait(remaining)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        with self._conns_lock:
            conns = list(self._conns)
        for c in conns:
            try:
                c.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                c.close()
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._stopped.set()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` has completed (e.g. after a client
        sent the ``shutdown`` op).  Returns False on timeout."""
        return self._stopped.wait(timeout)

    # -- accept / per-connection loop ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return                      # listener closed: shutting down
            INSTR.count("daemon.connections")
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             name="repro-daemon-conn", daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        shutdown_after = False
        try:
            while True:
                try:
                    msg = wire.recv_frame(conn)
                except wire.ProtocolError as e:
                    # a malformed frame may leave the stream misaligned:
                    # answer if possible, then drop the connection
                    INSTR.count("daemon.malformed")
                    try:
                        wire.send_frame(conn, {
                            "ok": False, "error": "malformed",
                            "detail": str(e)})
                    except OSError:
                        pass
                    return
                if msg is None:
                    return                  # clean EOF
                self._begin_request()
                try:
                    try:
                        resp = self._handle(msg)
                    except Exception as e:   # a handler bug must not kill
                        INSTR.count("daemon.requests.error")
                        resp = {"ok": False, "error": "internal",
                                "detail": f"{type(e).__name__}: {e}"}
                    wire.send_frame(conn, resp)
                finally:
                    self._end_request()
                if msg.get("op") == "shutdown" and resp.get("ok"):
                    shutdown_after = True
                    return
        except (ConnectionError, BrokenPipeError, OSError):
            INSTR.count("daemon.disconnects")
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass
            if shutdown_after:
                self.stop(drain=True)

    def _begin_request(self) -> None:
        with self._active_cv:
            self._active += 1

    def _end_request(self) -> None:
        with self._active_cv:
            self._active -= 1
            if self._active == 0:
                self._active_cv.notify_all()

    # -- request dispatch ----------------------------------------------------

    def _handle(self, msg: Dict) -> Dict:
        op = msg.get("op")
        INSTR.count("daemon.requests")
        INSTR.count(f"daemon.requests.{op}" if isinstance(op, str)
                    else "daemon.requests.invalid")
        if op == "ping":
            return {"ok": True, "pong": True, "pid": os.getpid()}
        if op == "stats":
            return {"ok": True, "stats": self._stats()}
        if op == "describe":
            return self._describe(msg)
        if op == "shutdown":
            return {"ok": True, "draining": True}
        if op == "compile":
            if self._draining.is_set():
                INSTR.count("daemon.rejects.draining")
                return {"ok": False, "error": "draining",
                        "detail": "server is shutting down"}
            t0 = time.perf_counter()
            resp = self._compile_op(msg)
            dt = time.perf_counter() - t0
            with self._lat_lock:
                self._latencies.append(dt)
            INSTR.add_time("daemon.compile", dt)
            return resp
        INSTR.count("daemon.requests.error")
        return {"ok": False, "error": "unknown-op", "detail": repr(op)}

    # -- compile path --------------------------------------------------------

    def _compile_op(self, msg: Dict) -> Dict:
        # 1. validate shape of the request (cheap, before any admission)
        if "programs" in msg:
            sources = msg["programs"]
            single = False
        else:
            sources = [msg.get("program")]
            single = True
        if (not isinstance(sources, list) or not sources
                or not all(isinstance(s, str) for s in sources)):
            INSTR.count("daemon.requests.error")
            return {"ok": False, "error": "bad-request",
                    "detail": "program/programs must be non-empty source text"}
        params = msg.get("params") or {}
        if (not isinstance(params, dict)
                or not all(isinstance(k, str) and isinstance(v, int)
                           and not isinstance(v, bool)
                           for k, v in params.items())):
            INSTR.count("daemon.requests.error")
            return {"ok": False, "error": "bad-request",
                    "detail": "params must map names to integers"}
        options = msg.get("options") or {}
        if not isinstance(options, dict):
            INSTR.count("daemon.requests.error")
            return {"ok": False, "error": "bad-request",
                    "detail": "options must be an object"}
        for k, v in options.items():
            want = _OPTION_TYPES.get(k)
            if want is None or not isinstance(v, want) \
                    or (want is int and isinstance(v, bool)):
                INSTR.count("daemon.requests.error")
                return {"ok": False, "error": "bad-option",
                        "detail": f"{k}={v!r} (known: {sorted(_OPTION_TYPES)})"}

        # 2. resolve bindings: decode payloads (storing them by digest),
        #    look up digest references in the warm payload store
        raw_bindings = msg.get("bindings") or {}
        if not isinstance(raw_bindings, dict):
            INSTR.count("daemon.requests.error")
            return {"ok": False, "error": "bad-request",
                    "detail": "bindings must be an object"}
        bindings: Dict[str, object] = {}
        digests: Dict[str, str] = {}
        unknown: Dict[str, str] = {}
        for name, payload in raw_bindings.items():
            if isinstance(payload, str):
                fmt = self._payload(payload)
                if fmt is None:
                    unknown[name] = payload
                    continue
                INSTR.count("daemon.payload.hits")
                bindings[name] = fmt
                digests[name] = payload
                continue
            if isinstance(payload, dict) and set(payload) == {"digest"}:
                # explicit reference form {"digest": "..."}
                return self._compile_op({**msg, "bindings": {
                    **raw_bindings, name: payload["digest"]}})
            try:
                fmt, digest = wire.decode_format(payload)
            except wire.ProtocolError as e:
                INSTR.count("daemon.requests.error")
                return {"ok": False, "error": "bad-binding",
                        "detail": f"{name}: {e}"}
            self._store_payload(digest, fmt)
            INSTR.count("daemon.payload.stores")
            bindings[name] = fmt
            digests[name] = digest
        if unknown:
            # the client must re-send these payloads in full; answering
            # with the unknown set lets it retry in one round-trip
            INSTR.count("daemon.payload.unknown")
            return {"ok": False, "error": "unknown-digest",
                    "unknown": unknown}

        # 3. handle-layer lookup: an identical repeat request is answered
        #    without touching the pipeline at all
        item_keys = [self._handle_key(src, digests, params, options)
                     for src in sources]
        records = [self._handles.get(k) for k in item_keys]
        if all(r is not None for r in records):
            INSTR.count("daemon.handle.hits", len(records))
            INSTR.count("daemon.requests.ok")
            return self._compile_response(
                [dict(r, cached=True) for r in records], digests, single)

        # 4. admission control + daemon-level request coalescing
        request_key = hashlib.sha256(
            "\x1e".join(item_keys).encode("ascii")).hexdigest()
        coalesced = False
        submitted = None
        with self._inflight_lock:
            future = self._inflight.get(request_key)
            if future is not None:
                coalesced = True
                INSTR.count("daemon.coalesced")
            else:
                if not self._try_admit():
                    INSTR.count("daemon.rejects.queue_full")
                    return {"ok": False, "error": "queue-full",
                            "detail": f"{self.workers} workers + "
                                      f"{self.queue_depth} queued"}
                future = submitted = self._pool.submit(
                    self._compile_batch, sources, bindings, params, options,
                    item_keys)
                self._inflight[request_key] = future
        if submitted is not None:
            # registered OUTSIDE the lock: a fast compile runs the callback
            # inline, and _retire re-takes _inflight_lock (not reentrant)
            submitted.add_done_callback(
                lambda _f, k=request_key: self._retire(k))
        try:
            results = future.result(self.request_timeout or None)
        except TimeoutError:
            INSTR.count("daemon.timeouts")
            return {"ok": False, "error": "timeout",
                    "detail": f"request exceeded {self.request_timeout}s; "
                              "the compile continues server-side",
                    "coalesced": coalesced}
        except Exception as e:          # cancelled during shutdown, etc.
            INSTR.count("daemon.requests.error")
            return {"ok": False, "error": "internal",
                    "detail": f"{type(e).__name__}: {e}"}
        INSTR.count("daemon.requests.ok")
        return self._compile_response(results, digests, single)

    # -- payload store -------------------------------------------------------

    def _payload(self, digest: str):
        """The instance stored under ``digest`` (None if evicted or never
        stored); a reference to a probation entry promotes it."""
        with self._payload_lock:
            fmt = self._protected.get(digest)
            if fmt is None:
                fmt = self._probation.pop(digest)
                if fmt is not None:
                    self._promote(digest, fmt)
            return fmt

    def _store_payload(self, digest: str, fmt) -> None:
        """A decoded upload enters probation; one whose digest is stored
        already counts as a reference."""
        with self._payload_lock:
            if self._protected.get(digest) is not None:
                self._protected.put(digest, fmt)
            elif self._probation.pop(digest) is not None:
                self._promote(digest, fmt)
            else:
                _evictions(self._probation.put(digest, fmt))

    def _promote(self, digest: str, fmt) -> None:
        INSTR.count("daemon.payload.promotions")
        _evictions(self._protected.put(digest, fmt))

    def _try_admit(self) -> bool:
        with self._admit_lock:
            if self._admitted >= self.workers + self.queue_depth:
                return False
            self._admitted += 1
            return True

    def _retire(self, request_key: str) -> None:
        with self._inflight_lock:
            self._inflight.pop(request_key, None)
        with self._admit_lock:
            self._admitted -= 1

    @staticmethod
    def _handle_key(source: str, digests: Dict[str, str],
                    params: Dict[str, int], options: Dict) -> str:
        blob = "\x1e".join([
            source,
            repr(sorted(digests.items())),
            repr(sorted(params.items())),
            repr(sorted(options.items())),
        ])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @staticmethod
    def _op_family(program_name: str) -> str:
        """Coarse per-op bucket for handle accounting: which workload
        family a cached kernel serves (``describe``/``stats`` report these
        so service benchmarks can confirm SpMM requests ride the same
        handle-addressed LRU as matvec and solve)."""
        if program_name.startswith("spgemm"):
            return "spgemm"
        if program_name.startswith("spmm"):
            return "spmm"
        if "mvm" in program_name:
            return "mvm"
        if program_name.startswith("ts"):
            return "ts"
        return "other"

    def _compile_batch(self, sources: List[str], bindings: Dict,
                       params: Dict[str, int], options: Dict,
                       item_keys: List[str]) -> List[Dict]:
        """Runs on the worker pool: parse every source, drive the good
        ones through ``compile_many`` (per-item failure isolation), store
        fresh handles, and return per-item result records."""
        results: List[Optional[Dict]] = [None] * len(sources)
        programs, positions = [], []
        for i, src in enumerate(sources):
            record = self._handles.get(item_keys[i])
            if record is not None:          # raced with a sibling compile
                INSTR.count("daemon.handle.hits")
                results[i] = dict(record, cached=True)
                continue
            try:
                programs.append(parse_program(src))
                positions.append(i)
            except Exception as e:
                INSTR.count("daemon.items.parse_error")
                results[i] = {"ok": False, "error": str(e),
                              "error_type": type(e).__name__}
        if programs:
            batch = _run_compile(programs, bindings, params or None, options)
            for outcome, i in zip(batch, positions):
                if not outcome.ok:
                    results[i] = {"ok": False, "error": str(outcome.error),
                                  "error_type": type(outcome.error).__name__}
                    continue
                k = outcome.kernel
                record = {
                    "ok": True,
                    "handle": item_keys[i],
                    "program": k.program.name,
                    "op": self._op_family(k.program.name),
                    "backend": k.backend,
                    "backend_used": k.backend_used,
                    "fallback_reason": k.fallback_reason,
                    "opt": k.opt,
                    "opt_used": k.opt_used,
                    "parallel": k.parallel,
                    "cost": float(k.cost),
                    "seconds": outcome.seconds,
                    "search_cached": bool(k.result.stats.from_cache),
                    "cached": False,
                }
                # what describe prints, and not the kernel: that holds
                # the decoded matrix and its bound native kernel
                self._handles.put(item_keys[i], {
                    **record, "_pysource": k.source,
                    "_c_source": k.c_source, "_plan": k.plan})
                results[i] = record
        return results

    @staticmethod
    def _compile_response(results: List[Dict], digests: Dict[str, str],
                          single: bool) -> Dict:
        items = [{k: v for k, v in r.items() if not k.startswith("_")}
                 for r in results]
        resp = {"ok": True, "results": items, "bindings": digests}
        if single:
            # convenience flattening — but the envelope "ok" means "the
            # request was served", which holds even when the one item
            # failed; the item's own ok lives in results[0]
            resp.update({k: v for k, v in items[0].items() if k != "ok"})
        return resp

    # -- describe / stats ----------------------------------------------------

    def _describe(self, msg: Dict) -> Dict:
        record = self._handles.get(msg.get("handle"))
        if record is None:
            INSTR.count("daemon.requests.error")
            return {"ok": False, "error": "unknown-handle"}
        out = {k: v for k, v in record.items() if not k.startswith("_")}
        if msg.get("source"):
            out["pysource"] = record["_pysource"]
            out["c_source"] = record["_c_source"]
            out["pseudocode"] = record["_plan"].pretty()
        return {"ok": True, **out}

    def _stats(self) -> Dict:
        with self._lat_lock:
            lats = sorted(self._latencies)
        lat = {"count": len(lats)}
        if lats:
            lat["p50_ms"] = lats[len(lats) // 2] * 1e3
            lat["p99_ms"] = lats[min(len(lats) - 1,
                                     int(len(lats) * 0.99))] * 1e3
        counters = {k: v for k, v in INSTR.counters.items()
                    if k.startswith(_STATS_PREFIXES)}
        hits = (counters.get("autotune.cache.hits.memory", 0)
                + counters.get("autotune.cache.hits.disk", 0))
        lookups = counters.get("autotune.cache.lookups", 0)
        autotune = {
            "tunes": counters.get("autotune.tunes", 0),
            "coalesced": counters.get("autotune.coalesced", 0),
            "winner_cache_hits": hits,
            "winner_cache_lookups": lookups,
            "winner_cache_hit_rate": (hits / lookups) if lookups else None,
        }
        with self._admit_lock:
            admitted = self._admitted
        with self._active_cv:
            active = self._active
        payloads = self._probation.values() + self._protected.values()
        by_op: Dict[str, int] = {}
        for rec in self._handles.values():
            if isinstance(rec, dict) and rec.get("ok"):
                fam = rec.get("op", "other")
                by_op[fam] = by_op.get(fam, 0) + 1
        return {
            "uptime_seconds": time.monotonic() - self._t0,
            "pid": os.getpid(),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "request_timeout": self.request_timeout,
            "admitted": admitted,
            "active_requests": active,
            "draining": self._draining.is_set(),
            "handles": len(self._handles),
            "kernels_by_op": by_op,
            "payloads": len(payloads),
            "payloads_probation": len(self._probation),
            "payload_bytes": sum(v.nbytes for fmt in payloads
                                 for v in vars(fmt).values()
                                 if isinstance(v, np.ndarray)),
            "latency": lat,
            "autotune": autotune,
            "counters": counters,
        }


def _evictions(n: int) -> None:
    if n:
        INSTR.count("daemon.payload.evictions", n)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.core.daemon`` entry point."""
    import argparse
    import signal

    ap = argparse.ArgumentParser(
        prog="repro.core.daemon",
        description="repro compilation-as-a-service daemon")
    where = ap.add_mutually_exclusive_group(required=True)
    where.add_argument("--socket", help="unix socket path to listen on")
    where.add_argument("--tcp", metavar="HOST:PORT",
                       help="TCP address to listen on (PORT 0 = ephemeral)")
    ap.add_argument("--workers", type=int, default=None,
                    help="compile worker threads (default: cpu count)")
    ap.add_argument("--queue-depth", type=int, default=64,
                    help="admitted requests beyond the workers (default 64)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-request timeout seconds (default 120)")
    args = ap.parse_args(argv)

    kwargs = dict(workers=args.workers, queue_depth=args.queue_depth,
                  request_timeout=args.timeout)
    if args.socket:
        server = CompileServer(args.socket, **kwargs)
    else:
        host, _, port = args.tcp.rpartition(":")
        server = CompileServer(host=host or "127.0.0.1", port=int(port),
                               **kwargs)
    server.start()
    addr = server.address
    shown = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
    print(f"repro compilation daemon listening on {shown} "
          f"(workers={server.workers}, queue={server.queue_depth})",
          flush=True)

    def _sig(_signum, _frame):
        server.stop(drain=True)

    signal.signal(signal.SIGTERM, _sig)
    signal.signal(signal.SIGINT, _sig)
    try:
        while not server.wait_stopped(0.25):
            pass
    except KeyboardInterrupt:  # pragma: no cover - interactive
        server.stop(drain=True)
    print("repro compilation daemon: drained, bye", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
