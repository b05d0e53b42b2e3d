"""Workload ``serve``: the compile daemon as its clients see it.

``python -m repro.core.daemon --socket ...`` runs as a subprocess with a
fresh ``REPRO_CACHE_DIR``; two client connections drive it in a closed
loop (each caller waits for its reply before sending the next request).

- *fill* (set-up, the cold cell): 16 distinct (program, matrix) requests
  once each — the cold pipeline over the wire, on ``can_1072`` and a 2-D
  Laplacian whose upload is ~1 MB.  Every returned kernel is fetched with
  ``describe`` and its generated source run against the oracle.
- *steady* (the hot cell): repeats of that hot set (handle-LRU hits,
  digest-only frames, ~98 % of requests) and, every 50 ms per client, a
  same-structure / new-values matrix (payload upload, compile-cache and
  .so hit, no cc — the warm cell, ~2 %).

Kernel and search time are ~0 in steady; ``core.wire`` / ``core.client`` /
``core.daemon`` do all the work.  Their outside baseline is the floor of
the transport: the same frames through a bare length-prefixed JSON echo
server (``echo_server.py``, its own process, no ``repro``) on a unix
socket — the per-layer ``core.daemon.vs_echo``.  It is not the end-to-end
``vs_baseline``: an echo is two socket wake-ups and ~10 us of Python, a
daemon repeat the same wake-ups and ~60 us of Python, and this machine's
moods slow the two kinds of work differently (ratio 0.58 in one, 0.68 in
another, for minutes at a time).  ``vs_baseline`` is, as on
``cold_compile``, the reference build against a fill request.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.core import wire
from repro.core.client import ServiceClient, ServiceError
from repro.formats.csr import CsrMatrix
from repro.ir import kernels
from repro.ir.printer import program_to_text

from e2e import echo_server
from e2e import harness as h
from e2e import matrices, reference

OPTIONS = {"backend": "c"}
#: each client uploads a same-structure / new-values matrix this often —
#: about 2 % of its requests at ~1k requests/s per client.  A fixed rate
#: (not a share of requests) keeps the number of uploads, and with it the
#: daemon's memory and the time left for repeats, the same in every run.
FRESH_EVERY_S = 0.05
#: (kernel, matrix, format) — the hot set
REQUESTS = (
    [("mvm", "can", f) for f in ("csr", "csc", "coo", "ell", "jad")]
    + [("mvm", "lap", f) for f in ("csr", "csc", "ell", "jad")]
    + [("spmm", "can", "csr"), ("spmm", "can", "csc"), ("spmm", "lap", "csr")]
    + [("ts_lower", "can", f) for f in ("csr", "csc", "jad")]
    + [("mvm_t", "can", "csr")]
)


#: the cores this process may use (empty where affinity is not settable)
_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def _pin(pid: int, core_index: int) -> None:
    """Keep a process on one of the allowed cores (no-op with one core or
    without ``sched_setaffinity``).  Client on the first core, servers on
    the last: a ping-pong between two processes is twice as fast when the
    scheduler happens to put them on the same core, and the result would
    otherwise flip between the two placements from run to run."""
    if len(_CORES) > 1:
        os.sched_setaffinity(pid, {_CORES[core_index]})


def _short(path: str) -> str:
    """Unix socket paths are limited to ~100 bytes: prefer a relative one."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


class Daemon:
    """The daemon subprocess and its two client connections."""

    def __init__(self, run: h.Run):
        t0 = h.now()
        self.socket_path = _short(run.fresh_dir("daemon") + ".sock")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src,
                   REPRO_CACHE_DIR=run.fresh_dir("daemon-cache"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.daemon", "--socket",
             self.socket_path, "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL)
        self.clients = [ServiceClient(self.socket_path, connect_retries=60)
                        for _ in range(2)]
        for c in self.clients:
            c.connect()
            c.ping()
        self.startup_s = h.now() - t0

    def rss_mb(self) -> float:
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        try:
            self.clients[0].shutdown()
        except (ConnectionError, ServiceError, OSError):
            self.proc.terminate()
        for c in self.clients:
            c.close()
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Inputs:
    def __init__(self, run: h.Run):
        can = matrices.can_1072(run.seed)
        self.S = {"can": reference.csr(can),
                  "lap": reference.csr(matrices.lap2d(run.sizes["serve_lap"]))}
        self.S_low = reference.csr(matrices.lower_part(can))
        rng = run.rng(6)
        self.sources = {k: program_to_text(getattr(kernels, k)())
                        for k in ("mvm", "spmm", "ts_lower", "mvm_t")}
        self.calls = {
            ("mvm", "can"): h.Call("mvm", self.S["can"], rng),
            ("mvm", "lap"): h.Call("mvm", self.S["lap"], rng),
            ("spmm", "can"): h.Call("spmm", self.S["can"], rng, width=2),
            ("spmm", "lap"): h.Call("spmm", self.S["lap"], rng, width=2),
            ("ts_lower", "can"): h.Call("ts_lower", self.S_low, rng),
        }
        self.x_t = rng.integers(-4, 5, size=1072).astype(np.float64)
        insts: Dict[Tuple[str, str, bool], object] = {}
        self.requests = []            # (key, source, binding name, instance)
        for kname, matrix, fmt in REQUESTS:
            low = kname == "ts_lower"
            if (matrix, fmt, low) not in insts:
                insts[matrix, fmt, low] = repro.as_format(
                    self.S_low if low else self.S[matrix], fmt)
            self.requests.append((f"{kname}.{matrix}.{fmt}", kname, matrix,
                                  "L" if low else "A", insts[matrix, fmt, low]))
        self.fresh_base = [insts["can", "csr", False], insts["lap", "csr", False]]


def _compile(client: ServiceClient, inp: Inputs, req):
    _key, kname, _matrix, name, inst = req
    return client.compile(inp.sources[kname], {name: inst}, options=OPTIONS)


def _verify(run: h.Run, client: ServiceClient, inp: Inputs, req, handle) -> None:
    """Run the daemon's generated kernel locally against the oracle."""
    from repro.codegen.pysource import source_to_callable

    key, kname, matrix, name, inst = req
    desc = client.describe(handle.handle, source=True)
    fn = source_to_callable(desc["pysource"])
    if kname == "mvm_t":
        y = np.zeros(1072)
        fn({"A": inst, "x": inp.x_t, "y": y}, {"m": 1072, "n": 1072})
        wrong = reference.same(y, inp.S["can"].T @ inp.x_t, exact=True)
    else:
        call = inp.calls[kname, matrix]
        arrays, params = call.bind({name: inst})
        fn(arrays, params)
        wrong = call.wrong()
    problems = [wrong]
    if h.toolchain_present() and handle.backend_used != "c":
        problems.append(f"backend_used={handle.backend_used} "
                        f"({handle.fallback_reason})")
    problems = [p for p in problems if p]
    run.tally.op(not problems, f"fill:{key}: {'; '.join(problems)}")


def _setup(run: h.Run, inp: Inputs, cold: Dict[str, List[float]]):
    """Start the daemon, connect, fill (cold requests split over the two
    clients), then let both clients touch every request once so later
    frames carry digests only.  Returns (set-up seconds, daemon)."""
    daemon = None
    handles = []

    def fill():
        nonlocal daemon
        daemon = Daemon(run)
        for i, req in enumerate(inp.requests):
            client = daemon.clients[i % 2]

            def request():
                with run.span("request", f"cold:{req[0]}"):
                    return h.timed(lambda: _compile(client, inp, req))

            with run.tally.guarded(f"fill:{req[0]}"):
                dt, handle = run.cold_sample(request)
                cold[req[0]].append(dt)
                run.tally.op(not handle.cached and not handle.search_cached,
                             f"fill:{req[0]}: served from a cache, not cold")
                handles.append((client, req, handle))
        for client in daemon.clients:
            for req in inp.requests:
                _compile(client, inp, req)

    try:
        seconds, _ = run.timed_setup(fill)
        for client, req, handle in handles:          # oracle work: untimed
            with run.tally.guarded(f"verify:{req[0]}"):
                _verify(run, client, inp, req, handle)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return seconds, daemon


# -- the transport floor -----------------------------------------------------

class Echo:
    """``echo_server.py`` as a subprocess plus one connection to it."""

    def __init__(self):
        self.path = _short(os.path.join(tempfile.gettempdir(), "echo.sock"))
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "echo_server.py"), self.path])
        _pin(self.proc.pid, -1)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        deadline = h.now() + 30
        while True:
            try:
                self.sock.connect(self.path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if h.now() > deadline:
                    self.close()
                    raise
                time.sleep(0.02)

    def close(self) -> None:
        self.sock.close()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.path):
            os.unlink(self.path)


def _floor(daemon: Daemon, inp: Inputs, seconds: float):
    """One client, alternating batches: a handle-served repeat through the
    daemon against the same-sized frame through the echo server.  Returns
    (echo time / daemon time, requests made, echo s, daemon s)."""
    client, req = daemon.clients[0], inp.requests[0]
    frame = {"op": "compile", "program": inp.sources[req[1]],
             "options": OPTIONS, "bindings": {req[3]: "0" * 64}}
    echo = Echo()
    try:
        (ours, floor), n = h.interleaved(
            [lambda: _compile(client, inp, req),
             lambda: echo_server.roundtrip(echo.sock, frame)], seconds)
    finally:
        echo.close()
    return h.paired_ratio(floor, ours), n, h.median(floor), h.median(ours)


# -- steady state ------------------------------------------------------------

def _client_loop(run: h.Run, cid: int, client: ServiceClient, inp: Inputs,
                 deadline: float, out: Dict[str, List[float]]) -> None:
    picks = run.rng(100 + cid).integers(0, len(inp.requests), size=1 << 18)
    next_fresh = h.now() + FRESH_EVERY_S * (1 + cid) / 2.0
    i = 0
    while h.now() < deadline:
        with run.tally.guarded(f"steady:client{cid}"):
            if h.now() >= next_fresh:
                next_fresh += FRESH_EVERY_S
                base = inp.fresh_base[i % 2]
                A = CsrMatrix(base.rowptr, base.colind,
                              base.values * float(2 + i) + cid, base.shape)
                with run.span("request", f"fresh:{cid}.{i}"):
                    dt, hd = h.timed(lambda: client.compile(
                        inp.sources["mvm"], {"A": A}, options=OPTIONS))
                out["fresh"].append(dt)
                ok = (not hd.cached and hd.search_cached
                      and (hd.backend_used == "c" or not h.toolchain_present()))
                run.tally.op(ok, f"fresh request: cached={hd.cached} "
                                 f"search_cached={hd.search_cached} "
                                 f"backend_used={hd.backend_used}")
            else:
                req = inp.requests[picks[i]]
                with run.span("request", f"hot:{cid}.{i}"):
                    dt, hd = h.timed(lambda: _compile(client, inp, req))
                out["hot"].append(dt)
                run.tally.op(hd.cached, f"repeat of {req[0]} not handle-served")
        i += 1


def run(run: h.Run) -> None:
    inp = Inputs(run)
    cold: Dict[str, List[float]] = {r[0]: [] for r in inp.requests}
    setups, startups, daemon = [], [], None
    try:
        for _ in range(run.setup_repeats):
            if daemon is not None:
                daemon.stop()
            dt, daemon = _setup(run, inp, cold)
            setups.append(dt)
            startups.append(daemon.startup_s)
        run.emit("setup_s", h.median(setups), len(setups))
        run.emit("core.daemon.startup_s", h.median(startups), len(startups))
        value, n = h.typical(cold, h.median)
        run.emit_cold(value, n)
        run.emit("vs_baseline", h.Reference.NOMINAL_S / value, n)
        run.emit("core.daemon.cold_ms_p50", value * 1e3, n)

        # fill ran unpinned (its cc work may use both cores); from here on
        # placement is fixed, client on the first core, servers on the last
        _pin(0, 0)
        _pin(daemon.proc.pid, -1)

        # the floor is taken in three windows around the steady phase and
        # the middle ratio kept: one disturbed second must not decide it
        window = run.seconds * 0.05
        floors = [_floor(daemon, inp, window)]

        before = daemon.clients[0].stats()
        steady_s = run.seconds * 0.85
        outs = [{"hot": [], "fresh": []} for _ in daemon.clients]
        deadline = h.now() + steady_s
        threads = [threading.Thread(target=_client_loop,
                                    args=(run, cid, c, inp, deadline, outs[cid]))
                   for cid, c in enumerate(daemon.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = daemon.clients[0].stats()
        floors += [_floor(daemon, inp, window), _floor(daemon, inp, window)]
        ratio, _n, t_echo, t_daemon = sorted(floors)[1]
        run.emit("core.daemon.vs_echo", ratio, sum(f[1] for f in floors))
        run.note(f"one client's round trip: echo server {t_echo * 1e6:.0f} us, "
                 f"daemon {t_daemon * 1e6:.0f} us")
        _report(run, outs, steady_s, before, after, daemon)
        if run.extras:
            _wire_rates(run, inp)
            client, req = daemon.clients[0], inp.requests[0]

            def repeats() -> float:
                with run.span("request", "overhead:repeats"):
                    return h.timed(lambda: [_compile(client, inp, req)
                                            for _ in range(300)])[0]

            run.trace_overhead("serve", repeats)
    finally:
        if daemon is not None:
            daemon.stop()
        if len(_CORES) > 1:
            os.sched_setaffinity(0, _CORES)


def _report(run: h.Run, outs, steady_s: float, before, after, daemon) -> None:
    hot = sorted(x for o in outs for x in o["hot"])
    fresh = [x for o in outs for x in o["fresh"]]
    done = len(hot) + len(fresh)
    run.emit("hot_ms", h.fast(hot) * 1e3, len(hot))
    run.emit("core.daemon.req_per_s", done / steady_s, done)
    if fresh:
        run.emit("warm_ms", h.fast(fresh) * 1e3, len(fresh))
        run.emit("core.daemon.payload_upload_ms", h.median(fresh) * 1e3, len(fresh))
    p99 = h.percentile(hot, 99)
    if p99 is not None:         # needs 1000 repeats, or it is not measured
        run.emit("core.daemon.warm_ms_p99", p99 * 1e3, len(hot))

    c0, c1 = before["counters"], after["counters"]
    d = lambda key: h.delta(c0, c1, key)            # noqa: E731
    compiles = d("daemon.requests.compile")
    run.emit("core.daemon.handle_hit_ratio",
             d("daemon.handle.hits") / compiles if compiles else 0.0, compiles)
    run.emit("core.daemon.coalesced", d("daemon.coalesced"))
    run.emit("core.daemon.rejected", d("daemon.rejects.queue_full"))
    run.tally.op(d("native.compiles") == 0,
                 f"steady state invoked cc {d('native.compiles')}x")
    server_p50 = after["latency"].get("p50_ms")
    if server_p50 is not None:
        run.emit("core.daemon.server_warm_ms_p50", server_p50,
                 after["latency"]["count"])
        run.emit("core.client.overhead_ms",
                 h.median(hot) * 1e3 - server_p50, len(hot))
    run.emit("core.daemon.rss_mb", daemon.rss_mb())


def _wire_rates(run: h.Run, inp: Inputs) -> None:
    """Payload codec throughput on the ~1 MB Laplacian upload."""
    lap = inp.fresh_base[1]
    dt, payload = h.timed(lambda: wire.encode_format(lap))
    size = len(json.dumps(payload))
    run.emit("core.wire.encode_mb_s", size / dt / 1e6)
    dt, _ = h.timed(lambda: wire.decode_format(payload))
    run.emit("core.wire.decode_mb_s", size / dt / 1e6)
