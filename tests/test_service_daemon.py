"""Compilation daemon: protocol, caching layers, and failure modes.

Servers run in-process (threads), so instrumentation counters and the
warm caches are directly observable; the CI smoke leg additionally
exercises the subprocess CLI.  Covered failure modes (satellite):
malformed payloads, client disconnect mid-request, queue-full rejection,
per-request timeout, graceful drain, and a server restart that reuses
the warm sharded disk artifact cache with zero extra ``cc`` runs.
"""

from __future__ import annotations

import gc
import socket
import struct
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core import backend as be
from repro.core import daemon as daemon_mod
from repro.core import wire
from repro.core.cache import clear_compile_cache
from repro.core.client import (
    RemoteCompileError,
    ServiceClient,
    ServiceError,
)
from repro.core.daemon import CompileServer
from repro.formats import as_format
from repro.formats.csr import CsrMatrix
from repro.formats.generate import random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS
from repro.ir.printer import program_to_text

N = 14

MVM = program_to_text(ALL_KERNELS["mvm"]())
ROW_SUMS = program_to_text(ALL_KERNELS["row_sums"]())


@pytest.fixture()
def A():
    return as_format(random_sparse(N, N, density=0.35, seed=9).to_dense(),
                     "csr")


@pytest.fixture()
def server(tmp_path):
    """Factory for in-process servers on a unix socket (TCP fallback);
    every server started through it is stopped at teardown."""
    started = []
    counter = [0]

    def make(**kwargs):
        counter[0] += 1
        if hasattr(socket, "AF_UNIX"):
            srv = CompileServer(str(tmp_path / f"d{counter[0]}.sock"),
                                **kwargs)
        else:  # pragma: no cover - non-POSIX
            srv = CompileServer(**kwargs)
        srv.start()
        started.append(srv)
        return srv

    yield make
    for srv in started:
        srv.stop(drain=False, timeout=5)


def _raw_connect(address):
    if isinstance(address, str):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.settimeout(10)
    s.connect(address if isinstance(address, str) else tuple(address))
    return s


# ---------------------------------------------------------------------------
# Wire framing / payloads
# ---------------------------------------------------------------------------

class TestWire:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            wire.send_frame(a, {"op": "ping", "x": [1, 2, 3]})
            assert wire.recv_frame(b) == {"op": "ping", "x": [1, 2, 3]}
            a.close()
            assert wire.recv_frame(b) is None        # clean EOF
        finally:
            b.close()

    def test_mid_frame_eof_is_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"only a little")
            a.close()
            with pytest.raises(wire.ProtocolError, match="mid-frame"):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_oversize_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", wire.MAX_FRAME + 1))
            with pytest.raises(wire.ProtocolError, match="MAX_FRAME"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_json_body_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"\xff\xfenot json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(wire.ProtocolError, match="not JSON"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_format_payload_roundtrip_and_digest_stability(self, A):
        payload = wire.encode_format(A)
        fmt, digest = wire.decode_format(payload)
        assert fmt.format_name == "csr"
        assert np.array_equal(fmt.to_dense(), A.to_dense())
        _fmt2, digest2 = wire.decode_format(wire.encode_format(A))
        assert digest == digest2                    # content-addressed

    def test_decode_rejects_unknown_format_and_bad_shape(self, A):
        payload = wire.encode_format(A)
        with pytest.raises(wire.ProtocolError, match="unknown format"):
            wire.decode_format({**payload, "format": "hyb"})
        with pytest.raises(wire.ProtocolError, match="bad shape"):
            wire.decode_format({**payload, "shape": [3]})
        with pytest.raises(wire.ProtocolError, match="lengths differ"):
            wire.decode_format({**payload,
                                "rows": wire.encode_array(np.arange(2))})


# ---------------------------------------------------------------------------
# Happy path: compile, handle reuse, describe, stats, batches
# ---------------------------------------------------------------------------

class TestCompileOps:
    def test_compile_and_handle_reuse(self, server, A):
        srv = server(workers=2)
        with ServiceClient(srv.address) as svc:
            assert svc.ping()
            h1 = svc.compile(MVM, {"A": A})
            assert h1.ok and not h1.cached
            assert h1.program == "mvm"
            before = svc.stats()["counters"]
            h2 = svc.compile(MVM, {"A": A})
            assert h2.cached and h2.handle == h1.handle
            # the repeat was served off the handle map and the payload
            # travelled as a digest string, not a re-upload
            st = svc.stats()
            assert st["handles"] >= 1
            assert st["counters"].get("daemon.handle.hits", 0) >= 1
            assert st["counters"].get("daemon.payload.hits", 0) >= 1
            # ... so neither the pipeline nor the toolchain ran again
            for key in ("service.items", "native.compiles"):
                assert st["counters"].get(key, 0) == before.get(key, 0), key

    def test_describe_returns_metadata_and_sources(self, server, A):
        srv = server()
        with ServiceClient(srv.address) as svc:
            h = svc.compile(MVM, {"A": A})
            d = svc.describe(h.handle, source=True)
            assert d["program"] == "mvm"
            assert "def kernel" in d["pysource"]
            assert "for " in d["pseudocode"]
            with pytest.raises(ServiceError, match="unknown-handle"):
                svc.describe("deadbeef")

    def test_batch_isolates_per_item_failures(self, server, A):
        srv = server(workers=2)
        with ServiceClient(srv.address) as svc:
            outcomes = svc.compile([MVM, "mvm(m; totally", ROW_SUMS],
                                   {"A": A})
            assert [o.ok for o in outcomes] == [True, False, True]
            assert outcomes[1].error_type == "ParseError"
            assert outcomes[0].handle and outcomes[2].handle

    def test_single_item_failure_raises(self, server, A):
        srv = server()
        with ServiceClient(srv.address) as svc:
            # binding the vector x to a matrix format fails that one item
            with pytest.raises(RemoteCompileError) as exc:
                svc.compile(MVM, {"x": A})
            assert "only matrices" in str(exc.value)
            assert svc.ping()              # connection still usable after

    def test_unknown_digest_triggers_reupload(self, server, A):
        srv = server(payload_capacity=1)
        B = as_format(random_sparse(N, N, density=0.3, seed=31).to_dense(),
                      "csr")
        with ServiceClient(srv.address) as svc:
            svc.compile(MVM, {"A": A})
            svc.compile(MVM, {"A": B})   # capacity 1: evicts A's payload
            before = INSTR.get("client.digest_reuploads")
            h = svc.compile(MVM, {"A": A})  # memoized digest now stale
            assert h.ok and h.cached is True
            assert INSTR.get("client.digest_reuploads") == before + 1

    def test_params_distinguish_handles(self, server, A):
        srv = server()
        with ServiceClient(srv.address) as svc:
            h1 = svc.compile(MVM, {"A": A}, params={"m": N, "n": N})
            h2 = svc.compile(MVM, {"A": A}, params={"m": N, "n": N + 1})
            assert h1.handle != h2.handle

    def test_stats_shape(self, server, A):
        srv = server()
        with ServiceClient(srv.address) as svc:
            svc.compile(MVM, {"A": A})
            st = svc.stats()
            assert st["workers"] >= 1 and not st["draining"]
            assert st["latency"]["count"] >= 1
            assert st["latency"]["p50_ms"] > 0
            assert "daemon.requests" in st["counters"]

    def test_concurrent_identical_requests_coalesce(self, server, A):
        calls = []
        real = daemon_mod._run_compile

        def slow(*args, **kw):
            calls.append(1)
            time.sleep(0.2)
            return real(*args, **kw)

        daemon_mod._run_compile = slow
        try:
            srv = server(workers=4)
            results = []

            def one():
                with ServiceClient(srv.address) as svc:
                    results.append(svc.compile(MVM, {"A": A}))

            threads = [threading.Thread(target=one) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(results) == 4 and all(r.ok for r in results)
            assert len({r.handle for r in results}) == 1
            # the daemon-level in-flight map coalesced the identical
            # requests onto one pipeline invocation
            assert len(calls) == 1
        finally:
            daemon_mod._run_compile = real


# ---------------------------------------------------------------------------
# What the daemon keeps: handles pin no matrix, one-shot uploads churn
# probation alone
# ---------------------------------------------------------------------------

#: ``payload_capacity`` of these servers: 2 probation + 14 protected slots
CAPACITY = 16
PROBATION = CAPACITY // 8
UPLOADS = 40


def _same_structure(A, i):
    """``A``'s structure with new values: a compile-cache and unit hit
    under a new payload digest."""
    return CsrMatrix(A.rowptr, A.colind, A.values * float(i + 2), A.shape)


def _options():
    return {"backend": "c" if be.find_compiler() is not None else "python"}


class TestBoundedStores:
    def test_one_shot_uploads_keep_no_matrix_alive(self, server, A,
                                                   monkeypatch):
        decoded = []
        real = wire.decode_format

        def tracked(payload):
            fmt, digest = real(payload)
            decoded.append(weakref.ref(fmt))
            return fmt, digest

        monkeypatch.setattr(wire, "decode_format", tracked)
        srv = server(payload_capacity=CAPACITY)
        with ServiceClient(srv.address) as svc:
            svc.compile(MVM, {"A": A}, options=_options())
            svc.compile(MVM, {"A": A}, options=_options())  # the hot set
            for i in range(UPLOADS):
                h = svc.compile(MVM, {"A": _same_structure(A, i)},
                                options=_options())
                assert h.ok and not h.cached and h.search_cached
            st = svc.stats()
        gc.collect()
        alive = [r for r in decoded if r() is not None]
        assert len(decoded) == UPLOADS + 1
        assert len(alive) <= PROBATION + 1
        assert decoded[0]() is not None             # A stays, protected
        assert st["handles"] == UPLOADS + 1
        assert st["payloads"] == PROBATION + 1
        assert st["payloads_probation"] == PROBATION
        one = sum(a.nbytes for a in (A.rowptr, A.colind, A.values))
        assert st["payload_bytes"] == (PROBATION + 1) * one
        assert st["counters"]["daemon.payload.evictions"] >= \
            UPLOADS - PROBATION

    def test_describe_after_uploads_prints_what_it_did_at_compile(
            self, server, A):
        srv = server(payload_capacity=CAPACITY)
        with ServiceClient(srv.address) as svc:
            first = svc.compile(MVM, {"A": A}, options=_options())
            before = svc.describe(first.handle, source=True)
            for i in range(UPLOADS):
                svc.compile(MVM, {"A": _same_structure(A, i)},
                            options=_options())
            after = svc.describe(first.handle, source=True)
        for key in ("pysource", "c_source", "pseudocode"):
            assert after[key] == before[key], key
        assert "def kernel" in after["pysource"]
        if be.find_compiler() is not None:
            assert "kernel" in after["c_source"]

    def test_a_referenced_payload_outlives_one_shot_uploads(self, server, A):
        srv = server(payload_capacity=CAPACITY)
        B = _same_structure(A, 100)
        with ServiceClient(srv.address) as svc:
            svc.compile(MVM, {"A": A})
            promotions = INSTR.get("daemon.payload.promotions")
            svc.compile(MVM, {"A": A})       # one reference by digest
            assert INSTR.get("daemon.payload.promotions") == promotions + 1
            svc.compile(MVM, {"A": B})       # never referenced
            for i in range(UPLOADS):
                svc.compile(MVM, {"A": _same_structure(A, i)})
            reuploads = INSTR.get("client.digest_reuploads")
            assert svc.compile(MVM, {"A": A}).cached
            assert INSTR.get("client.digest_reuploads") == reuploads
            assert svc.compile(MVM, {"A": B}).cached
            assert INSTR.get("client.digest_reuploads") == reuploads + 1

    def test_a_second_upload_of_a_payload_promotes_it(self, server, A):
        srv = server(payload_capacity=CAPACITY)
        promotions = INSTR.get("daemon.payload.promotions")
        for _ in range(2):
            with ServiceClient(srv.address) as svc:  # each client uploads
                svc.compile(MVM, {"A": A})
                st = svc.stats()
        assert INSTR.get("daemon.payload.promotions") == promotions + 1
        assert st["payloads"] == 1 and st["payloads_probation"] == 0

    def test_racing_references_promote_once_and_lose_none(self, A):
        """Connection threads that reference a new probation payload at
        once: it is promoted once, and no reference finds it in neither
        segment while it moves (the move is slowed to widen the race)."""
        rounds, threads_n = 20, 4
        srv = CompileServer(payload_capacity=8 * rounds)
        put = srv._protected.put

        def slow_put(key, value):
            time.sleep(0.002)
            return put(key, value)

        srv._protected.put = slow_put
        for r in range(rounds):
            srv._store_payload(f"d{r}", A)
        promotions = INSTR.get("daemon.payload.promotions")
        start = threading.Barrier(threads_n)
        missed = []

        def reference():
            for r in range(rounds):
                start.wait(timeout=30)
                if srv._payload(f"d{r}") is None:
                    missed.append(r)

        threads = [threading.Thread(target=reference)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert missed == []
        assert INSTR.get("daemon.payload.promotions") == promotions + rounds
        assert len(srv._probation) == 0 and len(srv._protected) == rounds


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

class TestFailureModes:
    def test_malformed_frame_gets_error_then_close(self, server, A):
        srv = server()
        s = _raw_connect(srv.address)
        try:
            body = b"this is not json at all {"
            s.sendall(struct.pack(">I", len(body)) + body)
            resp = wire.recv_frame(s)
            assert resp == {"ok": False, "error": "malformed",
                            "detail": resp["detail"]}
            assert wire.recv_frame(s) is None      # server dropped us
        finally:
            s.close()
        # the server survived: a well-behaved client still works
        with ServiceClient(srv.address) as svc:
            assert svc.ping()

    def test_unknown_op_and_bad_requests(self, server, A):
        srv = server()
        with ServiceClient(srv.address) as svc:
            with pytest.raises(ServiceError, match="unknown-op"):
                svc.request({"op": "frobnicate"})
            with pytest.raises(ServiceError, match="bad-request"):
                svc.request({"op": "compile"})     # no program at all
            with pytest.raises(ServiceError, match="bad-request"):
                svc.request({"op": "compile", "program": MVM,
                             "params": {"m": "ten"}})
            with pytest.raises(ServiceError, match="bad-option"):
                svc.compile(MVM, {"A": A}, options={"backend": "cuda!",
                                                    "bogus": 1})
            with pytest.raises(ServiceError, match="bad-binding"):
                svc.request({"op": "compile", "program": MVM,
                             "bindings": {"A": {"format": "csr"}}})

    def test_disconnect_mid_frame_leaves_server_healthy(self, server, A):
        srv = server()
        before = INSTR.get("daemon.disconnects") + INSTR.get("daemon.malformed")
        s = _raw_connect(srv.address)
        s.sendall(struct.pack(">I", 1000) + b"partial")
        s.close()                                  # hang up mid-frame
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if (INSTR.get("daemon.disconnects")
                    + INSTR.get("daemon.malformed")) > before:
                break
            time.sleep(0.01)
        with ServiceClient(srv.address) as svc:
            assert svc.ping()

    def test_disconnect_while_compiling_still_publishes_handle(self, server, A):
        real = daemon_mod._run_compile
        done = threading.Event()

        def slow(*args, **kw):
            time.sleep(0.3)
            try:
                return real(*args, **kw)
            finally:
                done.set()

        daemon_mod._run_compile = slow
        try:
            srv = server(workers=2)
            s = _raw_connect(srv.address)
            wire.send_frame(s, {
                "op": "compile", "program": MVM,
                "bindings": {"A": wire.encode_format(A)}})
            time.sleep(0.05)
            s.close()                              # walk away mid-compile
            assert done.wait(10), "compile never ran"
            daemon_mod._run_compile = real
            with ServiceClient(srv.address) as svc:
                h = svc.compile(MVM, {"A": A})
                assert h.cached                    # orphan work was kept
        finally:
            daemon_mod._run_compile = real

    def test_queue_full_rejection(self, server, A):
        real = daemon_mod._run_compile
        release = threading.Event()

        def slow(*args, **kw):
            release.wait(10)
            return real(*args, **kw)

        daemon_mod._run_compile = slow
        try:
            srv = server(workers=1, queue_depth=0)
            errors, oks = [], []

            def submit(src):
                try:
                    with ServiceClient(srv.address, timeout=30) as svc:
                        oks.append(svc.compile(src, {"A": A}))
                except ServiceError as e:
                    errors.append(e.code)

            t = threading.Thread(target=submit, args=(MVM,))
            t.start()
            deadline = time.monotonic() + 5
            while srv._admitted < 1 and time.monotonic() < deadline:
                time.sleep(0.01)                   # first request holds the slot
            submit(ROW_SUMS)                       # distinct request: no coalesce
            release.set()
            t.join(timeout=30)
            assert errors == ["queue-full"]
            assert len(oks) == 1 and oks[0].ok
        finally:
            release.set()
            daemon_mod._run_compile = real

    def test_per_request_timeout_then_handle_available(self, server, A):
        real = daemon_mod._run_compile

        def slow(*args, **kw):
            time.sleep(0.4)
            return real(*args, **kw)

        daemon_mod._run_compile = slow
        try:
            srv = server(request_timeout=0.05)
            before = INSTR.get("daemon.timeouts")
            with ServiceClient(srv.address) as svc:
                with pytest.raises(ServiceError, match="timeout"):
                    svc.compile(MVM, {"A": A})
                assert INSTR.get("daemon.timeouts") == before + 1
                daemon_mod._run_compile = real
                deadline = time.monotonic() + 10
                h = None
                while time.monotonic() < deadline:
                    try:
                        h = svc.compile(MVM, {"A": A})
                        break
                    except ServiceError:           # still in flight: coalesced
                        time.sleep(0.05)           # wait and retry
                # the timed-out compile finished server-side; a retry either
                # coalesced onto it (fresh record) or hit the handle LRU
                assert h is not None and h.ok
                h2 = svc.compile(MVM, {"A": A})
                assert h2.cached and h2.handle == h.handle
        finally:
            daemon_mod._run_compile = real

    def test_graceful_shutdown_drains_inflight(self, server, A):
        real = daemon_mod._run_compile

        def slow(*args, **kw):
            time.sleep(0.4)
            return real(*args, **kw)

        daemon_mod._run_compile = slow
        try:
            srv = server(workers=2)
            results = []

            def compile_slow():
                with ServiceClient(srv.address, timeout=30) as svc:
                    results.append(svc.compile(MVM, {"A": A}))

            t = threading.Thread(target=compile_slow)
            t.start()
            deadline = time.monotonic() + 5
            while srv._admitted < 1 and time.monotonic() < deadline:
                time.sleep(0.01)                   # compile is now in flight
            with ServiceClient(srv.address) as svc:
                svc.shutdown()
            t.join(timeout=30)
            # the in-flight compile was drained, not dropped
            assert len(results) == 1 and results[0].ok
            assert srv.wait_stopped(10)
            # new connections are refused after the drain
            with pytest.raises(ConnectionError):
                ServiceClient(srv.address, connect_retries=2,
                              retry_delay=0.01).connect()
        finally:
            daemon_mod._run_compile = real

    def test_compile_rejected_while_draining(self, server, A):
        srv = server()
        srv._draining.set()
        with ServiceClient(srv.address) as svc:
            assert svc.ping()                      # control ops still served
            with pytest.raises(ServiceError, match="draining"):
                svc.compile(MVM, {"A": A})


# ---------------------------------------------------------------------------
# Warm restart on the sharded disk cache
# ---------------------------------------------------------------------------

@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
class TestWarmRestart:
    def test_restart_reuses_sharded_disk_artifacts(self, server, A,
                                                   monkeypatch, tmp_path):
        """One cc invocation total across a server restart for the same
        digest: the second server boots cold in memory but finds the
        sharded ``.so`` on disk."""
        cache_dir = tmp_path / "shared-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        options = {"backend": "c", "cache": "disk"}

        def fresh_process():
            """A daemon restart from the caches' point of view."""
            clear_compile_cache()
            be.reset_toolchain_cache(scratch=True)

        fresh_process()
        compiles0 = INSTR.get("native.compiles")
        srv1 = server(workers=2)
        with ServiceClient(srv1.address) as svc:
            h = svc.compile(MVM, {"A": A}, options=options)
            assert h.backend_used.startswith("c"), h.fallback_reason
            h2 = svc.compile(MVM, {"A": A}, options=options)
            assert h2.cached
            svc.shutdown()
        assert srv1.wait_stopped(10)
        assert INSTR.get("native.compiles") == compiles0 + 1

        sos = list(cache_dir.rglob("*.so"))
        assert len(sos) == 1
        assert sos[0].parent.name == sos[0].name[:2], "sharded layout"
        assert not list(cache_dir.rglob("*.lock")), "no stale lock files"

        fresh_process()                            # "restart" the daemon
        srv2 = server(workers=2)
        with ServiceClient(srv2.address) as svc:
            disk_before = INSTR.get("native.so_cache.hits.disk")
            h = svc.compile(MVM, {"A": A}, options=options)
            assert h.ok and not h.cached           # new process: no handle map
            assert h.backend_used.startswith("c")
        # zero additional toolchain invocations across the restart
        assert INSTR.get("native.compiles") == compiles0 + 1
        assert INSTR.get("native.so_cache.hits.disk") == disk_before + 1
        fresh_process()
