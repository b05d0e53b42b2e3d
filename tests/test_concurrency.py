"""Race/stress suite for the concurrent compilation service.

Covers the PR's acceptance criteria directly:

- instrument counters lose no updates under 8 hammering threads;
- the compilation LRU survives concurrent hits/evictions/reranks;
- N threads requesting the same native digest pay exactly one cc
  invocation (single-flight), observable via ``native.*`` counters;
- ``compile_many`` isolates per-item failures and, at 16 workers over a
  mixed (same + distinct) batch, produces byte-identical results to the
  serial compilation with exactly one cc invocation per unique digest;
- a batch runs each item's ``cc`` beside the next item's search, and a
  build that fails there falls back observably on the calling thread;
- ``cc`` is a child process of the caller: at most ``os.cpu_count() + 1``
  alive, every one reaped by the join, stopped when its kernel is
  dropped first, killed when it outlives its timeout, and never waited
  on by a forked child.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import multiprocessing as mp
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.codegen.native import lower_kernel
from repro.core import NativeBackendWarning, compile_kernel, compile_many
from repro.core import backend as be
from repro.core.cache import COMPILE_CACHE, clear_compile_cache
from repro.formats import as_format
from repro.formats.generate import laplacian_2d, random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS

N = 10


@pytest.fixture()
def square():
    return random_sparse(N, N, density=0.4, seed=1234).to_dense()


def _run_threads(n, fn):
    """Run ``fn(i)`` on n threads through a start barrier; re-raise the
    first worker exception in the main thread."""
    barrier = threading.Barrier(n)
    errors = []

    def wrap(i):
        try:
            barrier.wait(timeout=60)
            fn(i)
        except BaseException as e:  # noqa: BLE001 - reported to the main thread
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Instrumentation under threads (satellite: non-atomic counter increments)
# ---------------------------------------------------------------------------

class TestInstrumentationThreadSafety:
    def test_no_lost_counter_updates_8_threads(self):
        """Regression: naive dict increments lose updates under threads;
        per-thread shards must account for every single one."""
        before = INSTR.get("t.hammer")
        per_thread = 25_000

        _run_threads(8, lambda i: [INSTR.count("t.hammer")
                                   for _ in range(per_thread)])
        assert INSTR.get("t.hammer") - before == 8 * per_thread

    def test_weighted_counts_and_timers_merge(self):
        before_c = INSTR.get("t.weighted")
        before_t = INSTR.time("t.phase")

        def work(i):
            INSTR.count("t.weighted", 3)
            with INSTR.phase("t.phase"):
                pass

        _run_threads(8, work)
        assert INSTR.get("t.weighted") - before_c == 24
        assert INSTR.time("t.phase") > before_t

    def test_counts_survive_thread_exit(self):
        before = INSTR.get("t.exited")
        t = threading.Thread(target=lambda: INSTR.count("t.exited", 7))
        t.start()
        t.join()
        # the dead thread's shard must stay visible (and survive the
        # compaction a new shard registration triggers)
        t2 = threading.Thread(target=lambda: INSTR.count("t.other"))
        t2.start()
        t2.join()
        assert INSTR.get("t.exited") - before == 7

    def test_thread_snapshot_is_private(self):
        _run_threads(4, lambda i: INSTR.count("t.noise", 100))
        snap = INSTR.thread_snapshot()
        assert "t.noise" not in snap["counters"]

    def test_reset_clears_all_shards(self):
        _run_threads(4, lambda i: INSTR.count("t.reset_me"))
        INSTR.reset()
        assert INSTR.get("t.reset_me") == 0
        assert "t.reset_me" not in INSTR.snapshot()["counters"]


# ---------------------------------------------------------------------------
# Compilation cache under threads
# ---------------------------------------------------------------------------

class TestCacheConcurrency:
    def test_lru_eviction_race(self, square):
        """8 threads rotating 3 structures through a capacity-2 LRU:
        constant hit/evict/re-search churn must stay correct and never
        corrupt the OrderedDict."""
        fmts = {name: as_format(square, name) for name in ("csr", "csc", "coo")}
        x = np.linspace(-1.0, 1.0, N)
        expect = {name: f.to_dense() @ x for name, f in fmts.items()}

        clear_compile_cache()
        old_cap = COMPILE_CACHE.capacity
        COMPILE_CACHE.capacity = 2
        try:
            def work(i):
                names = list(fmts)
                for j in range(2 * len(names)):
                    name = names[(i + j) % len(names)]
                    k = compile_kernel(ALL_KERNELS["mvm"](), {"A": fmts[name]},
                                       pick="first", cache="memory")
                    y = np.zeros(N)
                    k({"A": fmts[name], "x": x, "y": y}, {"m": N, "n": N})
                    assert np.allclose(y, expect[name])

            _run_threads(8, work)
            assert len(COMPILE_CACHE) <= 2
        finally:
            COMPILE_CACHE.capacity = old_cap
            clear_compile_cache()

    def test_concurrent_searches_match_serial(self, square):
        """cache="off" forces every thread through the full search —
        concurrently shared FM/pair memos must not change the answer."""
        A = as_format(square, "csr")
        ref = compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, cache="off")
        plans = [None] * 8

        def work(i):
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, cache="off")
            plans[i] = (k.cost, k.pseudocode())

        _run_threads(8, work)
        assert all(p == (ref.cost, ref.pseudocode()) for p in plans)

    def test_concurrent_rerank_hits(self, square):
        """Concurrent hits whose instance statistics differ exercise the
        locked rerank path; every thread must still get a working kernel
        for its own instance."""
        clear_compile_cache()
        x = np.linspace(0.5, 1.5, N)
        variants = []
        for seed in range(6):
            dense = random_sparse(N, N, density=0.2 + 0.1 * (seed % 4),
                                  seed=seed).to_dense()
            variants.append((as_format(dense, "csr"), dense))

        def work(i):
            fmt, dense = variants[i % len(variants)]
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": fmt},
                               cache="memory")
            y = np.zeros(N)
            k({"A": fmt, "x": x, "y": y}, {"m": N, "n": N})
            assert np.allclose(y, dense @ x)

        _run_threads(12, work)
        clear_compile_cache()


# ---------------------------------------------------------------------------
# compile_many
# ---------------------------------------------------------------------------

class TestCompileMany:
    def test_error_isolation(self, square):
        """A bad item reports its error; the rest of the batch compiles."""
        A = as_format(square, "csr")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["mvm"](),
                 ALL_KERNELS["row_sums"]()]
        binds = [{"A": A}, {"NOPE": A}, {"A": A}]
        before = INSTR.get("service.items.error")

        batch = compile_many(progs, binds, max_workers=3)

        assert not batch.ok
        assert batch[0].ok and batch[2].ok
        assert isinstance(batch[1].error, KeyError)
        assert batch.kernels[1] is None
        assert list(batch.errors) == [1]
        assert INSTR.get("service.items.error") - before == 1
        with pytest.raises(KeyError):
            batch.raise_first()

    def test_raise_first_attaches_batch_context(self, square):
        """Regression: the re-raised exception must name the failing item
        (index + program name) while keeping the original traceback."""
        A = as_format(square, "csr")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["row_sums"]()]
        batch = compile_many(progs, [{"A": A}, {"NOPE": A}], max_workers=2)

        with pytest.raises(KeyError) as exc_info:
            batch.raise_first()
        err = exc_info.value
        assert err is batch[1].error            # same object, traceback intact
        assert err.__traceback__ is not None
        context = getattr(err, "__notes__", None) or [repr(err.__cause__)]
        assert any("item #1" in c and "'row_sums'" in c for c in context), context
        # the note must also render in the formatted traceback
        import traceback

        rendered = "".join(traceback.format_exception(err))
        assert "item #1" in rendered and "row_sums" in rendered

        # raising twice must not stack duplicate notes
        with pytest.raises(KeyError):
            batch.raise_first()
        context2 = getattr(err, "__notes__", None)
        if context2 is not None:
            assert len([c for c in context2 if "item #1" in c]) == 1

    def test_broadcast_and_order(self, square):
        """One shared binding mapping broadcasts; outcomes keep input order."""
        A = as_format(square, "csr")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["row_sums"]()]
        batch = compile_many(progs, {"A": A}, max_workers=4)
        assert batch.ok
        assert [o.index for o in batch] == [0, 1]
        assert [o.program.name for o in batch] == [p.name for p in progs]

    def test_shared_bindings_cover_heterogeneous_batch(self, square):
        """A shared map may bind arrays for the whole batch; each program
        sees only its own names (per-item sequences stay strict)."""
        A = as_format(square, "csr")
        L = as_format(np.tril(square) + 4.0 * np.eye(N), "csr")
        L.annotate_triangular("lower")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["ts_lower"]()]
        batch = compile_many(progs, {"A": A, "L": L}, max_workers=2)
        assert batch.ok
        # the same map as a per-item sequence is strict about names
        strict = compile_many(progs, [{"A": A, "L": L}] * 2, max_workers=2)
        assert not strict.ok

    def test_sequence_length_mismatch_rejected(self, square):
        A = as_format(square, "csr")
        with pytest.raises(ValueError, match="bindings"):
            compile_many([ALL_KERNELS["mvm"]()], [{"A": A}, {"A": A}])

    def test_invalid_workers_rejected(self, square):
        A = as_format(square, "csr")
        with pytest.raises(ValueError, match="max_workers"):
            compile_many([ALL_KERNELS["mvm"]()], {"A": A}, max_workers=0)

    def test_parallel_matches_serial_python_backend(self, square):
        """Worker-pool compilation must be a pure scheduling change."""
        fmts = [as_format(square, n) for n in ("csr", "csc", "coo", "ell")]
        progs = [ALL_KERNELS["mvm"]() for _ in fmts]
        binds = [{"A": f} for f in fmts]
        x = np.linspace(-2.0, 2.0, N)

        clear_compile_cache()
        serial = compile_many(progs, binds, max_workers=1, cache="memory")
        clear_compile_cache()
        threaded = compile_many(progs, binds, max_workers=8, cache="memory")
        assert serial.ok and threaded.ok

        for ks, kt, f in zip(serial.kernels, threaded.kernels, fmts):
            assert ks.pseudocode() == kt.pseudocode()
            ys, yt = np.zeros(N), np.zeros(N)
            ks({"A": f, "x": x, "y": ys}, {"m": N, "n": N})
            kt({"A": f, "x": x, "y": yt}, {"m": N, "n": N})
            assert ys.tobytes() == yt.tobytes()


# ---------------------------------------------------------------------------
# Native single-flight (needs a toolchain)
# ---------------------------------------------------------------------------

needs_cc = pytest.mark.skipif(be.find_compiler() is None,
                              reason="no C compiler on PATH")


def _fresh_native_state():
    be.reset_toolchain_cache(scratch=True)
    clear_compile_cache()


@needs_cc
class TestSingleFlight:
    def test_16_threads_one_cc_invocation(self, square):
        """16 threads, same digest: exactly one ``cc`` run; everyone else
        coalesces onto it or hits the in-process cache."""
        _fresh_native_state()
        A = as_format(square, "csr")
        before = INSTR.snapshot()["counters"]
        kernels = [None] * 16

        def work(i):
            kernels[i] = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                        backend="c", cache="memory")

        _run_threads(16, work)

        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        assert delta("native.compiles") == 1
        assert delta("native.fallbacks") == 0
        # every non-leader either waited on the flight or arrived after
        # completion and hit the in-process cache
        assert (delta("native.so_cache.hits.coalesced")
                + delta("native.so_cache.hits.memory")) == 15
        assert all(k.backend_used.startswith("c") for k in kernels)

        x = np.linspace(-1.0, 1.0, N)
        ys = []
        for k in kernels:
            y = np.zeros(N)
            k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
            ys.append(y.tobytes())
        assert len(set(ys)) == 1

    def test_leader_failure_observable_and_retried(self, square, monkeypatch):
        """When the leader's toolchain invocation fails, the follower
        observes the failure counter and retries before giving up."""
        _fresh_native_state()
        A = as_format(square, "csc")

        real_settle = be._Unit._settle
        fail_once = {"left": 1}
        waits_before = INSTR.get("native.singleflight.waits")

        def flaky(unit):
            if fail_once["left"]:
                fail_once["left"] -= 1
                # hold the unit's lock until the other thread is actually
                # waiting on it, then fail while it watches
                deadline = time.monotonic() + 30
                while (INSTR.get("native.singleflight.waits") == waits_before
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                raise RuntimeError("injected toolchain failure")
            return real_settle(unit)

        monkeypatch.setattr(be._Unit, "_settle", flaky)
        before = INSTR.snapshot()["counters"]
        outcomes = [None, None]

        def work(i):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NativeBackendWarning)
                outcomes[i] = compile_kernel(
                    ALL_KERNELS["mvm"](), {"A": A},
                    backend="c", cache="memory")

        _run_threads(2, work)
        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        assert delta("native.singleflight.leader_failures") >= 1
        # the retry shipped a working kernel to the follower
        assert any(k.backend_used.startswith("c") for k in outcomes)

    def test_8_threads_load_a_warm_disk_artifact_once(self, tmp_path,
                                                       monkeypatch):
        """A warm artifact on disk and no loaded unit: 8 threads joining
        the one unit load it once — one disk hit, every other join shares
        that load or hits memory — and run no ``cc``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        unit = ("typedef __INT64_TYPE__ int64_t;\n"
                "void kernel(int64_t n, double *y) {\n"
                "    for (int64_t i = 0; i < n; i++) y[i] = 0.5 * i;\n"
                "}\n")
        be.reset_toolchain_cache()
        be.compile_native_function(unit, False, "disk")
        be.reset_toolchain_cache()
        before = INSTR.snapshot()["counters"]
        fns = [None] * 8

        def work(i):
            fn, _omp = be.compile_native_function(unit, False, "disk")
            fns[i] = ctypes.cast(fn, ctypes.c_void_p).value

        _run_threads(8, work)
        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        be.reset_toolchain_cache()
        assert delta("native.so_cache.hits.disk") == 1
        assert (delta("native.so_cache.hits.coalesced")
                + delta("native.so_cache.hits.memory")) == 7
        assert delta("native.compiles") == 0
        assert len(set(fns)) == 1
        assert len(list(tmp_path.rglob("*.so"))) == 1

    def test_stress_16_threads_mixed_batch(self, square):
        """Acceptance criterion: 16 workers over a mixed (same + distinct)
        batch through compile_many — exactly one cc invocation per unique
        digest, per-item success, results byte-identical to serial."""
        fmt_names = ["csr", "csc", "coo", "dia", "ell", "jad", "msr"]
        fmts = [as_format(square, n) for n in fmt_names]
        items = [(ALL_KERNELS["mvm"](), {"A": f})
                 for f in fmts] * 4                      # 28 items, 7 digests
        progs = [p for p, _b in items]
        binds = [b for _p, b in items]
        x = np.linspace(-1.0, 1.0, N)

        def run_all(batch):
            outs = []
            for o, b in zip(batch, binds):
                y = np.zeros(N)
                o.kernel({**b, "x": x, "y": y}, {"m": N, "n": N})
                outs.append(y.tobytes())
            return outs

        _fresh_native_state()
        before = INSTR.get("native.compiles")
        serial = compile_many(progs, binds, max_workers=1,
                              backend="c", cache="memory")
        serial_compiles = INSTR.get("native.compiles") - before
        assert serial.ok
        assert serial_compiles == len(fmt_names)
        serial_out = run_all(serial)

        _fresh_native_state()
        before = INSTR.get("native.compiles")
        fallbacks_before = INSTR.get("native.fallbacks")
        # a short switch interval interleaves the searching workers, the
        # toolchain threads and the joins far more often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threaded = compile_many(progs, binds, max_workers=16,
                                    backend="c", cache="memory")
        finally:
            sys.setswitchinterval(interval)
        assert threaded.ok
        assert INSTR.get("native.compiles") - before == len(fmt_names)
        assert INSTR.get("native.fallbacks") - fallbacks_before == 0
        assert all(o.kernel.backend_used.startswith("c") for o in threaded)

        assert run_all(threaded) == serial_out


# ---------------------------------------------------------------------------
# The toolchain beside the search (needs a toolchain)
# ---------------------------------------------------------------------------

_SLOW_CC = """#!{python} -S
import os, subprocess, sys, time
args = sys.argv[1:]
if "--version" in args:
    os.execv({real!r}, [{real!r}] + args)
src = [a for a in args if a.endswith(".c")][0]
log = open({log!r}, "a")
log.write("start %r %d\\n" % (time.monotonic(), os.getpid()))
log.flush()
time.sleep(float(os.environ.get("SLOW_CC_SLEEP", {sleep!r})))
fail = os.path.exists({fail!r}) and open(src).read() == open({fail!r}).read()
rc = 1 if fail else subprocess.call([{real!r}] + args)
if fail:
    sys.stderr.write("injected failure\\n")
log.write("end %r %d\\n" % (time.monotonic(), os.getpid()))
sys.exit(rc)
"""


def _slow_cc(tmp_path, monkeypatch, sleep):
    """Install a ``REPRO_CC`` that logs each compile's start and end,
    sleeps ``sleep`` s (``SLOW_CC_SLEEP`` in its environment overrides
    that), then runs the real compiler — or fails, when the
    unit is the one in ``tmp_path/fail.c``.  Returns the log path."""
    be.reset_toolchain_cache()
    real = be.find_compiler()
    log = tmp_path / "cc.log"
    cc = tmp_path / "slow-cc"
    cc.write_text(_SLOW_CC.format(python=sys.executable, real=real,
                                  log=str(log), sleep=sleep,
                                  fail=str(tmp_path / "fail.c")))
    cc.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(cc))
    _fresh_native_state()
    return log


def _cc_intervals(log):
    """(start, end) of every logged compile, in start order."""
    events = {}
    for line in log.read_text().splitlines():
        what, t, pid = line.split()
        events.setdefault(pid, {})[what] = float(t)
    return sorted((e["start"], e["end"]) for e in events.values())


def _most_alive(intervals):
    edges = sorted([(s, 1) for s, _e in intervals]
                   + [(e, -1) for _s, e in intervals])
    alive = most = 0
    for _t, step in edges:
        alive += step
        most = max(most, alive)
    return most


@needs_cc
class TestToolchainOverlap:
    OPS = ("mvm", "ts_lower", "ts_upper")

    def test_cc_runs_beside_the_next_search(self, tmp_path, monkeypatch):
        """A cold 3-op context searching on one thread: the second unit's
        cc starts while the first one's still runs, no more toolchain
        processes run at once than one per CPU and one more — on two CPUs
        or more, all three units' cc at once — and every unit's C and
        Python print equal three separate compile_kernel calls."""
        from repro.solvers import SolverContext

        if (os.cpu_count() or 1) < 2:
            pytest.skip("one CPU: one toolchain process at a time")
        A = as_format(laplacian_2d(6), "csr")
        # long enough that the third unit starts before the first ends
        log = _slow_cc(tmp_path, monkeypatch, sleep=0.6)
        try:
            before = INSTR.get("native.compiles")
            ctx = SolverContext(A, ops=self.OPS, backend="c", max_workers=1,
                                cache="memory")
            assert INSTR.get("native.compiles") - before == 3
            spans = _cc_intervals(log)
            assert len(spans) == 3
            assert spans[1][0] < spans[0][1]
            assert _most_alive(spans) == 3 <= os.cpu_count() + 1
            kernels = [ctx.bound(op).kernel for op in self.OPS]
            assert all(k.backend_used == "c" for k in kernels)
            got = [(k.c_source, k.source) for k in kernels]
        finally:
            monkeypatch.undo()
            _fresh_native_state()
        for k, (c_source, source) in zip(kernels, got):
            clear_compile_cache()
            alone = compile_kernel(k.program, k.bindings, backend="c",
                                   cache="memory",
                                   entry_points=k.entry_points)
            assert alone.c_source == c_source
            assert alone.source == source

    def test_failed_build_falls_back_on_calling_thread(
            self, square, tmp_path, monkeypatch):
        """One unit of a 3-item batch fails in cc on a build thread: the
        join on the calling thread warns once, counts it, and leaves that
        item on the Python kernel while the other two are native."""
        fmts = [as_format(square, f) for f in ("csr", "csc", "coo")]
        progs = [ALL_KERNELS["mvm"]() for _ in fmts]
        binds = [{"A": f} for f in fmts]
        probe = compile_kernel(progs[1], binds[1], backend="c",
                               cache="memory", bind=False)
        (tmp_path / "fail.c").write_text(lower_kernel(probe).c_source)
        _slow_cc(tmp_path, monkeypatch, sleep=0.0)
        real_fallback = be.native_fallback
        warned_on = []

        def fallback(reason, detail):
            warned_on.append(threading.get_ident())
            real_fallback(reason, detail)

        monkeypatch.setattr(be, "native_fallback", fallback)
        before = INSTR.snapshot()["counters"]
        try:
            with pytest.warns(NativeBackendWarning) as record:
                batch = compile_many(progs, binds, backend="c",
                                     cache="memory", max_workers=3)
        finally:
            monkeypatch.undo()
            _fresh_native_state()
        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731

        assert batch.ok
        assert [k.backend_used for k in batch.kernels] == ["c", "python", "c"]
        assert batch.kernels[1].fallback_reason.startswith("toolchain: ")
        assert "injected failure" in batch.kernels[1].fallback_reason
        assert len([w for w in record
                    if issubclass(w.category, NativeBackendWarning)]) == 1
        assert warned_on == [threading.get_ident()]
        assert delta("native.fallbacks") == 1
        assert delta("native.fallback.toolchain") == 1
        assert delta("native.compiles") == 2


def _children():
    """The pids of this process's children not reaped yet (running or
    zombie)."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as f:
            pids.update(f.read().split())
    return pids


needs_proc_children = pytest.mark.skipif(
    not glob.glob(f"/proc/{os.getpid()}/task/*/children"),
    reason="needs /proc/<pid>/task/<tid>/children")


def _ten_items(square):
    """Ten programs with ten distinct C units."""
    fmts = {f: as_format(square, f)
            for f in ("csr", "csc", "coo", "dia", "ell", "jad", "msr")}
    items = [(ALL_KERNELS["mvm"](), {"A": A}) for A in fmts.values()]
    items += [(ALL_KERNELS["mvm_t"](), {"A": fmts[f]})
              for f in ("csr", "csc", "coo")]
    return [p for p, _b in items], [b for _p, b in items]


@needs_cc
class TestToolchainProcesses:
    """``cc`` is a child process of the caller: started on the thread
    that lowered the unit, reaped by the join, never more than
    ``os.cpu_count() + 1`` at once, and never left running."""

    @needs_proc_children
    def test_ten_items_keep_to_the_bound_and_are_all_reaped(
            self, square, tmp_path, monkeypatch):
        progs, binds = _ten_items(square)
        log = _slow_cc(tmp_path, monkeypatch, sleep=0.2)
        before = INSTR.snapshot()["counters"]
        children = _children()
        try:
            batch = compile_many(progs, binds, backend="c", cache="memory",
                                 max_workers=1)
            left = _children() - children
            threads = [t.name for t in threading.enumerate()]
        finally:
            monkeypatch.undo()
            _fresh_native_state()
        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        assert batch.ok
        assert all(k.backend_used == "c" for k in batch.kernels)
        assert delta("native.compiles") == 10
        spans = _cc_intervals(log)
        assert len(spans) == 10
        bound = (os.cpu_count() or 1) + 1
        assert _most_alive(spans) <= bound
        # each cc sleeps far longer than a search takes: the bound bites
        assert delta("native.toolchain.bound_waits") >= 1
        assert not left, "a cc was not reaped"
        assert not [t for t in threads if t.startswith("repro-cc")]

    @needs_proc_children
    def test_a_kernel_dropped_before_its_join_stops_its_cc(
            self, square, tmp_path, monkeypatch):
        A = as_format(square, "csr")
        log = _slow_cc(tmp_path, monkeypatch, sleep=30.0)
        children = _children()
        compiles = INSTR.get("native.compiles")
        try:
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, backend="c",
                               cache="memory", bind=False)
            k.start_native()
            deadline = time.monotonic() + 30
            while not log.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _children() - children, "no cc was started"
            t0 = time.monotonic()
            del k
            gc.collect()
            stopped_in = time.monotonic() - t0
            left = _children() - children
            scratch = be._scratch_dir()
            litter = [n for n in os.listdir(scratch)
                      if n.endswith((".tmp", ".c", ".lock"))]
        finally:
            monkeypatch.undo()
            _fresh_native_state()
        assert not left, "a dropped kernel left its cc running"
        assert stopped_in < 10
        assert not litter, litter
        assert INSTR.get("native.compiles") == compiles
        assert [line.split()[0] for line in log.read_text().splitlines()] \
            == ["start"]

    @needs_proc_children
    def test_a_hung_toolchain_falls_back_within_its_timeout(
            self, square, tmp_path, monkeypatch):
        """A ``cc`` that never ends is killed at ``_CC_TIMEOUT``: two
        threads compiling one kernel both come back within a few seconds
        with the Python kernel, counted, and leave no process and no temp
        file behind.  A thread that finds the unit's build failed builds
        it once more, so that is at most two timeouts."""
        A = as_format(square, "csr")
        log = _slow_cc(tmp_path, monkeypatch, sleep=600.0)
        monkeypatch.setattr(be, "_CC_TIMEOUT", 1.0)
        children = _children()
        before = INSTR.snapshot()["counters"]
        kernels = [None, None]

        def work(i):
            kernels[i] = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                        backend="c", cache="memory")

        t0 = time.monotonic()
        try:
            # the filters are the process's: set them around both threads
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NativeBackendWarning)
                _run_threads(2, work)
            elapsed = time.monotonic() - t0
            left = _children() - children
            litter = [n for n in os.listdir(be._scratch_dir())
                      if n.endswith((".tmp", ".c", ".lock"))]
        finally:
            monkeypatch.undo()
            _fresh_native_state()
        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        assert elapsed < 8
        assert [k.backend_used for k in kernels] == ["python", "python"]
        assert all(k.fallback_reason == "toolchain: cc failed: timed out"
                   for k in kernels)
        assert delta("native.fallbacks") == 2
        assert delta("native.fallback.toolchain") == 2
        assert delta("native.compiles") == 0
        assert not left, "a timed-out cc was left running"
        assert not litter, litter
        assert "end" not in log.read_text()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.parametrize("cache", ["memory", "disk"])
    def test_a_child_forked_while_a_unit_is_pending_builds_its_own(
            self, square, tmp_path, monkeypatch, cache):
        """In disk mode the parent also holds the artifact's cache lock,
        which the child does not wait for."""
        A = as_format(square, "csr")
        log = _slow_cc(tmp_path, monkeypatch, sleep=0.0)
        monkeypatch.setenv("SLOW_CC_SLEEP", "30")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        try:
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, backend="c",
                               cache=cache, bind=False)
            k.start_native()                    # the parent's cc sleeps

            def child(q):
                os.environ["SLOW_CC_SLEEP"] = "0"
                compiles = INSTR.get("native.compiles")
                nk = k.native()
                q.put((k.backend_used, nk is not None,
                       INSTR.get("native.compiles") - compiles,
                       log.read_text().count("end")))

            ctx = mp.get_context("fork")
            q = ctx.Queue()
            proc = ctx.Process(target=child, args=(q,))
            proc.start()
            try:
                got = q.get(timeout=25)
            finally:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            del k                               # stops the parent's cc
        finally:
            monkeypatch.undo()
            _fresh_native_state()
        backend_used, bound, compiles, ended = got
        assert (backend_used, bound, compiles) == ("c", True, 1)
        # the child's own cc ended; the parent's was still asleep
        assert ended == 1
        assert proc.exitcode == 0
