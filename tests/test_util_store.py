"""The cache kit (`repro.util.store`): LRU, single-flight, atomic publish
and the two-layer store — and the one timeout policy both of the kit's
single-flight users now share."""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time

import pytest

from repro.instrument import INSTR
from repro.search import autotune
from repro.util.store import LRU, SingleFlight, Store, atomic_path

JOIN = 30.0


def _run_threads(n, work):
    """Run ``work(i)`` on n threads, released together; re-raise nothing —
    each thread parks its outcome — and assert they all finished."""
    barrier = threading.Barrier(n)
    outcomes = [None] * n

    def body(i):
        barrier.wait(JOIN)
        try:
            outcomes[i] = ("ok", work(i))
        except BaseException as e:          # parked for the assertions
            outcomes[i] = ("raised", e)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN)
    assert not any(t.is_alive() for t in threads)
    return outcomes


def _wait_until(cond, timeout=JOIN):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


# ---------------------------------------------------------------------------
# LRU
# ---------------------------------------------------------------------------

class TestLRU:
    def test_get_refreshes_and_put_evicts_oldest(self):
        c = LRU(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1                 # a is now the newest
        c.put("c", 3)                          # evicts b
        assert c.get("b") is None
        assert [k for k, _v in c.items()] == ["a", "c"]
        assert c.values() == [1, 3]
        assert len(c) == 2
        c.clear()
        assert len(c) == 0 and c.get("a") is None

    def test_put_of_existing_key_refreshes_it(self):
        c = LRU(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)
        c.put("c", 3)                          # evicts b, not a
        assert c.get("a") == 10 and c.get("b") is None

    def test_capacity_shrink_applies_at_next_put(self):
        c = LRU(4)
        for k in "abcd":
            c.put(k, k)
        c.capacity = 2
        c.put("e", "e")
        assert [k for k, _v in c.items()] == ["d", "e"]

    def test_8_threads_3_keys_capacity_2_never_corrupt(self):
        c = LRU(2)
        keys = ("x", "y", "z")
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def work(i):
                for n in range(2000):
                    k = keys[(i + n) % 3]
                    c.put(k, k * 2)
                    got = c.get(keys[n % 3])
                    assert got is None or got == keys[n % 3] * 2
                    assert len(c) <= 2
            outcomes = _run_threads(8, work)
        finally:
            sys.setswitchinterval(old)
        assert all(o[0] == "ok" for o in outcomes), outcomes
        assert len(c) == 2
        assert all(v == k * 2 for k, v in c.items())


# ---------------------------------------------------------------------------
# SingleFlight
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_16_threads_one_key_run_once(self):
        sf = SingleFlight(waits="test.sf.waits", shared="test.sf.shared")
        waits0 = INSTR.get("test.sf.waits")
        shared0 = INSTR.get("test.sf.shared")
        runs = []

        def fn():
            runs.append(threading.get_ident())
            # hold the flight until the other 15 are parked on it
            _wait_until(lambda: INSTR.get("test.sf.waits") == waits0 + 15)
            return object()

        outcomes = _run_threads(16, lambda i: sf.do("k", fn))
        assert len(runs) == 1
        assert all(o[0] == "ok" for o in outcomes)
        values = {id(o[1][0]) for o in outcomes}
        assert len(values) == 1
        assert sorted(o[1][1] for o in outcomes) == [False] + [True] * 15
        assert INSTR.get("test.sf.shared") == shared0 + 15
        assert len(sf) == 0

    def test_distinct_keys_do_not_coalesce(self):
        sf = SingleFlight()
        outcomes = _run_threads(4, lambda i: sf.do(f"k{i}", lambda: i))
        assert sorted(o[1] for o in outcomes) == [(i, False) for i in range(4)]
        assert len(sf) == 0

    def test_leader_failure_one_follower_reruns_rest_share_it(self):
        sf = SingleFlight(waits="test.sf2.waits", failures="test.sf2.failures")
        waits0 = INSTR.get("test.sf2.waits")
        fails0 = INSTR.get("test.sf2.failures")
        lock = threading.Lock()
        calls = []

        class Boom(LookupError):
            pass

        def fn():
            with lock:
                calls.append(None)
                nth = len(calls)
            if nth == 1:
                _wait_until(lambda: INSTR.get("test.sf2.waits") == waits0 + 7)
                raise Boom("leader")
            # second leader: hold until the other six joined *this* flight
            _wait_until(lambda: INSTR.get("test.sf2.waits") == waits0 + 13)
            return ("value of run", nth)

        outcomes = _run_threads(8, lambda i: sf.do("k", fn))
        raised = [o[1] for o in outcomes if o[0] == "raised"]
        ok = [o[1] for o in outcomes if o[0] == "ok"]
        # the leader's exception reaches the leader's caller unchanged
        assert len(raised) == 1 and type(raised[0]) is Boom
        assert len(calls) == 2                 # exactly one follower re-ran
        assert [v for v, _s in ok] == [("value of run", 2)] * 7
        assert sorted(s for _v, s in ok) == [False] + [True] * 6
        assert INSTR.get("test.sf2.failures") == fails0 + 7
        assert len(sf) == 0

    def test_second_failure_raises_the_followers_own_error(self):
        """Three callers, every run fails: the first leads and fails, the
        second leads the retry flight and fails, the third — having joined
        two failed flights — runs ``fn`` itself.  Nobody is handed anybody
        else's exception."""
        sf = SingleFlight(waits="test.sf3.waits")
        waits0 = INSTR.get("test.sf3.waits")
        lock = threading.Lock()
        calls = []

        def fn():
            with lock:
                calls.append(None)
                nth = len(calls)
            # run 1 holds until both others wait on it, run 2 until the
            # third caller waits on *it*
            _wait_until(lambda: INSTR.get("test.sf3.waits")
                        >= waits0 + min(nth + 1, 3))
            raise RuntimeError(threading.current_thread().name)

        def work(i):
            try:
                sf.do("k", fn)
            except RuntimeError as e:
                return str(e) == threading.current_thread().name
            return "no error"

        outcomes = _run_threads(3, work)
        assert [o[1] for o in outcomes] == [True, True, True]
        assert len(calls) == 3
        assert len(sf) == 0

    def test_keyboard_interrupt_in_leader_releases_followers(self):
        sf = SingleFlight(waits="test.sf4.waits")
        waits0 = INSTR.get("test.sf4.waits")
        first = threading.Event()

        def fn():
            if not first.is_set():
                first.set()
                _wait_until(lambda: INSTR.get("test.sf4.waits") == waits0 + 3)
                raise KeyboardInterrupt
            return "recovered"

        outcomes = _run_threads(4, lambda i: sf.do("k", fn))
        raised = [o[1] for o in outcomes if o[0] == "raised"]
        assert len(raised) == 1 and type(raised[0]) is KeyboardInterrupt
        assert [o[1][0] for o in outcomes if o[0] == "ok"] == ["recovered"] * 3
        assert len(sf) == 0


# -- the timeout policy, through the kit's user --------------------------------

def _autotune_flight(tag, work):
    """Drive ``autotune.winner_for`` on a fresh key; ``work()`` is the tune."""
    def tune():
        return {"format": "csr", "by": work()}, None
    record, _payload, origin = autotune.winner_for(f"test-{tag}", "off", tune)
    return record["by"], origin


# the native backend's row went with its flight: a join waits for the
# ``cc`` it joins, which ``_CC_TIMEOUT`` bounds (tests/test_concurrency.py::
# TestToolchainProcesses::test_a_hung_toolchain_falls_back_within_its_timeout)
@pytest.mark.parametrize("user, waits", [
    ("autotune", "autotune.coalesced"),
])
def test_follower_of_a_wedged_leader_does_the_work_itself(
        user, waits, monkeypatch):
    """Leader holds its flight on an Event; with a 50 ms follower timeout
    the follower must come back with its *own* result long before the
    leader lets go, having waited exactly once.  (Before the kit the
    autotune follower re-joined the wedged flight until the leader
    finished.)"""
    monkeypatch.setenv("REPRO_SINGLEFLIGHT_TIMEOUT", "0.05")
    tag = f"wedged-{user}-{time.monotonic_ns()}"
    release = threading.Event()
    leading = threading.Event()
    waits0 = INSTR.get(waits)

    def leader_work():
        leading.set()
        assert release.wait(JOIN)
        return "leader"

    results = {}
    leader = threading.Thread(target=lambda: results.setdefault(
        "leader", _autotune_flight(tag, leader_work)))
    follower = threading.Thread(target=lambda: results.setdefault(
        "follower", _autotune_flight(tag, lambda: "follower")))
    try:
        leader.start()
        assert leading.wait(JOIN)
        t0 = time.monotonic()
        follower.start()
        follower.join(5.0)
        elapsed = time.monotonic() - t0
        assert not follower.is_alive(), "follower is stuck behind the leader"
        assert leader.is_alive()               # ... which still holds on
    finally:
        release.set()
        leader.join(JOIN)
        follower.join(JOIN)
    assert not leader.is_alive()
    assert results["follower"] == ("follower", "tuned")
    assert results["leader"][0] == "leader"
    assert elapsed < 2.0
    assert INSTR.get(waits) == waits0 + 1


# ---------------------------------------------------------------------------
# atomic_path and the disk layer
# ---------------------------------------------------------------------------

class TestAtomicPath:
    def test_reader_never_sees_a_partial_file(self, tmp_path):
        final = str(tmp_path / "value.json")
        payload = lambda n: json.dumps({"n": n, "pad": "x" * 20000})  # noqa: E731
        with atomic_path(final) as tmp, open(tmp, "w") as f:
            f.write(payload(0))
        stop = threading.Event()
        seen, bad = [], []

        def reader():
            while not stop.is_set():
                try:
                    with open(final) as f:
                        seen.append(json.loads(f.read())["n"])
                except ValueError as e:
                    bad.append(e)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for n in range(1, 201):
                with atomic_path(final) as tmp, open(tmp, "w") as f:
                    f.write(payload(n))
        finally:
            stop.set()
            t.join(JOIN)
        assert not t.is_alive()
        assert not bad
        assert seen and seen == sorted(seen)
        assert os.listdir(tmp_path) == ["value.json"]

    def test_exception_leaves_no_temp_and_the_old_destination(self, tmp_path):
        final = tmp_path / "value.txt"
        final.write_text("old")
        with pytest.raises(ZeroDivisionError):
            with atomic_path(str(final)) as tmp:
                with open(tmp, "w") as f:
                    f.write("half of the new")
                1 / 0
        assert final.read_text() == "old"
        assert os.listdir(tmp_path) == ["value.txt"]


def _json_store(directory, capacity=4, owns=()):
    return Store(
        capacity, directory=lambda: str(directory), suffix=".json",
        dump=lambda v, f: f.write(json.dumps(v).encode()),
        load=lambda f: json.loads(f.read()),
        save_errors="test.store.save_errors", owns=owns)


KEY = "ab" * 32                                # keys are hex digests


class TestStore:
    def test_memory_then_disk_then_promote(self, tmp_path):
        s = _json_store(tmp_path)
        s.store(KEY, {"v": 1}, disk=True)
        assert s.lookup(KEY, disk=True) == ({"v": 1}, "memory")
        s.clear()
        assert s.lookup(KEY, disk=False) == (None, "memory")
        assert s.lookup(KEY, disk=True) == ({"v": 1}, "disk")
        assert s.lookup(KEY, disk=False) == ({"v": 1}, "memory")   # promoted

    def test_memory_only_store_writes_nothing(self, tmp_path):
        s = _json_store(tmp_path)
        s.store(KEY, {"v": 1}, disk=False)
        assert os.listdir(tmp_path) == []

    def test_corrupt_file_is_a_miss(self, tmp_path):
        s = _json_store(tmp_path)
        s.store(KEY, {"v": 1}, disk=True)
        (tmp_path / (KEY + ".json")).write_bytes(b"{not json")
        s.clear()
        assert s.lookup(KEY, disk=True) == (None, "disk")

    @pytest.mark.skipif(getattr(os, "geteuid", lambda: 0)() == 0,
                        reason="root writes into read-only directories")
    def test_unwritable_directory_is_a_counted_save_error(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o500)
        try:
            self._assert_counted(_json_store(ro))
        finally:
            ro.chmod(0o700)

    def test_directory_that_cannot_exist_is_a_counted_save_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        self._assert_counted(_json_store(blocker / "cache"))

    def test_unserialisable_value_is_a_counted_save_error(self, tmp_path):
        s = _json_store(tmp_path)
        errors0 = INSTR.get("test.store.save_errors")
        s.store(KEY, {"v": object()}, disk=True)
        assert INSTR.get("test.store.save_errors") == errors0 + 1
        assert os.listdir(tmp_path) == []      # the temp file is gone too
        assert s.get(KEY) is not None          # the value stays memory-only

    def test_unpicklable_local_class_is_a_counted_save_error(self, tmp_path):
        """A format class defined inside a function reaches the compile
        cache's pickle store (``REPRO_COMPILE_CACHE=disk``): pickle raises
        ``AttributeError`` for it, not ``PicklingError``."""
        class Local:
            pass

        s = Store(4, directory=lambda: str(tmp_path), suffix=".pkl",
                  dump=lambda v, f: pickle.dump(v, f), load=pickle.load,
                  save_errors="test.store.save_errors")
        errors0 = INSTR.get("test.store.save_errors")
        s.store(KEY, Local(), disk=True)
        assert INSTR.get("test.store.save_errors") == errors0 + 1
        assert os.listdir(tmp_path) == []
        assert isinstance(s.get(KEY), Local)

    @staticmethod
    def _assert_counted(store):
        errors0 = INSTR.get("test.store.save_errors")
        store.store(KEY, {"v": 1}, disk=True)  # must not raise
        assert INSTR.get("test.store.save_errors") == errors0 + 1
        assert store.get(KEY) == {"v": 1}

    def test_clear_disk_removes_what_the_layer_owns_and_nothing_else(
            self, tmp_path):
        s = _json_store(tmp_path, owns=(".so", ".lock"))
        s.store(KEY, {"v": 1}, disk=True)
        shard = tmp_path / KEY[:2]
        shard.mkdir()
        ours = [shard / (KEY + ".so"), shard / (KEY + ".so.lock"),
                shard / "repro-tmp-abc123.tmp",
                tmp_path / "repro-tmp-k3_9x.tmp"]
        theirs = [tmp_path / "notes.json", tmp_path / "libfoo.so",
                  shard / "README.so", tmp_path / (KEY + ".txt")]
        other = tmp_path / "autotune"
        other.mkdir()
        theirs.append(other / (KEY + ".json"))
        for p in ours + theirs:
            p.write_text("x")
        s.clear(disk=True)
        assert len(s) == 0
        assert not any(p.exists() for p in ours)
        assert not (tmp_path / (KEY + ".json")).exists()
        assert all(p.exists() for p in theirs)

    def test_clear_disk_of_a_missing_directory_is_a_no_op(self, tmp_path):
        _json_store(tmp_path / "never-made").clear(disk=True)
