"""The cache kit: a bounded LRU, single-flight, and atomic publication.

Every cache in the library is one of these three ideas or a combination
of them, so each is written once, here:

- :class:`LRU` — a locked, bounded, recency-ordered mapping;
- :class:`SingleFlight` — concurrent requests for one key elect a leader
  that does the work while the rest wait for its value, with one policy
  for a leader that fails or wedges;
- :func:`atomic_path` (:class:`AtomicPath`) — write to a temp name in
  the destination directory, publish with a rename, never leave a
  partial file behind;
- :class:`Store` — an :class:`LRU` with an optional best-effort disk
  layer behind it (memory → disk → promote), built from the three above.

The compile cache and the autotuner's winner cache are two
:class:`Store` instances; the daemon's handle and payload tables are two
:class:`LRU` instances; the autotuner's per-key tune flight is a
:class:`SingleFlight` (a native unit needs none: its joins wait on the
unit itself, :mod:`repro.core.backend`).  DESIGN.md ("Caching,
coalescing and durable writes") has the table of who is keyed by what.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.instrument import INSTR
from repro.util.env import env_float

__all__ = ["LRU", "AtomicPath", "SingleFlight", "Store", "atomic_path",
           "singleflight_timeout"]


class LRU:
    """A bounded mapping that evicts its least-recently-used key.

    ``get`` refreshes a key, ``put`` inserts (or refreshes) and evicts
    the oldest keys beyond ``capacity``.  ``capacity`` may be reassigned;
    a smaller value takes effect at the next ``put``.  ``None`` is "no
    entry", so it cannot be stored.  Every operation holds the one lock;
    the values themselves are not guarded."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._d: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str):
        with self._lock:
            value = self._d.get(key)
            if value is not None:
                self._d.move_to_end(key)
            return value

    def put(self, key: str, value) -> None:
        with self._lock:
            self._d[key] = value
            self._d.move_to_end(key)
            while len(self._d) > self.capacity:
                self._d.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._d.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._d)

    def values(self) -> List:
        """A snapshot, oldest first."""
        with self._lock:
            return list(self._d.values())

    def items(self) -> List[Tuple[str, object]]:
        """A snapshot, oldest first."""
        with self._lock:
            return list(self._d.items())


def singleflight_timeout() -> float:
    """Seconds a follower waits for its leader before doing the work
    itself (``REPRO_SINGLEFLIGHT_TIMEOUT``, default 300; a malformed
    value warns and falls back to the default)."""
    return env_float("REPRO_SINGLEFLIGHT_TIMEOUT", 300.0, minimum=0.0)


class _Flight:
    __slots__ = ("done", "ok", "value")

    def __init__(self):
        self.done = threading.Event()
        self.ok = False
        self.value = None


class SingleFlight:
    """Coalesce concurrent calls for the same key onto one execution.

    ``do(key, fn)``: the first caller for a key (the *leader*) runs
    ``fn``; callers that arrive while it runs (*followers*) wait at most
    :func:`singleflight_timeout` and share its value.  An exception in
    the leader — of any kind, ``KeyboardInterrupt`` included — reaches
    the leader's caller unchanged and releases the followers, which then
    go round once more: one of them leads a second flight and the others
    share *that* value.  A follower whose leader timed out, or whose
    second flight failed too, runs ``fn`` itself outside any flight, so
    whatever it raises is its own error.  A flight leaves the map when
    its leader returns, however it returns.

    The keyword arguments name the counters to bump: ``waits`` when a
    follower starts waiting, ``shared`` when it is handed the leader's
    value, ``timeouts`` / ``failures`` when it gives up on a wedged /
    failed leader.  Unnamed events are not counted."""

    def __init__(self, *, waits: Optional[str] = None,
                 shared: Optional[str] = None,
                 timeouts: Optional[str] = None,
                 failures: Optional[str] = None):
        self._waits, self._shared = waits, shared
        self._timeouts, self._failures = timeouts, failures
        self._flights: Dict[str, _Flight] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def do(self, key: str, fn: Callable[[], object]) -> Tuple[object, bool]:
        """``(value, shared)`` — ``shared`` is true when the value is a
        leader's rather than this caller's own ``fn()``."""
        for _flight_joined in range(2):
            with self._lock:
                flight = self._flights.get(key)
                leading = flight is None
                if leading:
                    flight = self._flights[key] = _Flight()
            if leading:
                try:
                    flight.value = fn()
                    flight.ok = True
                    return flight.value, False
                finally:
                    with self._lock:
                        del self._flights[key]
                    flight.done.set()
            _count(self._waits)
            if not flight.done.wait(singleflight_timeout()):
                _count(self._timeouts)
                break
            if flight.ok:
                _count(self._shared)
                return flight.value, True
            _count(self._failures)
        return fn(), False


def _count(name: Optional[str]) -> None:
    if name is not None:
        INSTR.count(name)


_TMP_PREFIX = "repro-tmp-"


class AtomicPath:
    """A fresh temp path ``path`` next to ``final`` that outlives one
    call: :meth:`publish` renames it over ``final`` (atomic on POSIX: a
    reader sees the old file or the new one, never a partial one),
    :meth:`discard` unlinks it.  :func:`atomic_path` is the context
    manager over it; the native backend holds one from a ``cc`` start to
    its reap.  The directory must exist."""

    def __init__(self, final: str):
        fd, self.path = tempfile.mkstemp(dir=os.path.dirname(final) or ".",
                                         prefix=_TMP_PREFIX, suffix=".tmp")
        os.close(fd)
        self.final = final

    def publish(self) -> None:
        os.replace(self.path, self.final)

    def discard(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


@contextmanager
def atomic_path(final: str) -> Iterator[str]:
    """Yield an :class:`AtomicPath`'s temp path; publish it on a clean
    exit, discard it on an exception and leave ``final`` as it was."""
    tmp = AtomicPath(final)
    try:
        yield tmp.path
        tmp.publish()
    except BaseException:
        tmp.discard()
        raise


#: what a file on disk may legitimately fail with when read back: it was
#: truncated, written by another version, or is not ours at all
_LOAD_ERRORS = (OSError, ValueError, EOFError, AttributeError, ImportError,
                IndexError, pickle.PickleError)
#: pickle refuses a class defined inside a function with AttributeError
_SAVE_ERRORS = (OSError, ValueError, TypeError, AttributeError,
                pickle.PickleError)

#: names this module (or the artifact writer sharing the directory) gives
#: files: ``<sha256 hex>.<suffix>`` and :func:`atomic_path` temporaries
_OURS = re.compile(r"^(?:[0-9a-f]{64}|" + re.escape(_TMP_PREFIX) + r"\w+)\.")
_SHARD = re.compile(r"^[0-9a-f]{2}$")


class Store(LRU):
    """An :class:`LRU` with an optional best-effort disk layer.

    Keys are hex digests.  One file per key, ``directory()/name(key)+
    suffix`` (``name``, a hex digest too, defaults to the key itself),
    written by ``dump(value, binary_file)`` through :func:`atomic_path`
    and read by ``load(binary_file)``, which returns ``None`` for content
    it does not recognise.  Best-effort in both directions: an unreadable
    or corrupt file is a miss, a failed write counts ``save_errors`` and
    leaves the value memory-only.  ``directory`` is a function because the
    cache directory is an environment setting read at use.

    ``owns`` lists the suffixes of every file kept under the directory on
    this store's behalf (entries, temporaries, and anything a cooperating
    writer puts in its two-hex-digit shard subdirectories); ``clear(disk=
    True)`` removes those and nothing else."""

    def __init__(self, capacity: int, *, directory: Callable[[], str],
                 suffix: str, dump: Callable, load: Callable,
                 save_errors: str, owns: Tuple[str, ...] = (),
                 name: Callable[[str], str] = str):
        super().__init__(capacity)
        self.directory = directory
        self.suffix = suffix
        self._name = name
        self._dump, self._load = dump, load
        self._save_errors = save_errors
        self._owns = (suffix, ".tmp") + tuple(owns)

    def lookup(self, key: str, disk: bool) -> Tuple[Optional[object], str]:
        """``(value or None, layer)``: memory first, then — when ``disk``
        — the file, promoted into memory on a hit."""
        value = self.get(key)
        if value is not None or not disk:
            return value, "memory"
        try:
            with open(self._file(key), "rb") as f:
                value = self._load(f)
        except _LOAD_ERRORS:
            return None, "disk"
        if value is not None:
            self.put(key, value)
        return value, "disk"

    def store(self, key: str, value, disk: bool) -> None:
        self.put(key, value)
        if disk:
            self.disk_put(key, value)

    def disk_put(self, key: str, value) -> None:
        try:
            os.makedirs(self.directory(), exist_ok=True)
            with atomic_path(self._file(key)) as tmp, open(tmp, "wb") as f:
                self._dump(value, f)
        except _SAVE_ERRORS:
            INSTR.count(self._save_errors)

    def _file(self, key: str) -> str:
        return os.path.join(self.directory(), self._name(key) + self.suffix)

    def clear(self, disk: bool = False) -> None:
        super().clear()
        if not disk:
            return
        root = self.directory()
        shards = [os.path.join(root, n) for n in _listdir(root)
                  if _SHARD.match(n)]
        for d in [root] + shards:
            for name in _listdir(d):
                if _OURS.match(name) and name.endswith(self._owns):
                    try:
                        os.unlink(os.path.join(d, name))
                    except OSError:
                        pass


def _listdir(d: str) -> List[str]:
    try:
        return os.listdir(d)
    except OSError:                     # missing, or not a directory
        return []
