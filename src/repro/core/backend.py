"""Native execution backend: compile lowered C kernels and bind them.

This is the execution half of the C backend
(:mod:`repro.codegen.native` is the lowering half): find a system C
compiler, compile the translation unit into a shared object, and bind the
exported ``kernel`` symbol — and any further entry point the unit was
lowered with, by name — through :mod:`ctypes` with numpy-array
arguments.  ``compile_kernel(..., backend="c")`` routes every
``__call__``/``run`` through the result.

**Toolchain** — ``REPRO_CC`` names the compiler (``none`` disables the
backend outright, for testing the fallback path); otherwise ``cc``,
``gcc``, ``clang`` are probed on PATH.  OpenMP support is detected with a
one-time test unit built and loaded like a parallel kernel; when absent,
parallel-flavour kernels compile single-threaded (pragmas are simply not
activated).

**Link** — a unit links against nothing (``-nostdlib``): no ``crt*.o``
start files, no ``libgcc``, no ``libc.so.6`` symbol table to parse.  A
generated unit is a leaf that calls no library function; the only
external symbols the compiler itself introduces are ``memset``/``memcpy``
(``memmove``) for zeroing and copy loops, and those resolve at ``dlopen``
from the host process, where libc is always loaded — the way a CPython
extension module resolves ``Py*``.  Under ``-fopenmp`` gcc's link spec
still adds ``-lgomp``, so a parallel unit keeps ``NEEDED libgomp.so.1``.
The machine code does not change, only the link.  With gcc 12 on a
2-vCPU x86-64 machine, linking one ``mvm/csc`` object took 14.2 ms with
the C runtime and 3.7 ms without it (``-nostdlib -lc``: 6.6 ms, so
parsing libc is most of the cost), and a whole cold ``cc`` of a
``cold_compile`` unit fell from 35.8 to 28.0 ms (26.2 ms once the units
stopped including headers; medians over the 14 units).
The price: sanitizer runtimes are left out of the link too (gcc adds them
only without ``-nostdlib``), so a ``REPRO_CFLAGS=-fsanitize=...`` run
preloads them — ``LD_PRELOAD`` with both ``libasan.so`` and
``libubsan.so`` — or a unit fails to load on an unresolved
``__ubsan_handle_*``.

**Artifact cache** — compiled ``.so`` files are cached in-process by
digest of (C source, flags, compiler path), and, when the compilation
cache runs in ``disk`` mode, persisted under the same cache directory
with atomic writes (:class:`repro.util.store.AtomicPath`) by digest of
(C source, flags, compiler identity) — the first line of ``cc
--version``, asked only when the disk layer is used, so a cold
memory-mode request spawns ``cc`` and nothing else.  On-disk
artifacts are sharded by digest prefix (``cache_dir/ab/abcd....so``) so a
fleet-shared ``REPRO_CACHE_DIR`` never degrades into one huge flat
directory.  A missing or unloadable artifact is a miss: the kernel is
recompiled.  The digest subsumes the structural signature — the
structural key determines the kernel's loop IR up to the dtypes of the
bound storage arrays, and the IR determines the C source.

**One table per unit** — in process, a unit is one object in one map,
keyed by digest of (C source, flags, compiler path): it goes from
started (its ``cc`` process, temp file and cross-process guard) to
published, and then to loaded, and functions are resolved from its
library by name.  When N threads request one unit, one ``cc`` runs; the
first join to take the unit reaps, publishes and loads it, and the rest
wait for the unit (``native.singleflight.waits``) and share the library
(``native.so_cache.hits.coalesced``).  A build that failed stays on its
unit, and the next join builds it afresh
(``native.singleflight.leader_failures``), so a thread that waited on a
failed build retries it once and one transient toolchain hiccup doesn't
fail a whole batch.  No join waits longer than the ``cc`` it waits for,
and a ``cc`` that runs past ``_CC_TIMEOUT`` (300 s) is killed and
counts as failed.  Across
processes the same guarantee, for an artifact in the cache directory,
comes from an ``flock`` on ``<digest>.so.lock``, held from the ``cc``
start to the artifact's publication: the winner compiles, losers wait
for the lock (a start that finds it taken starts nothing; its join
waits) and then find the finished artifact.  A process waiting for a
lock publishes its own started artifacts between tries, so two
processes that start the same units in different orders never wait on
each other; after ``REPRO_SINGLEFLIGHT_TIMEOUT`` it builds unguarded.
Lock files are unlinked by their holder on release (with an inode
liveness re-check on acquire), so a long-lived shared cache directory
doesn't accumulate them.

**Pipelining** — a kernel's ``cc`` runs as a child process of the
thread that searched for it, beside that thread's next search.
:func:`start_bind` lowers the unit on the calling thread — its C text is
then fixed — writes the source and starts ``cc`` with
:class:`subprocess.Popen` on the same thread; it returns the join.  From
then on ``cc`` runs outside the interpreter: nothing has to take the
interpreter lock to start it or to notice that it ended.  The caller goes
on working (``CompiledKernel.start_native`` emits the Python print;
:func:`repro.core.service.compile_many` searches the next item on the
same thread) and joins later, through :func:`compile_native_function`:
the join reaps the process, publishes the ``.so``, loads and binds it,
and re-raises a build failure on the joining thread, which is where the
fallback below warns.
A lone compile joins straight away; either way the bytes are those of a
serial build.  Same-digest starts share one process.  At most
``os.cpu_count() + 1`` toolchain processes are alive at once: a start
that would pass the bound first reaps the oldest
(``native.toolchain.bound_waits``), so on two CPUs a three-op
``SolverContext`` runs its three ``cc`` at once.  A join dropped uncalled
stops its process (SIGTERM to its process group) and leaves no temp
file; a forked child never waits for, nor stops, its parent's processes
(in the scratch directory they share, the later publishing rename
replaces the earlier one's identical file, and an artifact whose cache
lock the parent held at the fork is built unguarded).  At exit a process
removes the scratch directories it made (a loaded library stays mapped
once its file is gone), never one it inherited through a fork.

**Fallback** — any failure (no toolchain, lowering limitation, compile
error, load error) emits a :class:`NativeBackendWarning`, bumps an
``INSTR`` counter, and falls back to the Python kernel; it never raises.

Phase timers: ``c_lower`` (loop IR to C), ``cc_compile`` (a thread's
wait for a toolchain process: the join's for its own, or a start's for
the oldest when the bound bites — what the caller paid, not how long
``cc`` ran), ``native_dispatch`` (argument marshalling + the native
call).  ``REPRO_TRACE=1`` renders them on exit.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import warnings
import weakref
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.util.env import env_flags
from repro.util.store import AtomicPath, singleflight_timeout

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: built-in compile flags.  ``-ffp-contract=off``: no FMA contraction, so
#: results stay byte-identical to the Python backend; ``-nostdlib``: a unit
#: links no C runtime (see "Link" above)
_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c11", "-ffp-contract=off",
           "-nostdlib"]


class NativeBackendWarning(UserWarning):
    """The C backend fell back to the Python kernel."""


# ---------------------------------------------------------------------------
# Toolchain discovery (memoized per process)
# ---------------------------------------------------------------------------

_toolchain: Dict[str, object] = {}

#: serializes toolchain probes (discovery, --version, the OpenMP test
#: compile) so concurrent first-compiles run each probe exactly once
_TOOLCHAIN_LOCK = threading.RLock()


def reset_toolchain_cache(scratch: bool = False) -> None:
    """Forget the memoized compiler/OpenMP probe results and every unit
    whose build has ended, the loaded ones among them, but not a run
    under way (test hook).  ``scratch=True`` also leaves the process
    scratch directory (it is removed at exit), so later compiles
    re-invoke the toolchain instead of reusing its artifacts."""
    with _TOOLCHAIN_LOCK:
        _toolchain.clear()
    with _UNITS_LOCK:
        for key in [k for k, u in _UNITS.items() if u.outcome is not None]:
            del _UNITS[key]
        if scratch:
            _work_dir.clear()


def find_compiler() -> Optional[str]:
    """Path of the system C compiler, or None.  ``REPRO_CC`` overrides
    discovery; ``REPRO_CC=none`` disables the backend."""
    with _TOOLCHAIN_LOCK:
        if "cc" in _toolchain:
            return _toolchain["cc"]
        cc: Optional[str] = None
        env = os.environ.get("REPRO_CC", "").strip()
        if env:
            cc = None if env.lower() == "none" else shutil.which(env)
        else:
            for cand in ("cc", "gcc", "clang"):
                cc = shutil.which(cand)
                if cc:
                    break
        _toolchain["cc"] = cc
        return cc


def compiler_identity(cc: str) -> str:
    """First line of ``cc --version`` (part of the artifact-cache key)."""
    key = ("ident", cc)
    with _TOOLCHAIN_LOCK:
        if key not in _toolchain:
            try:
                out = subprocess.run([cc, "--version"], capture_output=True,
                                     text=True, timeout=30)
                _toolchain[key] = (out.stdout or out.stderr).splitlines()[0]
            except (OSError, subprocess.SubprocessError, IndexError):
                _toolchain[key] = cc
        return _toolchain[key]


def openmp_supported(cc: str) -> bool:
    """Does a unit built the way a parallel kernel is (``_CFLAGS`` +
    ``-fopenmp``) load, with the OpenMP runtime it calls resolved?  A
    toolchain whose ``-nostdlib`` drops that runtime from the link reads
    False, and parallel kernels then compile sequential."""
    key = ("omp", cc)
    with _TOOLCHAIN_LOCK:
        if key not in _toolchain:
            with tempfile.TemporaryDirectory(prefix="repro-omp-") as d:
                src = os.path.join(d, "probe.c")
                so = os.path.join(d, "probe.so")
                with open(src, "w") as f:
                    f.write("int omp_get_max_threads(void);\n"
                            "int probe(void) { return omp_get_max_threads(); }\n")
                try:
                    r = subprocess.run([cc, *_CFLAGS, "-fopenmp", src, "-o", so],
                                       capture_output=True, timeout=60)
                    _toolchain[key] = (r.returncode == 0
                                       and ctypes.CDLL(so).probe() > 0)
                except (OSError, subprocess.SubprocessError):
                    _toolchain[key] = False
        return _toolchain[key]


def simd_supported(cc: str) -> bool:
    """Always False, and no toolchain run: no ``#pragma omp simd`` is
    printed and no compile is given a flag for one.  Only
    ``benchmarks/e2e/harness.run_header`` still asks (that benchmark's
    files are frozen while a change claims a gain on it); this goes with
    the benchmark-only PR that drops the ``opt`` keyword."""
    return False


# ---------------------------------------------------------------------------
# Artifacts: where a unit's shared object goes
# ---------------------------------------------------------------------------

#: the scratch directory units go to without a disk layer: made on first
#: use, and again after ``reset_toolchain_cache(scratch=True)``
_work_dir: List[str] = []


def _scratch_dir() -> str:
    with _UNITS_LOCK:
        if not _work_dir:
            _work_dir.append(tempfile.mkdtemp(prefix="repro-native-"))
            atexit.register(_remove_dir, os.getpid(), _work_dir[0])
        return _work_dir[0]


def _remove_dir(pid: int, path: str) -> None:
    # at the exit of the process that made it, not of a forked child; a
    # loaded library stays mapped once its file is unlinked
    if os.getpid() == pid:
        shutil.rmtree(path, ignore_errors=True)


class _ArtifactLock:
    """Cross-process guard for one artifact in the cache directory: an
    exclusive flock on ``out_path + '.lock'``, held from a ``cc`` start
    to the artifact's publication.  A process that cannot take the lock
    (no fcntl, unwritable directory) goes on unguarded — the write is
    still atomic, the guard only prevents the duplicated toolchain work.

    The lock file is unlinked by its holder *before* releasing the flock,
    so a shared cache directory never accumulates stale ``.lock`` files.
    Unlink-then-release is only safe with a liveness re-check on acquire:
    a process may flock an inode that the previous holder has since
    unlinked (a fresh file — and a fresh lock — could already exist under
    the same name), so after taking the flock we verify the fd still
    names the on-disk path and retry on a fresh open if not."""

    def __init__(self, out_path: str):
        self.path = out_path + ".lock"
        self.f = None

    def acquire(self) -> bool:
        """Take the lock without waiting: False only when another process
        holds it."""
        if fcntl is None:
            return True
        while True:
            try:
                f = open(self.path, "a+b")
            except OSError:
                return True
            try:
                fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as e:
                f.close()
                return not isinstance(e, BlockingIOError)
            try:
                live = os.fstat(f.fileno()).st_ino == os.stat(self.path).st_ino
            except OSError:
                live = False            # path unlinked: stale inode
            if live:
                self.f = f
                return True
            f.close()

    def release(self) -> None:
        # still holding the exclusive lock on the live inode: no other
        # process can be inside the critical section, and any process
        # that already opened this inode will fail its liveness check
        f, self.f = self.f, None
        if f is None:
            return
        _unlink(self.path)
        try:
            fcntl.flock(f.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        f.close()


def _digest(c_source: str, flags: Tuple[str, ...], compiler: str) -> str:
    blob = "\x1e".join([c_source, repr(flags), compiler])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def artifact_key(c_source: str, flags: Tuple[str, ...], cc: str) -> str:
    """The digest an artifact is stored under on disk: the compiler named
    by its identity, since a cache directory outlives the process and may
    be shared by hosts."""
    return _digest(c_source, flags, compiler_identity(cc))


def _artifact_path(cc: str, c_source: str, flags: Tuple[str, ...], key: str,
                   cache_mode: str) -> Tuple[str, Optional[_ArtifactLock]]:
    """Where a unit's ``.so`` goes, and its cross-process guard (None where
    no other process builds).  In ``disk`` mode that is the cache
    directory, under :func:`artifact_key` and sharded by its first two hex
    digits (``cache_dir/ab/abcd....so``): a fleet-shared directory holds
    one file per digest ever compiled, and 256 buckets keep each directory
    small on filesystems where huge flat ones degrade.  Otherwise — or
    when the shard cannot be made — it is the process scratch directory,
    under the in-process ``key``."""
    if cache_mode == "disk":
        from repro.core.cache import COMPILE_CACHE

        digest = artifact_key(c_source, flags, cc)
        path = os.path.join(COMPILE_CACHE.directory(), digest[:2],
                            digest + ".so")
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            return path, _ArtifactLock(path)
        except OSError:
            pass
    return os.path.join(_scratch_dir(), key + ".so"), None


# ---------------------------------------------------------------------------
# Units: one table from a unit's key to its build and its library
# ---------------------------------------------------------------------------

#: most toolchain processes alive at once: one per CPU and one more, so
#: on two CPUs a three-op SolverContext starts all its units at once
_MAX_ALIVE = (os.cpu_count() or 1) + 1

#: seconds a ``cc`` may run before it is killed and counts as failed
_CC_TIMEOUT = 300.0

#: guards _UNITS, _work_dir and every unit's ``refs``
_UNITS_LOCK = threading.Lock()
#: in-process key -> its unit, in creation order.  A unit whose build
#: failed stays: the next join builds it afresh
_UNITS: Dict[str, "_Unit"] = {}
#: in a forked child, the lock files its parent held at the fork: the
#: parent may be waiting for the child, so the child builds those
#: artifacts unguarded instead of waiting for the parent's join
_PARENT_LOCKS: set = set()


class _Unit:
    """One C translation unit: the ``cc`` process building its artifact,
    then the published artifact, then the loaded library, from which
    functions are resolved by name.  Whoever uses a unit — a start, a
    join — holds a reference (:func:`_unit_for`) and drops it
    (:meth:`release`); the last one to drop a unit whose run never ended
    stops its process.  ``lock`` serializes the start, the reap, the
    publication and the load.  An artifact in the cache directory is
    shared with other processes and has a ``guard``; a scratch artifact
    has none, since only this process and its forked children build
    there, and the publishing rename is atomic.

    ``outcome`` is None until the run ends, then True (built here), False
    (the artifact was there, or another process built it) or
    ``(exception type, message)``."""

    def __init__(self, key: str, cc: str, c_source: str,
                 flags: Tuple[str, ...], cache_mode: str):
        self.key, self.cc, self.c_source, self.flags = key, cc, c_source, flags
        self.cache_mode = cache_mode
        self.path: Optional[str] = None         # picked by the first start
        self.guard: Optional[_ArtifactLock] = None
        self.refs = 0
        self.lock = threading.Lock()
        self.tmp: Optional[AtomicPath] = None
        self.proc: Optional[subprocess.Popen] = None
        self.deadline = 0.0
        self.stderr: Optional[bytes] = None     # set once reaped
        self.outcome = None
        self.lib: Optional[ctypes.CDLL] = None

    @property
    def started(self) -> bool:
        return self.proc is not None or self.outcome is not None

    def start(self) -> None:
        """Start the unit, unless it is started or another thread holds
        its lock (and so is starting or joining it)."""
        if not self.started and self.lock.acquire(blocking=False):
            try:
                if not self.started:
                    self._start(block=False)
            finally:
                self.lock.release()

    def _start(self, block: bool) -> None:
        """Start ``cc`` on a temp source next to the artifact, unless the
        artifact is there (under ``lock``).  A shared artifact takes its
        guard first; without ``block`` a guard another process holds
        leaves the unit unstarted (that process builds it, and the join
        waits for the guard)."""
        if self.path is None:
            self.path, self.guard = _artifact_path(
                self.cc, self.c_source, self.flags, self.key, self.cache_mode)
        if self.guard is not None and not os.path.exists(self.path):
            if block:
                _take_guard(self.guard)
            elif not self.guard.acquire():
                return
        if os.path.exists(self.path):
            self._end(False)
            return
        try:
            self.tmp = AtomicPath(self.path)
            with open(self.tmp.path + ".c", "w") as f:
                f.write(self.c_source)
            _admit(self, [self.cc, *self.flags, self.tmp.path + ".c", "-o",
                          self.tmp.path])
        except BaseException as e:
            self._end((RuntimeError, f"cc did not start: {e!r}"))
            if not isinstance(e, OSError):
                raise

    def _reap(self, stop: bool = False) -> None:
        """Wait for the process to exit — after a SIGTERM to its process
        group when ``stop`` — and keep its stderr (under ``lock``)."""
        if self.stderr is not None:
            return
        proc = self.proc
        if stop:
            with _UNITS_LOCK:
                _signal(proc, signal.SIGTERM)
        with INSTR.phase("cc_compile"):
            try:
                _out, self.stderr = proc.communicate(
                    timeout=max(0.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                with _UNITS_LOCK:
                    _signal(proc, signal.SIGKILL)
                proc.communicate()
                self.stderr = b"timed out"
        if proc.returncode == 0:
            INSTR.count("native.compiles")

    def _end(self, outcome) -> None:
        self.outcome = outcome
        if outcome is not True and self.tmp is not None:
            _unlink(self.tmp.path + ".c")
            self.tmp.discard()
        if self.guard is not None:
            self.guard.release()

    def _settle(self) -> None:
        """Reap the process and publish the artifact, or record how the
        build failed (under ``lock``)."""
        if self.outcome is not None:
            return
        self._reap()
        if self.proc.returncode != 0:
            err = self.stderr.decode(errors="replace").strip()
            self._end((RuntimeError, f"cc failed: {err[:500]}"))
            return
        # the source goes first: once published, the temp name (and with
        # it the source's) is free for another run
        _unlink(self.tmp.path + ".c")
        try:
            self.tmp.publish()
        except OSError as e:
            self._end((OSError, str(e)))
        else:
            self._end(True)

    def load(self) -> ctypes.CDLL:
        """The library, for a caller holding a reference: loaded already
        (``native.so_cache.hits.memory``), loaded by another join while
        this one waited for the unit (``native.singleflight.waits``,
        ``native.so_cache.hits.coalesced``), or loaded here — built afresh
        when an earlier build failed (``native.singleflight.
        leader_failures``).  Raises what this join's own build failed
        with."""
        if self.lib is not None:
            INSTR.count("native.so_cache.hits.memory")
            return self.lib
        if not self.lock.acquire(blocking=False):
            INSTR.count("native.singleflight.waits")
            self.lock.acquire()
        try:
            if self.lib is not None:
                INSTR.count("native.so_cache.hits.coalesced")
                return self.lib
            if isinstance(self.outcome, tuple):
                INSTR.count("native.singleflight.leader_failures")
                with _UNITS_LOCK:       # where _admit reads ``proc``
                    self.proc = self.tmp = self.stderr = self.outcome = None
            lib = self._load()
            if self.outcome is False and self.guard is not None:
                INSTR.count("native.so_cache.hits.disk")
            with _UNITS_LOCK:           # the process is reaped: drop it
                self.lib, self.proc = lib, None
            return lib
        finally:
            self.lock.release()

    def _load(self) -> ctypes.CDLL:
        """Start the unit if no start could, reap and publish it, and load
        the library (under ``lock``).  An artifact this process did not
        build that does not load is corrupt: a miss, rebuilt once."""
        try:
            for rebuilt in (False, True):
                if not self.started:
                    self._start(block=True)
                self._settle()
                if isinstance(self.outcome, tuple):
                    kind, message = self.outcome
                    raise kind(message)
                try:
                    return _load_library(self.path)
                except (OSError, AttributeError):
                    if self.outcome is not False or rebuilt:
                        raise
                    INSTR.count("native.so_cache.corrupt")
                    _unlink(self.path)
                    self.outcome = None
        except BaseException as e:
            if self.outcome is None:        # interrupted: stop what runs
                if self.proc is not None:
                    self._reap(stop=True)
                self._end((type(e), str(e)))
            raise

    def release(self) -> None:
        """Drop one reference; the last one stops a run nobody joined."""
        with _UNITS_LOCK:
            self.refs -= 1
            if self.refs or self.outcome is not None or self.proc is None:
                return
        with self.lock:
            if self.outcome is None:
                self._reap(stop=True)
                self._end((RuntimeError, "stopped: its kernel was dropped"))


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _signal(proc: subprocess.Popen, sig: int) -> None:
    # under _UNITS_LOCK, where _admit polls: a process not reaped yet
    # still owns its pid, so the signal cannot reach a recycled one
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, sig)
        except OSError:
            pass


def _admit(unit: _Unit, argv: List[str]) -> None:
    """Start ``unit``'s process once fewer than ``_MAX_ALIVE`` are alive;
    while that many are, reap the oldest first
    (``native.toolchain.bound_waits``)."""
    while True:
        with _UNITS_LOCK:
            # _UNITS is in creation order, and a unit starts its process
            # as soon as it is made
            alive = [u for u in _UNITS.values()
                     if u.proc is not None and u.proc.poll() is None]
            if len(alive) < _MAX_ALIVE:
                # a session of its own: a stop reaches the compiler
                # driver's children too
                unit.proc = subprocess.Popen(
                    argv, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    start_new_session=True)
                unit.deadline = time.monotonic() + _CC_TIMEOUT
                return
            oldest = alive[0]
        INSTR.count("native.toolchain.bound_waits")
        with oldest.lock:
            if oldest.outcome is None:
                oldest._reap()


def _take_guard(guard: _ArtifactLock) -> None:
    """Wait until ``guard`` is this process's.  Between tries, settle
    every unit of this process that holds a guard: its flock is released
    only then, and the process holding ``guard`` may be waiting for one
    of them — two processes whose batches start the same units in
    different orders would otherwise wait on each other for ever.  After
    the single-flight timeout (a wedged holder, or one that started a
    unit and never joins it) the build goes on unguarded, and at once
    for a lock this process's parent held when it forked this one."""
    if guard.path in _PARENT_LOCKS:
        return
    deadline = time.monotonic() + singleflight_timeout()
    pause = 0.001
    while not guard.acquire() and time.monotonic() < deadline:
        with _UNITS_LOCK:
            held = [u for u in _UNITS.values()
                    if u.guard is not None and u.guard.f is not None
                    and u.proc is not None]
        for u in held:
            with u.lock:
                u._settle()         # a failure is left to its own join
        time.sleep(pause)
        pause = min(2 * pause, 0.05)


def _unit_for(c_source: str, want_openmp: bool,
              cache_mode: str) -> Tuple[_Unit, bool]:
    """The unit that builds ``c_source``, with a reference for the caller
    — the one in the table, or a new one — and whether it uses OpenMP;
    raises when there is no toolchain."""
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set REPRO_CC to override)")
    use_omp = want_openmp and openmp_supported(cc)
    flags = list(_CFLAGS)
    if use_omp:
        flags.append("-fopenmp")
    flags = tuple(flags + env_flags("REPRO_CFLAGS"))
    key = _digest(c_source, flags, cc)
    with _UNITS_LOCK:
        unit = _UNITS.get(key)
        if unit is None:
            unit = _UNITS[key] = _Unit(key, cc, c_source, flags, cache_mode)
        unit.refs += 1
    return unit, use_omp


def _forget_runs() -> None:
    # a forked child shares none of the parent's processes: it never waits
    # for them nor stops them, and builds those units itself (its run
    # renames over the parent's, or the parent's over it); the libraries
    # the parent loaded are mapped in the child too
    global _UNITS_LOCK
    _UNITS_LOCK = threading.Lock()
    for key, unit in list(_UNITS.items()):
        if unit.lib is None:
            unit.outcome = (RuntimeError, "started by the parent process")
            if unit.guard is not None and unit.guard.f is not None:
                _PARENT_LOCKS.add(unit.guard.path)
            del _UNITS[key]


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_runs)


def _load_library(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    lib.kernel          # every unit exports it: its absence is a bad artifact
    return lib


def compile_native_function(c_source: str, want_openmp: bool,
                            cache_mode: str, symbol: str = "kernel"):
    """Compile ``c_source`` and return (ctypes function, used_openmp) for
    its exported function ``symbol``; asking the same source for another
    symbol is a memory hit on the loaded library.  A run
    :func:`start_bind` began for the unit is reaped here.

    Flags are the built-ins (``_CFLAGS``), ``-fopenmp``
    when requested and supported, then any user ``REPRO_CFLAGS`` —
    appended last so they win, and part of the artifact digest so flag
    changes never serve a stale ``.so``.

    In process, the unit is keyed on the compiler's path (no ``cc
    --version``); the disk layer keys it on :func:`artifact_key`.
    Concurrent requests for one unit share one toolchain invocation (see
    "One table per unit").  Raises on toolchain absence or compile
    failure — callers translate that into the Python fallback."""
    unit, use_omp = _unit_for(c_source, want_openmp, cache_mode)
    try:
        return getattr(unit.load(), symbol), use_omp
    finally:
        unit.release()


# ---------------------------------------------------------------------------
# Bound native kernels
# ---------------------------------------------------------------------------

class NativeKernel:
    """A compiled-and-bound native kernel with the Python calling
    convention ``fn(arrays, params)``.

    Marshalling: every array argument is coerced to the compile-time
    dtype and C-contiguity (``np.ascontiguousarray`` — a no-op for
    already-conforming arrays); arrays the kernel writes are copied back
    when coercion had to copy.  Stride arguments are derived from the
    coerced array's shape.  Every argument that did not pass
    through as it was counts ``native.dispatch.coerced`` — an instance
    whose index arrays were swapped for another width after the kernel
    was bound pays a widening copy on *every* call, and this is where
    that shows.

    Aliasing: the C signature qualifies every pointer with a source of
    its own ``restrict`` (:mod:`repro.codegen.native`), so no array the
    kernel writes may overlap another argument.  Each call that is not
    already prepared checks that on the buffers it is about to hand over
    (their byte ranges: the addresses are in hand, and under a
    microsecond buys it); a call that fails counts
    ``native.dispatch.aliased``, runs the Python kernel — ``python``, a
    thunk returning it — on the operands as they were passed, and is
    never prepared.

    Prepared-argument fast path: solver loops call the same kernel with
    the same array objects thousands of times.  When a call needed no
    coercion copies and no writebacks, the marshalled ctypes argument
    vector is cached; the next call revalidates only array identity and
    scalar values (in-place mutation of a prepared array is fine — the
    cached pointer targets the same buffer) and skips the per-argument
    numpy machinery.  The cached tuple keeps the arrays alive, so an
    identity match can never be a recycled ``id``.

    ``fn`` is the argtyped ctypes function itself, for a caller that
    marshals its own argument vector (in ``spec.args`` order: scalars as
    ints, arrays as addresses); ``entries`` holds the further functions
    of the same translation unit, by name, as kernels of their own."""

    def __init__(self, fn, spec, used_openmp: bool, python=None):
        self.spec = spec
        self.used_openmp = used_openmp
        self.fn = fn
        self.entries: Dict[str, "NativeKernel"] = {}
        self._python = python
        self._prep: Optional[Tuple[tuple, tuple, tuple]] = None
        # per written array argument (by position among the arrays): the
        # arguments of another source, which it may not overlap
        arrays = [a for a in spec.args if a.kind != "scalar"]
        self._apart = [(i, [j for j, b in enumerate(arrays)
                            if b.source != a.source])
                       for i, a in enumerate(arrays) if a.written]
        argtypes = []
        for a in spec.args:
            if a.kind == "scalar":
                argtypes.append(ctypes.c_int64)
            else:
                argtypes.append(ctypes.c_void_p)
                argtypes.extend([ctypes.c_int64] * max(a.ndim - 1, 0))
        fn.argtypes = argtypes
        fn.restype = None

    @property
    def c_source(self) -> str:
        return self.spec.c_source

    def _aliased(self, addrs: List[int], buffers: List[np.ndarray]) -> bool:
        """Does the byte range of a written buffer meet another's?"""
        for i, others in self._apart:
            lo = addrs[i]
            hi = lo + buffers[i].nbytes
            for j in others:
                start = addrs[j]
                if start < hi and lo < start + buffers[j].nbytes:
                    return True
        return False

    def __call__(self, arrays: Mapping[str, object],
                 params: Mapping[str, int]) -> None:
        with INSTR.phase("native_dispatch"):
            prep = self._prep
            if prep is not None:
                objs, scalars, pcargs = prep
                oi = si = 0
                match = True
                for a in self.spec.args:
                    val = a.loader(arrays, params)
                    if a.kind == "scalar":
                        if int(val) != scalars[si]:
                            match = False
                            break
                        si += 1
                    else:
                        if val is not objs[oi]:
                            match = False
                            break
                        oi += 1
                if match:
                    INSTR.count("native.dispatch.prepared")
                    self.fn(*pcargs)
                    return
            cargs: List[object] = []
            keepalive: List[np.ndarray] = []
            writebacks: List[Tuple[np.ndarray, np.ndarray]] = []
            objs: List[object] = []
            scalars: List[int] = []
            addrs: List[int] = []
            preparable = True
            for a in self.spec.args:
                val = a.loader(arrays, params)
                if a.kind == "scalar":
                    sv = int(val)
                    scalars.append(sv)
                    cargs.append(sv)
                    continue
                arr = np.asarray(val)
                want = np.dtype(a.dtype)
                carr = np.ascontiguousarray(arr, dtype=want)
                if a.ndim == 0 and carr.ndim == 1 and carr.size == 1:
                    carr = carr.reshape(())  # ascontiguousarray promotes 0-d
                if carr.ndim != a.ndim:
                    raise ValueError(
                        f"{a.name}: expected ndim {a.ndim}, got {carr.ndim}")
                if a.written and not np.may_share_memory(carr, arr):
                    writebacks.append((arr, carr))
                if carr is not val:
                    # a dtype/layout copy (or a non-array argument): this
                    # call cannot be prepared, and neither can the next
                    INSTR.count("native.dispatch.coerced")
                    preparable = False
                objs.append(val)
                keepalive.append(carr)
                addr = carr.ctypes.data
                addrs.append(addr)
                cargs.append(addr)
                for k in range(1, a.ndim):
                    cargs.append(int(carr.shape[k]))
            if self._aliased(addrs, keepalive):
                INSTR.count("native.dispatch.aliased")
                if self._python is None:
                    raise ValueError(
                        "an array the kernel writes overlaps another "
                        "argument, and there is no Python kernel to run")
                self._python()(arrays, params)
                return
            self.fn(*cargs)
            for orig, tmp in writebacks:
                orig[...] = tmp
            if preparable and not writebacks:
                self._prep = (tuple(objs), tuple(scalars), tuple(cargs))
            del keepalive


def start_bind(kernel, parallel: str = "none",
               cache_mode: str = "memory", entry_points=None):
    """Lower one CompiledKernel to C and start its ``cc``, both on the
    calling thread (see "Pipelining").  Returns ``join``: a call that
    reaps that process through :func:`compile_native_function` and binds
    the result as a :class:`NativeKernel`, raising on the calling thread
    whatever the build raised (the compiler API converts that into the
    Python fallback); a lowering failure or a missing toolchain raises
    here.  ``entry_points``
    (name -> loop IR) asks for further functions in the kernel's
    translation unit — still one toolchain invocation — bound as
    ``NativeKernel.entries``.  Every bound function knows its Python
    print, for the calls whose operands overlap.  A ``join`` dropped
    uncalled stops its ``cc``."""
    from repro.codegen.native import lower_kernel
    from repro.codegen.pysource import compile_plan_to_python

    spec = lower_kernel(kernel, parallel, entry_points=entry_points)
    want_omp = parallel != "none" and spec.uses_openmp
    funcs = [("kernel", spec), *spec.entries.items()]
    unit, _omp = _unit_for(spec.c_source, want_omp, cache_mode)
    unit.start()
    # weakly: the kernel holds this join until it is called
    ref = weakref.ref(kernel)

    def join() -> NativeKernel:
        try:
            built = [compile_native_function(s.c_source, want_openmp=want_omp,
                                             cache_mode=cache_mode,
                                             symbol=name)
                     for name, s in funcs]
        finally:
            joined()
        # the function, not the kernel's method: a kernel holds its
        # bindings, and a matrix may come to hold this NativeKernel as
        # its handle
        python = ref().callable()
        fn, used_omp = built[0]
        nk = NativeKernel(fn, spec, used_omp, lambda: python)
        for (name, entry_spec), (fn, used_omp) in zip(funcs[1:], built[1:]):
            nk.entries[name] = NativeKernel(
                fn, entry_spec, used_omp,
                lambda ir=entry_points[name]: compile_plan_to_python(ir)[1])
        return nk

    joined = weakref.finalize(join, unit.release)
    return join


def native_fallback(reason: str, detail: str) -> None:
    """Record one backend="c" fallback: warn + count, never raise."""
    INSTR.count("native.fallbacks")
    INSTR.count(f"native.fallback.{reason}")
    warnings.warn(
        f"C backend unavailable ({reason}): {detail}; "
        "falling back to the Python kernel",
        NativeBackendWarning,
        stacklevel=3,
    )
