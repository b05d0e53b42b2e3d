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
digest of (C source, flags, compiler identity), and, when the compilation
cache runs in ``disk`` mode, persisted under the same cache directory
with atomic writes (:func:`repro.util.store.atomic_path`).  On-disk
artifacts are sharded by digest prefix (``cache_dir/ab/abcd....so``) so a
fleet-shared ``REPRO_CACHE_DIR`` never degrades into one huge flat
directory.  A missing or unloadable artifact is a miss: the kernel is
recompiled.  The digest subsumes the structural signature — the
structural key determines the kernel's loop IR up to the dtypes of the
bound storage arrays, and the IR determines the C source.

**Single-flight** — when N threads request the same digest concurrently,
exactly one (the *leader*) invokes the C toolchain; the rest wait on its
flight (:class:`repro.util.store.SingleFlight`) and share the loaded
function (``native.so_cache.hits.coalesced``).  A follower whose wait
times out (``REPRO_SINGLEFLIGHT_TIMEOUT``, default 300 s — a wedged
leader) or whose leader *failed* compiles itself rather than hang or give
up, so one transient toolchain hiccup doesn't fail a whole batch.  Across
processes the same guarantee
comes from an ``flock`` on ``<digest>.so.lock``: the winner compiles,
losers block on the lock and then find the finished artifact.  Lock
files are unlinked by their holder on release (with an inode liveness
re-check on acquire), so a long-lived shared cache directory doesn't
accumulate them.

**Fallback** — any failure (no toolchain, lowering limitation, compile
error, load error) emits a :class:`NativeBackendWarning`, bumps an
``INSTR`` counter, and falls back to the Python kernel; it never raises.

Phase timers: ``c_lower`` (loop IR to C), ``cc_compile`` (the cc
invocation), ``native_dispatch`` (argument marshalling + the native
call).  ``REPRO_TRACE=1`` renders them on exit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.util.env import env_flags
from repro.util.store import SingleFlight, atomic_path

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
    """Forget the memoized compiler/OpenMP probe results and the loaded
    ``.so`` cache (test hook).  ``scratch=True`` additionally abandons the
    process scratch directory so subsequent compiles re-invoke the
    toolchain instead of reusing on-disk scratch artifacts."""
    with _TOOLCHAIN_LOCK:
        _toolchain.clear()
    with _SO_LOCK:
        _SO_CACHE.clear()
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
# Shared-object compilation + artifact cache
# ---------------------------------------------------------------------------

#: digest -> loaded shared object (process-wide); guarded by _SO_LOCK.
#: Functions are resolved from it by name, so one unit can carry many.
_SO_CACHE: Dict[str, ctypes.CDLL] = {}
_SO_LOCK = threading.RLock()

_work_dir: List[str] = []


def _scratch_dir() -> str:
    with _SO_LOCK:
        if not _work_dir:
            _work_dir.append(tempfile.mkdtemp(prefix="repro-native-"))
        return _work_dir[0]


#: in-process single-flight: one toolchain invocation per digest at a time
_FLIGHT = SingleFlight(waits="native.singleflight.waits",
                       shared="native.so_cache.hits.coalesced",
                       timeouts="native.singleflight.wait_timeouts",
                       failures="native.singleflight.leader_failures")


@contextmanager
def _artifact_lock(out_path: str):
    """Cross-process guard for one on-disk artifact: an exclusive flock on
    ``out_path + '.lock'``.  Processes that cannot take the lock (no fcntl,
    unwritable directory) fall through unguarded — the write is still
    atomic, the guard only prevents the duplicated toolchain work.

    The lock file is unlinked by its holder *before* releasing the flock,
    so a shared cache directory never accumulates stale ``.lock`` files.
    Unlink-then-release is only safe with a liveness re-check on acquire:
    a process may flock an inode that the previous holder has since
    unlinked (a fresh file — and a fresh lock — could already exist under
    the same name), so after taking the flock we verify the fd still
    names the on-disk path and retry on a fresh open if not."""
    if fcntl is None:
        yield
        return
    lock_path = out_path + ".lock"
    f = None
    try:
        while True:
            try:
                f = open(lock_path, "a+b")
                fcntl.flock(f.fileno(), fcntl.LOCK_EX)
            except OSError:
                if f is not None:
                    f.close()
                    f = None
                yield
                return
            try:
                live = os.fstat(f.fileno()).st_ino == os.stat(lock_path).st_ino
            except OSError:
                live = False            # path unlinked: stale inode
            if live:
                break
            f.close()
            f = None
        try:
            yield
        finally:
            # still holding the exclusive lock on the live inode: no other
            # process can be inside the critical section, and any process
            # that already opened this inode will fail its liveness check
            try:
                os.unlink(lock_path)
            except OSError:
                pass
            try:
                fcntl.flock(f.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
    finally:
        if f is not None:
            f.close()


def artifact_key(c_source: str, flags: Tuple[str, ...], cc: str) -> str:
    blob = "\x1e".join([c_source, repr(flags), compiler_identity(cc)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _disk_so_path(digest: str) -> str:
    """Sharded on-disk artifact path: ``cache_dir/ab/abcd....so``.

    Fleet-shared cache directories hold one file per unique digest across
    every program/format/param combination ever compiled; a two-hex-char
    digest-prefix shard (256 buckets) keeps individual directories small
    on filesystems where huge flat directories degrade."""
    from repro.core.cache import COMPILE_CACHE

    return os.path.join(COMPILE_CACHE.directory(), digest[:2], digest + ".so")


def _compile_so(cc: str, c_source: str, flags: Tuple[str, ...],
                out_path: str) -> bool:
    """Compile into ``out_path`` atomically, under the cross-process
    artifact flock.  Returns True if this call invoked the toolchain,
    False if the artifact already existed once the lock was held (another
    process built it first).  ``native.compiles`` counts actual cc
    invocations, one-to-one."""
    d = os.path.dirname(out_path)
    os.makedirs(d, exist_ok=True)
    with _artifact_lock(out_path):
        if os.path.exists(out_path):
            return False
        with atomic_path(out_path) as tmp_so:
            src = tmp_so + ".c"
            try:
                with open(src, "w") as f:
                    f.write(c_source)
                with INSTR.phase("cc_compile"):
                    r = subprocess.run([cc, *flags, src, "-o", tmp_so],
                                       capture_output=True, text=True,
                                       timeout=300)
            finally:
                try:
                    os.unlink(src)
                except OSError:
                    pass
            if r.returncode != 0:
                raise RuntimeError(f"cc failed: {r.stderr.strip()[:500]}")
            INSTR.count("native.compiles")
        return True


def _load_library(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    lib.kernel          # every unit exports it: its absence is a bad artifact
    return lib


def _build_and_load(cc: str, c_source: str, flags: Tuple[str, ...],
                    digest: str, cache_mode: str):
    """Materialize the artifact for ``digest`` (disk layer first in disk
    mode, scratch dir otherwise) and load it.  Raises on compile/load
    failure."""
    if cache_mode == "disk":
        path = _disk_so_path(digest)
        if os.path.exists(path):
            try:
                lib = _load_library(path)
                INSTR.count("native.so_cache.hits.disk")
                return lib
            except (OSError, AttributeError):
                # corrupt artifact: treat as a miss and rebuild it
                INSTR.count("native.so_cache.corrupt")
                try:
                    os.unlink(path)
                except OSError:
                    pass
        try:
            built = _compile_so(cc, c_source, flags, path)
            lib = _load_library(path)
            if not built:
                # another process won the artifact flock and built it
                INSTR.count("native.so_cache.hits.disk")
            return lib
        except OSError:
            pass  # cache dir unwritable: fall through to the scratch dir
    out = os.path.join(_scratch_dir(), digest + ".so")
    if not os.path.exists(out):
        _compile_so(cc, c_source, flags, out)
    return _load_library(out)


def _cached_so(digest: str):
    with _SO_LOCK:
        lib = _SO_CACHE.get(digest)
    if lib is not None:
        INSTR.count("native.so_cache.hits.memory")
    return lib


def compile_native_function(c_source: str, want_openmp: bool,
                            cache_mode: str, symbol: str = "kernel"):
    """Compile ``c_source`` and return (ctypes function, used_openmp) for
    its exported function ``symbol``; asking the same source for another
    symbol is a memory hit on the loaded library.

    Flags are the built-ins (``_CFLAGS``), ``-fopenmp``
    when requested and supported, then any user ``REPRO_CFLAGS`` —
    appended last so they win, and part of the artifact digest so flag
    changes never serve a stale ``.so``.

    Single-flight: concurrent requests for the same digest coalesce onto
    one toolchain invocation (see module docstring).  Raises on toolchain
    absence or compile failure — callers translate that into the Python
    fallback."""
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set REPRO_CC to override)")
    use_omp = want_openmp and openmp_supported(cc)
    flags = list(_CFLAGS)
    if use_omp:
        flags.append("-fopenmp")
    flags = tuple(flags + env_flags("REPRO_CFLAGS"))
    digest = artifact_key(c_source, flags, cc)

    lib = _cached_so(digest)
    if lib is None:
        def build():
            # a leader elected just after the previous flight published
            # finds the library cached and does not load it twice
            lib = _cached_so(digest)
            if lib is None:
                lib = _build_and_load(cc, c_source, flags, digest, cache_mode)
                with _SO_LOCK:
                    _SO_CACHE[digest] = lib
            return lib

        lib, _shared = _FLIGHT.do(digest, build)
    return getattr(lib, symbol), use_omp


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


def bind_kernel(kernel, parallel: str = "none",
                cache_mode: str = "memory", entry_points=None) -> NativeKernel:
    """Lower + compile + bind one CompiledKernel.  Raises on any failure
    (the compiler API converts that into the Python fallback).
    ``entry_points`` (name -> loop IR) asks for further functions in the
    kernel's translation unit — still one toolchain invocation — bound as
    ``NativeKernel.entries``.  Every bound function knows its Python
    print, for the calls whose operands overlap."""
    from repro.codegen.native import lower_kernel
    from repro.codegen.pysource import compile_plan_to_python

    spec = lower_kernel(kernel, parallel, entry_points=entry_points)
    want_omp = parallel != "none" and spec.uses_openmp

    def bound(entry_spec, symbol, python):
        fn, used_omp = compile_native_function(
            entry_spec.c_source, want_openmp=want_omp, cache_mode=cache_mode,
            symbol=symbol)
        return NativeKernel(fn, entry_spec, used_omp, python)

    # the function, not the kernel's method: a kernel holds its bindings,
    # and a matrix may come to hold this NativeKernel as its handle
    python = kernel.callable()
    nk = bound(spec, "kernel", lambda: python)
    for name, entry_spec in spec.entries.items():
        nk.entries[name] = bound(
            entry_spec, name,
            lambda ir=entry_points[name]: compile_plan_to_python(ir)[1])
    return nk


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
