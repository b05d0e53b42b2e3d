"""Measurement plumbing shared by the four workloads: the run context
(cold state, failure tally, metrics), the like-for-like reference that
cold requests are scaled by, counter proofs, kernel operands with their
oracle answers, interleaved timing and the estimators, and the run
header.  Nothing here knows about a particular workload."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import find_compiler, reset_toolchain_cache
from repro.core.cache import clear_compile_cache
from repro.core.compiler import infer_param_values
from repro.core.embedding import clear_pair_memo
from repro.instrument import INSTR
from repro.ir import kernels
from repro.polyhedra.fm import clear_memos
from repro.search.autotune import clear_winner_cache

from e2e import matrices, reference

now = time.perf_counter


# ---------------------------------------------------------------------------
# Run context: what a workload receives, and where it reports
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed.  A wrong answer, an exception, a
    refused request, a failed counter proof or an unexpected fallback all
    land here; the first few reasons are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()   # serve tallies from two threads

    def op(self, ok: bool, why: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(why)
        return ok

    @contextmanager
    def guarded(self, what: str):
        """Count an exception inside the block as one failed operation
        instead of letting it abort the run."""
        try:
            yield
        except Exception as e:  # noqa: BLE001 - any failure is a failed op
            self.op(False, f"{what}: {type(e).__name__}: {e}")


class Run:
    """One workload execution: configuration in, metrics out."""

    def __init__(self, smoke: bool, seed: int, seconds: float, tracer=None):
        self.smoke = smoke
        self.sizes = matrices.SMOKE if smoke else matrices.SIZES
        self.seed = seed
        self.seconds = seconds
        self.setup_repeats = 1 if smoke or tracer is not None else 3
        self.tracer = tracer
        self.extras = tracer is not None    # trace-only layer measurements
        self.tally = Tally()
        self.metrics: Dict[str, Tuple[float, int]] = {}   # name -> (value, n)
        self.notes: List[str] = []
        self.reference = Reference()
        self.scales: List[float] = []   # factor applied to each cold sample
        self._not_setup = 0.0
        self._dirs = 0

    def emit(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = (float(value), int(n))

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def span(self, name: str, request: Optional[str] = None):
        """A benchmark-side span (request roots, phases); no-op untraced."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    def fresh_dir(self, prefix: str) -> str:
        """A path under the run's temporary directory, never used before."""
        self._dirs += 1
        return os.path.join(tempfile.gettempdir(), f"{prefix}-{self._dirs}")

    def cold_state(self) -> None:
        """Nothing cached: the five public reset hooks plus a fresh, empty
        ``REPRO_CACHE_DIR`` (so a disk layer cannot serve the request)."""
        clear_compile_cache()
        clear_memos()
        clear_pair_memo()
        reset_toolchain_cache(scratch=True)
        clear_winner_cache()
        os.environ["REPRO_CACHE_DIR"] = self.fresh_dir("cache")

    @contextmanager
    def not_setup(self):
        """A measurement that has to happen in the middle of a set-up
        repetition (a warm request right after its cold one): its time is
        taken out of that repetition's."""
        t0 = now()
        try:
            yield
        finally:
            self._not_setup += now() - t0

    def timed_setup(self, setup: Callable[[], object]) -> Tuple[float, object]:
        """Time one set-up repetition: the reference builds made inside it
        and ``not_setup`` blocks are not set-up work and are subtracted,
        and what remains is scaled to nominal machine speed by the builds'
        median (set-up is cold requests, the work the reference resembles)."""
        first, skipped = len(self.reference.builds), self._not_setup
        seconds, out = timed(setup)
        builds = self.reference.builds[first:]
        seconds -= sum(builds) + (self._not_setup - skipped)
        if builds:
            seconds *= self.reference.NOMINAL_S / statistics.median(builds)
        return seconds, out

    def trace_overhead(self, workload: str, op: Callable[[], float],
                       pairs: int = 8) -> None:
        """(traced - untraced) / untraced of one representative operation:
        ``op`` (which returns its own seconds) runs alternately with the
        wrappers removed and installed, and the back-to-back pairs are
        compared — two whole passes a minute apart would measure the
        machine's mood instead."""
        off, on = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # missing entry points: once
            for _ in range(pairs):
                self.tracer.uninstall()
                off.append(op())
                self.tracer.install()
                on.append(op())
        self.emit(f"trace_overhead_frac.{workload}",
                  paired_ratio(on, off) - 1.0, pairs)

    def cold_sample(self, request: Callable[[], Tuple[float, object]]):
        """Run one cold request between two reference builds and return
        (seconds at nominal machine speed, the request's other result)."""
        before = self.reference.build()
        seconds, out = request()
        scaled = self.reference.normalise(seconds, before, self.reference.build())
        self.scales.append(scaled / seconds)
        return scaled, out

    def emit_cold(self, seconds: float, n: int) -> None:
        """``cold_ms`` — milliseconds at nominal machine speed — and beside
        it ``cold_raw_ms``, the same with this run's median scale factor
        taken out again: what a stopwatch showed."""
        self.emit("cold_ms", seconds * 1e3, n)
        self.emit("cold_raw_ms", seconds * 1e3 / median(self.scales), n)


# ---------------------------------------------------------------------------
# The like-for-like reference for compile-bound requests
# ---------------------------------------------------------------------------

class Reference:
    """What hand-written work of the same kind costs, right now, on this
    machine: a small Fourier-Motzkin projection in exact rationals
    (interpreter work, like the search) followed by ``cc -O3 -fPIC -shared
    triad.c`` and loading the result (a toolchain subprocess, like the
    backend).  None of it touches ``repro``.

    This sandbox's speed changes by up to 2x for seconds to minutes at a
    time (README, "Noise"), so a raw cold-request time swings by 10-20 %
    between runs.  Timed immediately before and after each cold request,
    the reference tells how fast the machine was *then*; the request's
    time is scaled to what it would be had the reference taken
    ``NOMINAL_S``.  The scaled times repeat to ~3 % where the raw ones do
    not.  Without a compiler nothing is scaled (and nothing is native)."""

    NOMINAL_S = 0.064
    REUSE_S = 0.1       # a build this recent still describes "now"

    def __init__(self):
        self.builds: List[float] = []   # every build's seconds, in order
        self._n = 0
        self._last: Tuple[float, Optional[float]] = (-1.0, None)

    @staticmethod
    def _projection() -> int:
        rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
                 for j in range(6)] for i in range(14)]
        for var in range(4):
            pos = [r for r in rows if r[var] > 0]
            neg = [r for r in rows if r[var] < 0]
            rows = [r for r in rows if r[var] == 0]
            rows += [[a * -n[var] + b * p[var] for a, b in zip(p, n)]
                     for p in pos for n in neg]
            del rows[40:]
        return len(rows)

    def build(self) -> Optional[float]:
        """Seconds one reference takes now (the previous one if it ended
        less than ``REUSE_S`` ago); None without a compiler."""
        ended, value = self._last
        if now() - ended < self.REUSE_S:
            return value
        cc = find_compiler()
        if cc is None:
            return None
        self._n += 1
        here = os.path.dirname(os.path.abspath(__file__))
        so = os.path.join(tempfile.gettempdir(), f"reference-{self._n}.so")
        t0 = now()
        self._projection()
        subprocess.run([cc, "-O3", "-fPIC", "-shared", "-std=c11",
                        os.path.join(here, "triad.c"), "-o", so],
                       check=True, capture_output=True, timeout=120)
        ctypes.CDLL(so).triad
        dt = now() - t0
        os.unlink(so)
        self.builds.append(dt)
        self._last = (now(), dt)
        return dt

    def normalise(self, seconds: float, before: Optional[float],
                  after: Optional[float]) -> float:
        if before is None or after is None:
            return seconds
        return seconds * self.NOMINAL_S / ((before + after) / 2.0)


# ---------------------------------------------------------------------------
# Counter proofs
# ---------------------------------------------------------------------------

def counters() -> Dict[str, int]:
    return INSTR.snapshot()["counters"]


def delta(before: Dict[str, int], after: Dict[str, int], key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


def prove_cold(before: Dict[str, int], after: Dict[str, int],
               compiles: int = 1) -> Optional[str]:
    """A cold request must have searched and invoked cc; None if it did."""
    if delta(before, after, "cache.misses") < 1:
        return "cold request did not miss the compile cache"
    if delta(before, after, "native.compiles") != compiles:
        return (f"cold request ran cc "
                f"{delta(before, after, 'native.compiles')}x, not {compiles}x")
    return None


def prove_warm(before: Dict[str, int], after: Dict[str, int]) -> Optional[str]:
    """A warm request must hit the compile cache and never run cc."""
    if delta(before, after, "native.compiles") != 0:
        return "warm request invoked cc"
    if delta(before, after, "cache.misses") != 0:
        return "warm request missed the compile cache"
    if delta(before, after, "cache.hits.exact") \
            + delta(before, after, "cache.hits.rerank") < 1:
        return "warm request did not hit the compile cache"
    return None


def toolchain_present() -> bool:
    return find_compiler() is not None


def native_ok(kernel) -> Optional[str]:
    """With a toolchain present, backend="c" must run native at the
    requested tier; None if it does."""
    if not toolchain_present():
        return None
    if kernel.backend_used != "c":
        return (f"{kernel.program.name}: backend_used="
                f"{kernel.backend_used} ({kernel.fallback_reason})")
    if kernel.opt_used != kernel.opt:
        return f"{kernel.program.name}: opt {kernel.opt}->{kernel.opt_used}"
    return None


# ---------------------------------------------------------------------------
# Kernel calls with their expected results
# ---------------------------------------------------------------------------

class Call:
    """Dense operands of one kernel plus the oracle's answer, built once
    per matrix and bound to whichever format instance is under test.

    ``S`` is the scipy CSR of the matrix the kernel runs on (the lower
    triangle for ``ts_lower``).  Integer-valued operands make ``mvm``,
    ``spmm`` and ``spgemm`` exact; the triangular solve is compared to
    rtol.  ``bind`` resets the output (and the in-place operand of
    ``ts_lower``) so a stale result can never pass the check."""

    def __init__(self, kname: str, S, rng: np.random.Generator,
                 width: int = 16):
        self.kname = kname
        self.S = S
        self.program = getattr(kernels, kname)()
        self.exact = kname != "ts_lower"
        self.extra_params: Dict[str, int] = {}
        m, n = S.shape

        def ints(*shape):
            return rng.integers(-4, 5, size=shape).astype(np.float64)

        if kname == "mvm":
            x = ints(n)
            self.dense = {"x": x, "y": np.zeros(m)}
            self.out, self.want, self.initial = "y", S @ x, None
        elif kname == "spmm":
            X = ints(n, width)
            self.dense = {"X": X, "Y": np.zeros((m, width))}
            self.extra_params = {"k": width}
            self.out, self.want, self.initial = "Y", S @ X, None
        elif kname == "ts_lower":
            b0 = rng.random(n) + 0.5
            self.dense = {"b": b0.copy()}
            self.out, self.want = "b", reference.ts_lower(S, b0)
            self.initial = b0
        elif kname == "spgemm":
            self.dense = {"C": np.zeros((m, n))}
            self.extra_params = {"k": n}
            self.out, self.want, self.initial = "C", (S @ S).toarray(), None
        else:
            raise ValueError(f"no operands defined for kernel {kname!r}")

    def reset(self) -> None:
        self.dense[self.out][...] = 0.0 if self.initial is None else self.initial

    def bind(self, bindings: Dict[str, object]):
        """(arrays, params) for a call on these format instances."""
        self.reset()
        params = {k: int(v) for k, v in
                  infer_param_values(self.program, bindings).items()}
        params.update(self.extra_params)
        return {**bindings, **self.dense}, params

    def wrong(self) -> Optional[str]:
        return reference.same(self.dense[self.out], self.want, self.exact)

    def versus(self, kernel, bindings: Dict[str, object]):
        """(ours, scipy): zero-argument callables doing the same work, for
        interleaved timing."""
        arrays, params = self.bind(bindings)
        S = self.S
        if self.kname == "ts_lower":
            b0 = self.initial

            def ours():
                self.reset()
                kernel(arrays, params)

            return ours, (lambda: reference.ts_lower(S, b0))
        if self.kname == "spgemm":
            return (lambda: kernel(arrays, params)), (lambda: S @ S)
        operand = self.dense["x" if self.kname == "mvm" else "X"]
        return (lambda: kernel(arrays, params)), (lambda: S @ operand)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = now()
    out = fn()
    return now() - t0, out


def calibrate(fns: Sequence[Callable[[], object]], seconds: float,
              min_batches: int) -> List[int]:
    """Calls per batch of each variant, so that ``min_batches`` rounds of
    batches fill ``seconds``."""
    per_batch = seconds / (len(fns) * min_batches)
    calls = []
    for fn in fns:
        t = min(timed(fn)[0], timed(fn)[0])
        calls.append(max(1, int(per_batch / max(t, 1e-7))))
    return calls


def interleaved(fns: Sequence[Callable[[], object]], seconds: float,
                min_batches: int = 30, calls: Optional[List[int]] = None
                ) -> Tuple[List[List[float]], int]:
    """Time several variants in alternating batches so they share the
    machine's noise.  Returns (per variant, the list of batch means in
    seconds; calls made of the first variant).  Batch i of every variant
    ran back to back, so ``paired_ratio`` can compare them pairwise.
    ``calls`` reuses an earlier calibration."""
    if calls is None:
        calls = calibrate(fns, seconds, min_batches)
    means: List[List[float]] = [[] for _ in fns]
    deadline = now() + seconds
    while now() < deadline or len(means[-1]) < 3:
        for i, f in enumerate(fns):
            k = calls[i]
            t0 = now()
            for _ in range(k):
                f()
            means[i].append((now() - t0) / k)
    return means, len(means[0]) * calls[0]


def steady(fn: Callable[[], object], seconds: float,
           min_batches: int = 30) -> Tuple[float, int]:
    means, n = interleaved([fn], seconds, min_batches)
    return fast(means[0]), n


def median(xs: Iterable[float]) -> float:
    return statistics.median(list(xs))


def geomean(xs: Iterable[float]) -> float:
    xs = [x for x in xs]
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def fast(xs: Iterable[float]) -> float:
    """The time of an operation on an undisturbed machine: the lower
    quartile of its samples (the minimum when there are fewer than 8).

    This sandbox alternates, for seconds at a time, between a fast and a
    ~1.5x slower state (see README, "Noise"); a median lands in whichever
    state filled more of the run and swings by tens of percent between
    runs, while the fast quartile reads the same state every time."""
    xs = sorted(xs)
    return xs[0] if len(xs) < 8 else statistics.quantiles(xs, n=4)[0]


def paired_ratio(numerator: Sequence[float], denominator: Sequence[float]) -> float:
    """Median of the ratios of samples taken back to back — both sides of
    every pair saw the same machine state, so this is the steadiest
    comparison available."""
    return statistics.median(n / d for n, d in zip(numerator, denominator))


def typical(by_type: Dict[str, List[float]],
            estimator: Callable[[List[float]], float] = fast) -> Tuple[float, int]:
    """The typical request of a heterogeneous request set: the geometric
    mean over request types of each type's own estimate, so every type
    weighs the same and the noise of fourteen types averages out.
    (A pooled median sits between clusters of request types and jumps by
    20 % from run to run.)  Raw samples take ``fast``; samples already
    scaled by the reference take ``median``.  Returns (value, samples)."""
    return (geomean(estimator(v) for v in by_type.values() if v),
            sum(len(v) for v in by_type.values()))


def percentile(samples: Sequence[float], p: int) -> Optional[float]:
    """The p-th percentile, or None with fewer than ten samples beyond it
    (p99 needs 1000 samples)."""
    xs = sorted(samples)
    n = len(xs)
    if n * (100 - p) / 100.0 < 10:
        return None
    return xs[min(n - 1, int(math.ceil(n * p / 100.0)) - 1)]


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process (plus the largest waited-for child —
    the daemon — when ``children``), in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# Run header
# ---------------------------------------------------------------------------

def run_header(seed: int, smoke: bool) -> Dict[str, object]:
    """What a reader needs to interpret the numbers after the fact."""
    import scipy

    from repro.core import backend as be

    cc = be.find_compiler()
    head: Dict[str, object] = {
        "seed": seed,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cc": be.compiler_identity(cc) if cc else None,
        "openmp": be.openmp_supported(cc) if cc else False,
        "simd": be.simd_supported(cc) if cc else False,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_") or k.endswith("_NUM_THREADS")},
        "commit": _commit(),
    }
    return head


def _commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without spawning git; None in
    an exported tree."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None
