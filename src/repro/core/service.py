"""Concurrent compilation service: batch fan-out with failure isolation.

:func:`compile_many` drives N :func:`repro.core.compiler.compile_kernel`
calls through a thread-pool and returns a :class:`BatchResult` of
per-item :class:`CompileOutcome` objects — a kernel on success, the
exception on failure — instead of raising on the first bad item.  One
malformed program or impossible binding must not abort a batch serving
many independent clients.

The underlying pipeline is safe to drive concurrently: the compilation
LRU and the FM/pair memos are locked (:mod:`repro.core.cache`,
:mod:`repro.polyhedra.fm`), identical native units share one toolchain
invocation (:mod:`repro.core.backend` keeps one object per unit), and the
``instrument`` registry accumulates per thread.  ``compile_many`` is
therefore a thin, deterministic driver: results come back in input
order, and a batch compiled with ``max_workers=1`` is byte-identical to
the same batch compiled with 16 workers.

Each item's toolchain run overlaps the searches after it: as soon as an
item's C unit is lowered, its ``cc`` starts as a child process of the
worker's thread (:mod:`repro.core.backend`, "Pipelining") and the worker
goes on to the next item; the batch joins every build — reap, publish,
``dlopen`` — before it returns.  With ``max_workers=1`` the searches run
one after another on the calling thread while up to
``os.cpu_count() + 1`` compilers run beside them.

Counters: ``service.batches``, ``service.items``, ``service.items.ok``,
``service.items.error``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.compiler import CompiledKernel, compile_kernel
from repro.formats.base import SparseFormat
from repro.instrument import INSTR
from repro.ir.program import Program
from repro.util.env import env_int

Bindings = Mapping[str, SparseFormat]


class BatchItemError(Exception):
    """Batch context attached to a re-raised per-item failure on
    interpreters without ``BaseException.add_note`` (pre-3.11)."""


@dataclass
class CompileOutcome:
    """One item of a batch: either ``kernel`` (success) or ``error``."""

    index: int
    program: Program
    kernel: Optional[CompiledKernel]
    error: Optional[BaseException]
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self):
        status = "ok" if self.ok else f"error={type(self.error).__name__}"
        return (f"<CompileOutcome #{self.index} {self.program.name} "
                f"{status} {self.seconds * 1e3:.1f}ms>")


class BatchResult:
    """Ordered outcomes of one :func:`compile_many` batch.

    Iterable and indexable like a list of :class:`CompileOutcome`;
    ``kernels`` gives the per-item kernels (None where that item failed)
    and ``errors`` maps failed indexes to their exceptions."""

    def __init__(self, outcomes: Sequence[CompileOutcome]):
        self.outcomes = list(outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, i):
        return self.outcomes[i]

    @property
    def kernels(self) -> List[Optional[CompiledKernel]]:
        return [o.kernel for o in self.outcomes]

    @property
    def errors(self) -> Dict[int, BaseException]:
        return {o.index: o.error for o in self.outcomes if not o.ok}

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def raise_first(self) -> None:
        """Re-raise the first per-item failure (no-op on a clean batch) —
        for callers that do want fail-fast semantics after the fact.

        The re-raised exception keeps its original traceback and gains
        batch context naming the failing item — an exception note on
        Python 3.11+, an explicit ``__cause__`` (``raise ... from``) on
        older interpreters — so "which of the 40 programs was it?" is
        answered by the traceback itself."""
        for o in self.outcomes:
            if not o.ok:
                err = o.error
                note = (f"compile_many item #{o.index} "
                        f"(program {o.program.name!r})")
                if hasattr(err, "add_note"):
                    # idempotent: raise_first may run more than once on
                    # the same stored exception
                    if note not in getattr(err, "__notes__", ()):
                        err.add_note(note)
                    raise err
                raise err from BatchItemError(note)  # pragma: no cover - py<3.11

    def __repr__(self):
        bad = len(self.errors)
        return (f"<BatchResult {len(self.outcomes)} items, "
                f"{len(self.outcomes) - bad} ok, {bad} failed>")


def _broadcast(value, n: int, what: str) -> List:
    """A per-item list from either one shared value or a sequence of n."""
    if value is None or isinstance(value, Mapping):
        return [value] * n
    items = list(value)
    if len(items) != n:
        raise ValueError(
            f"{what} must be one mapping or a sequence of {n}, "
            f"got {len(items)} entries")
    return items


def compile_many(
    programs: Sequence[Program],
    bindings: Union[Bindings, Sequence[Bindings]],
    *,
    max_workers: Optional[int] = None,
    param_values: Union[None, Mapping[str, int],
                        Sequence[Optional[Mapping[str, int]]]] = None,
    entry_points: Union[None, Mapping, Sequence[Optional[Mapping]]] = None,
    **compile_kwargs,
) -> BatchResult:
    """Compile every program in the batch, fanning out over worker threads.

    ``bindings`` (and ``param_values``, ``entry_points``) may be a single
    mapping shared by every program or a sequence zipped with
    ``programs``.  A shared ``bindings`` mapping may cover a heterogeneous
    batch: each program sees only the entries naming its own declared
    arrays (per-item sequences stay strict — unknown names are that
    item's error).  All other keyword arguments are forwarded verbatim to
    ``compile_kernel`` (``pick``, ``cache``, ``backend``, ``parallel``,
    ...).

    ``max_workers`` defaults to ``REPRO_COMPILE_WORKERS`` or the CPU
    count, capped by the batch size; ``max_workers=1`` searches serially
    on the calling thread (bitwise-identical results, useful as a
    determinism oracle).  Every item's ``cc`` runs as a child process
    beside the searches of the items after it (at most ``os.cpu_count()
    + 1`` at once); the batch joins them all on the calling thread before
    it returns, so each kernel is bound or carries its fallback — and a
    fallback's warning is issued here.

    Never raises for a bad item: each failure is captured in its
    :class:`CompileOutcome` (``service.items.error``) and the remaining
    items still compile.
    """
    progs = list(programs)
    n = len(progs)
    binds = _broadcast(bindings, n, "bindings")
    if isinstance(bindings, Mapping):
        binds = [{k: v for k, v in b.items() if k in p.arrays}
                 for p, b in zip(progs, binds)]
    pvals = _broadcast(param_values, n, "param_values")
    extras = _broadcast(entry_points, n, "entry_points")
    if max_workers is None:
        max_workers = env_int("REPRO_COMPILE_WORKERS", 0, minimum=0) \
            or (os.cpu_count() or 1)
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    max_workers = min(max_workers, max(n, 1))

    INSTR.count("service.batches")
    INSTR.count("service.items", n)
    bind = compile_kwargs.pop("bind", True)

    def one(i: int) -> CompileOutcome:
        t0 = time.perf_counter()
        try:
            kernel = compile_kernel(progs[i], binds[i],
                                    param_values=pvals[i],
                                    entry_points=extras[i], bind=False,
                                    **compile_kwargs)
        except Exception as e:
            INSTR.count("service.items.error")
            return CompileOutcome(i, progs[i], None, e,
                                  time.perf_counter() - t0)
        if bind:
            kernel.start_native()
        INSTR.count("service.items.ok")
        return CompileOutcome(i, progs[i], kernel, None,
                              time.perf_counter() - t0)

    if max_workers == 1 or n <= 1:
        outcomes = [one(i) for i in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=max_workers,
                                thread_name_prefix="repro-compile") as pool:
            outcomes = list(pool.map(one, range(n)))
    if bind:
        # every build was started above; joining here, on the calling
        # thread, is where a fallback warns
        for o in outcomes:
            if o.kernel is not None:
                t0 = time.perf_counter()
                o.kernel.native()
                o.seconds += time.perf_counter() - t0
    return BatchResult(outcomes)
