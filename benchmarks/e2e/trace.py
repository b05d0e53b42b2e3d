"""Benchmark-side tracing: spans around the calls into each layer.

``Tracer.install()`` wraps the public callables listed in
:data:`LAYER_ENTRYPOINTS`, in the defining module and in every module
namespace that imported them by name, so a call records a span — layer,
start, end, the span that caused it, a request id, the thread — in memory.
Nothing inside ``src/`` changes; spans inside the program are a later PR.

Fourier-Motzkin elimination is deliberately *not* wrapped (millions of
calls per search); it is reported by count from the program's counters,
and its time shows up inside the legality / dependence / plan spans that
call it.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (children on worker threads may overlap;
the union is what is subtracted).  A span that starts on a thread with no
open span — a ``compile_many`` worker — is adopted by the innermost span
of another thread that encloses it in time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter

#: (layer, module, attribute).  The layer string is the per-layer metric
#: the span's self time feeds (several entry points may share one).
LAYER_ENTRYPOINTS: List[Tuple[str, str, str]] = [
    ("formats.build_ms", "repro.formats.convert", "as_format"),
    ("formats.convert_ms", "repro.formats.convert", "convert"),
    ("core.compiler.self_ms", "repro.core.compiler", "compile_kernel"),
    ("ir.validate_ms", "repro.ir.validate", "validate_program"),
    ("core.cache.lookup_ms", "repro.core.cache", "structural_signature"),
    ("core.cache.lookup_ms", "repro.core.cache", "lookup"),
    ("core.cache.lookup_ms", "repro.core.cache", "record"),
    ("analysis.dependences_ms", "repro.analysis.dependence", "dependences"),
    ("search.driver_self_ms", "repro.search.driver", "search"),
    ("core.embedding.legality_ms", "repro.core.embedding", "analyze_order"),
    ("core.plan.build_ms", "repro.core.plan", "build_plan"),
    ("cost.model_ms", "repro.cost.model", "plan_cost"),
    ("codegen.py_emit_ms", "repro.codegen.pysource", "compile_plan_to_python"),
    ("codegen.c_lower_ms", "repro.codegen.native", "lower_kernel"),
    ("core.backend.cc_load_ms", "repro.core.backend", "compile_native_function"),
    ("core.backend.bind_ms", "repro.core.backend", "NativeKernel.__init__"),
    ("core.backend.first_call_ms", "repro.core.backend", "NativeKernel.__call__"),
    ("search.features_ms", "repro.search.features", "extract_features"),
    ("search.format_select.model_ms", "repro.search.format_select", "select_format"),
    ("solvers.context", "repro.solvers.context", "SolverContext.__init__"),
    ("solvers.iterate", "repro.solvers.cg", "cg"),
    ("solvers.iterate", "repro.solvers.bicgstab", "bicgstab"),
    ("solvers.iterate", "repro.solvers.block_cg", "block_cg"),
    ("core.wire.send_us", "repro.core.wire", "send_frame"),
    ("core.wire.recv_us", "repro.core.wire", "recv_frame"),
    ("core.wire.encode", "repro.core.wire", "encode_format"),
]

#: modules that must be loaded before patching, so that their
#: ``from x import f`` bindings exist and can be rebound
_PRELOAD = ("repro", "repro.core.client", "repro.core.wire", "repro.solvers",
            "repro.blas.api", "repro.search.format_select",
            "repro.search.features", "repro.search.autotune",
            "repro.core.service")

# span record layout (a list, for speed)
LAYER, START, END, PARENT, REQUEST, THREAD = range(6)


class Tracer:
    def __init__(self, entrypoints=None):
        self.entrypoints = list(LAYER_ENTRYPOINTS if entrypoints is None
                                else entrypoints)
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _open(self, layer: str, request: Optional[str]) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        rec = [layer, 0.0, 0.0, parent, request, threading.get_ident()]
        stack.append(rec)
        self.spans.append(rec)
        rec[START] = _now()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = _now()
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, request: Optional[str] = None):
        """A span recorded by the benchmark itself (request roots)."""
        rec = self._open(layer, request)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(layer, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing.clear()
        for name in _PRELOAD:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        for layer, modname, attr in self.entrypoints:
            try:
                self._patch(layer, modname, attr)
            except (ImportError, AttributeError, KeyError) as e:
                # a later PR may rename an entry point: the layer's metric
                # then reads null, with this warning — never a crash
                self.missing.append(f"{modname}.{attr}")
                warnings.warn(f"trace: entry point {modname}.{attr} not "
                              f"found ({type(e).__name__}); layer {layer} "
                              "will have no spans", RuntimeWarning)
        return self

    def _patch(self, layer: str, modname: str, attr: str) -> None:
        mod = importlib.import_module(modname)
        owner = mod
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = vars(owner)[name]
        wrapped = self._wrap(layer, orig)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, orig))
        if owner is not mod:
            return
        # the same function bound by name elsewhere (from x import f)
        for other in list(sys.modules.values()):
            ns = getattr(other, "__dict__", None)
            if other is mod or ns is None or ns.get(name) is not orig:
                continue
            setattr(other, name, wrapped)
            self._undo.append((other, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def covered_layers(self) -> set:
        """Layers whose entry points were all found."""
        bad = {layer for layer, m, a in self.entrypoints
               if f"{m}.{a}" in self.missing}
        return {layer for layer, _m, _a in self.entrypoints} - bad

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        adopt_orphans(self.spans)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [{"id": i, "layer": s[LAYER], "start": s[START],
                 "end": s[END], "request": s[REQUEST], "thread": s[THREAD],
                 "parent": ids.get(id(s[PARENT])) if s[PARENT] else None}
                for i, s in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"missing": self.missing, "spans": rows}, f)


# ---------------------------------------------------------------------------
# Span arithmetic (pure functions over span lists; the self-test drives
# these with a synthetic tree)
# ---------------------------------------------------------------------------

def adopt_orphans(spans: List[list], roots: Iterable[str] = ("request",)) -> int:
    """Give every parentless span that is not a request root the innermost
    span of *another* thread that encloses it in time as its parent, and
    that span's request id.  Returns how many were adopted."""
    roots = set(roots)
    # a thread that opens request roots owns its parentless spans; only
    # threads that never do (worker pools) have orphans to adopt
    owners = {s[THREAD] for s in spans if s[LAYER] in roots}
    adopted = 0
    # sweep in start order, keeping per thread the stack of spans still
    # open (spans of one thread nest, so a stack suffices): the enclosing
    # candidates for an orphan are then a few stack entries, not all spans
    open_by_thread: Dict[int, List[list]] = defaultdict(list)
    for s in sorted(spans, key=lambda r: (r[START], -r[END])):
        for stack in open_by_thread.values():
            while stack and stack[-1][END] < s[START]:
                stack.pop()
        if s[PARENT] is None and s[THREAD] not in owners:
            best = None
            for thread, stack in open_by_thread.items():
                if thread == s[THREAD]:
                    continue
                for p in reversed(stack):
                    if p[END] >= s[END]:
                        if best is None or p[START] > best[START]:
                            best = p
                        break
            if best is not None:
                s[PARENT] = best
                adopted += 1
        open_by_thread[s[THREAD]].append(s)
    # request ids flow down from adoptive parents to whole subtrees
    for s in spans:
        if s[REQUEST] is None:
            p = s[PARENT]
            while p is not None and p[REQUEST] is None:
                p = p[PARENT]
            if p is not None:
                s[REQUEST] = p[REQUEST]
    return adopted


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: List[list]) -> List[float]:
    """Per span: duration minus the part its children cover."""
    kids: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        p = s[PARENT]
        if p is not None:
            kids[id(p)].append((max(s[START], p[START]), min(s[END], p[END])))
    return [(s[END] - s[START]) - _union_length(kids.get(id(s), []))
            for s in spans]


def by_request(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """``{request id: {layer: summed self seconds}}`` (spans without a
    request id are left out)."""
    adopt_orphans(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        if s[REQUEST] is not None:
            out[s[REQUEST]][s[LAYER]] += own
    return out


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(run, tracer: Tracer) -> None:
    """Emit what the spans of a traced run say about the layers: p50 self
    time per cold request of every pipeline layer, the share of a cold
    request the named layers account for, and the wire's per-frame cost.
    A layer whose entry point was not found is not emitted, which the
    result object turns into null."""
    from statistics import median

    from e2e.metrics import COLD_LAYERS

    spans = tracer.spans
    run.emit("trace.missing_entrypoints", len(tracer.missing))

    cold = {rid: own for rid, own in by_request(spans).items()
            if rid.startswith("cold:")}
    if cold:
        for layer in set(COLD_LAYERS) & tracer.covered_layers():
            xs = [own.get(layer, 0.0) for own in cold.values()]
            run.emit(layer, median(xs) * 1e3, len(xs))
        shares = [1.0 - own.get("request", 0.0) / sum(own.values())
                  for own in cold.values()]
        run.emit("trace.attributed_share", median(shares), len(shares))
    own = self_times(spans)
    for layer in ("core.wire.send_us", "core.wire.recv_us"):
        xs = [t for s, t in zip(spans, own) if s[LAYER] == layer]
        if xs and layer in tracer.covered_layers():
            run.emit(layer, median(xs) * 1e6, len(xs))
