"""Top-level compiler API.

``compile_kernel`` takes a dense program (the high-level API) and a binding
of matrix names to sparse-format instances (the low-level API), and returns
a :class:`CompiledKernel` that executes the synthesized data-centric
code as specialized generated code: one loop IR per kernel (see
:mod:`repro.codegen.pysource`), printed as Python source and, for
``backend="c"``, as C.

This is the analog of the paper's ``#pragma instantiate with Bernoulli``
template instantiation (Figure 4): the same dense kernel text serves every
format.

Repeated instantiations are served by the compilation cache
(:mod:`repro.core.cache`): calls whose program, format *structure*, and
parameter values match a previous compile reuse its plans (re-ranked if the
new instances' statistics shifted) instead of re-running the search.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Mapping, Optional

from repro.core.plan import Plan
from repro.formats.base import SparseFormat
from repro.instrument import INSTR
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.search.driver import SearchResult, search


class CompiledKernel:
    """A program lowered for specific format bindings.

    ``backend`` records the *requested* execution backend ("python" or
    "c"); ``backend_used`` what actually executes (``"c"``,
    ``"c+openmp"``, or ``"python"`` after a fallback), and
    ``fallback_reason`` why the native path was abandoned, so a silent
    fallback is always observable on the object and in the
    instrumentation report.  ``opt`` and ``opt_used`` both echo the
    ``opt`` keyword, which selects nothing (see :func:`compile_kernel`).
    ``entry_points`` (name -> loop IR) are further functions the native
    bind prints into this kernel's translation unit.

    ``memo`` (:class:`~repro.core.cache.PlanMemo`) holds the plan the
    kernel runs — ``result.plan``, guard-simplified unless that was turned
    off — and what kernels of the same cached plan share: its Python
    source, the exec'd function and the loop IR.  ``save`` is the
    ``(write, key, entry)`` of a ``cache="disk"`` compile whose plan has
    no source yet."""

    def __init__(self, program: Program, bindings: Mapping[str, SparseFormat],
                 result: SearchResult, memo, backend: str = "python",
                 parallel: str = "none", cache_mode: str = "memory",
                 opt: str = "none", entry_points=None, save=None):
        self.program = program
        self.bindings = dict(bindings)
        self.result = result
        self.plan: Plan = memo.plan
        self.cost = result.cost
        self.backend = backend
        self.parallel = parallel
        self.opt = self.opt_used = opt
        self.entry_points = entry_points
        self.backend_used = "python"
        self.fallback_reason: Optional[str] = None
        self._cache_mode = cache_mode
        self._ir = None
        self._memo = memo
        # the entry is written once: once printed, or as is when dropped
        self._save = save and weakref.finalize(self, *save)
        self._parallel_report = None
        self._pyfunc = None
        self._pysource = None
        self._native = None
        self._native_tried = False
        # between start_native() and the join: the join call, or the
        # exception lowering raised
        self._join = None
        # serializes lazy materialization (loop IR, generated Python,
        # native bind) when the same kernel object is driven from several
        # threads; reentrant because the native bind and the Python print
        # both re-enter loop_ir() on this same kernel
        self._materialize_lock = threading.RLock()

    # -- execution -----------------------------------------------------------
    def __call__(self, arrays: Mapping[str, object], params: Mapping[str, int]) -> None:
        """Execute through the generated specialized code (compiled once,
        cached).  With ``backend="c"`` this is the native shared-object
        kernel; otherwise (or after a fallback) the specialized Python."""
        self._check_arrays(arrays)
        if self.backend == "c":
            nf = self.native()
            if nf is not None:
                INSTR.count("backend.run.native")
                nf(arrays, {k: int(v) for k, v in params.items()})
                return
        fn = self.callable()
        INSTR.count("backend.run.python")
        fn(arrays, {k: int(v) for k, v in params.items()})

    def start_native(self) -> None:
        """Lower the kernel's C unit and start its ``cc`` process, then
        emit the Python print while ``cc`` runs;
        :meth:`native` joins.  A no-op once started, or for
        ``backend="python"``.  :func:`~repro.core.service.compile_many`
        starts every item of a batch, one after another on the calling
        thread, before it joins the first."""
        if self.backend != "c" or self._native_tried or self._join is not None:
            return
        with self._materialize_lock:
            if self._native_tried or self._join is not None:
                return
            from repro.core import backend as be

            try:
                join = be.start_bind(self, self.parallel, self._cache_mode,
                                     self.entry_points)
            except Exception as e:
                # reported at the join, like a build error; its traceback
                # would hold this frame, and this frame the exception
                join = e.with_traceback(None)
            # the Python kernel is the fallback and what the cache
            # replays: every C compile materializes and publishes it
            self.callable()
            self._join = join

    def native(self):
        """The bound :class:`~repro.core.backend.NativeKernel`, compiling
        it on first use (:meth:`start_native`, then the join); None when
        the native path is unavailable (the reason is recorded in
        ``fallback_reason``, and the warning is issued on the thread that
        joins)."""
        if self.backend != "c":
            return None
        if not self._native_tried:
            self.start_native()
            with self._materialize_lock:
                if not self._native_tried:
                    from repro.codegen.native import NativeLoweringError
                    from repro.core import backend as be

                    join, self._join = self._join, None
                    try:
                        if isinstance(join, Exception):
                            raise join
                        self._native = join()
                        self.backend_used = (
                            "c+openmp" if self._native.used_openmp else "c")
                    except NativeLoweringError as e:
                        self.fallback_reason = f"lowering: {e}"
                        be.native_fallback("lowering", str(e))
                    except Exception as e:
                        self.fallback_reason = f"toolchain: {e}"
                        be.native_fallback("toolchain", str(e))
                    finally:
                        # a raised ``join`` holds a traceback over this frame
                        del join
                    self._native_tried = True
        return self._native

    @property
    def c_source(self) -> Optional[str]:
        """The lowered C translation unit (None unless the native backend
        compiled successfully)."""
        nf = self.native()
        return nf.c_source if nf is not None else None

    def loop_ir(self):
        """The kernel's loop IR (:class:`~repro.codegen.loopir.KernelIR`),
        built once from the plan with the storage arrays typed from this
        kernel's bindings.  Both printers read this one object; a kernel
        whose Python source was replayed from the cache needs it only if a
        native bind asks, and then shares the one its plan's memo holds in
        memory when the array types match."""
        if self._ir is None:
            with self._materialize_lock:
                if self._ir is None:
                    from repro.codegen.pysource import build_loop_ir

                    ir = self._memo.ir
                    if ir is None or not ir.typed_for(self.bindings):
                        # racing kernels of one memo may both build; the
                        # IRs are interchangeable and the last one stays
                        ir = self._memo.ir = build_loop_ir(self.plan,
                                                           self.bindings)
                    self._ir = ir
        return self._ir

    def parallel_report(self):
        """Which plan dimensions are order-free
        (:class:`~repro.core.parallel.ParallelReport`), analysed once."""
        if self._parallel_report is None:
            with self._materialize_lock:
                if self._parallel_report is None:
                    from repro.analysis.dependence import dependences
                    from repro.core.parallel import analyze_parallelism

                    self._parallel_report = analyze_parallelism(
                        self.plan, dependences(self.program))
        return self._parallel_report

    def callable(self):
        """The generated Python function: the memo's source when a kernel
        of the same cached plan printed it (exec'd once per process), else
        printed from the loop IR and left in the memo."""
        if self._pyfunc is None:
            with self._materialize_lock:
                if self._pyfunc is None:
                    from repro.codegen.pysource import (
                        compile_plan_to_python, source_to_callable)

                    memo = self._memo
                    src, fn = memo.source, memo.fn
                    if src is None:
                        src, fn = compile_plan_to_python(self.loop_ir())
                        memo.source, memo.fn = src, fn
                        if self._save is not None:
                            self._save()
                    else:
                        INSTR.count("cache.source_replays")
                        if fn is None:
                            fn = memo.fn = source_to_callable(src)
                        if self._save is not None:  # another kernel wrote it
                            self._save.detach()
                    self._save = None
                    self._pysource = src
                    self._pyfunc = fn    # publish last: readers gate on it
        return self._pyfunc

    @property
    def source(self) -> str:
        """The generated specialized Python source."""
        self.callable()
        return self._pysource

    def pseudocode(self) -> str:
        """The data-centric pseudocode (paper Figures 5/8 style)."""
        return self.plan.pretty()

    def _check_arrays(self, arrays: Mapping[str, object]) -> None:
        for name in self.program.referenced_arrays():
            if name not in arrays:
                raise KeyError(f"missing array {name!r}")
        for name, fmt in self.bindings.items():
            got = arrays.get(name)
            if got is not None and not isinstance(got, type(fmt)):
                raise TypeError(
                    f"array {name!r} was compiled for {type(fmt).__name__}, "
                    f"got {type(got).__name__}"
                )

    def __repr__(self):
        b = {k: v.format_name for k, v in self.bindings.items()}
        tail = ""
        if self.backend != "python":
            used = self.backend_used
            if self.fallback_reason is not None:
                used = "python-fallback"
            elif not self._native_tried:
                used = "pending"
            tail = f" backend={self.backend}->{used}"
            if self.parallel != "none":
                tail += f" parallel={self.parallel}"
        return (f"<CompiledKernel {self.program.name} {b} "
                f"cost={self.cost:.1f}{tail}>")


def infer_param_values(
    program: Program,
    bindings: Mapping[str, SparseFormat],
) -> Dict[str, int]:
    """Derive concrete sizes for symbolic parameters from the bound
    instances, per declared array dimension.

    For every reference ``A[i][j]`` to a bound matrix whose index is a bare
    loop variable running ``0 .. p`` for a single program parameter ``p``,
    the instance pins ``p`` to that dimension's extent (rows for dimension
    0, columns for dimension 1).  Conflicting pins — two bindings implying
    different values for the same parameter — raise ``ValueError``, since
    they indicate genuinely incompatible instance shapes.

    Parameters no reference pins fall back to the legacy heuristic
    (``m``/``n`` from the first binding) so exotic index expressions keep
    their historical guesses.
    """
    guesses: Dict[str, int] = {}
    origins: Dict[str, str] = {}

    def pin(param: str, value: int, why: str) -> None:
        old = guesses.get(param)
        if old is not None and old != value:
            raise ValueError(
                f"conflicting size guesses for parameter {param!r}: "
                f"{old} (from {origins[param]}) vs {value} (from {why}); "
                f"pass param_values explicitly"
            )
        guesses[param] = value
        origins[param] = why

    params = set(program.params)
    for ctx in program.statements():
        loops = {l.var: l for l in ctx.loops}
        for array, fmt in bindings.items():
            extents = (fmt.nrows, fmt.ncols)
            for _kind, indices in ctx.stmt.references(array):
                for dim, idx in enumerate(indices[:2]):
                    lin = idx.lin
                    if lin.const != 0 or len(lin.coeffs) != 1:
                        continue
                    (var, coeff), = lin.coeffs.items()
                    loop = loops.get(var)
                    if coeff != 1 or loop is None:
                        continue
                    lo, hi = loop.lower.lin, loop.upper.lin
                    if lo.const != 0 or lo.coeffs:
                        continue
                    if hi.const != 0 or len(hi.coeffs) != 1:
                        continue
                    (p, pc), = hi.coeffs.items()
                    if pc != 1 or p not in params:
                        continue
                    pin(p, extents[dim],
                        f"{array}[{'rows' if dim == 0 else 'cols'}] in {ctx.name}")

    for fmt in bindings.values():
        guesses.setdefault("m", fmt.nrows)
        guesses.setdefault("n", fmt.ncols)
        break
    return guesses


def compile_kernel(
    program: Program,
    bindings: Mapping[str, SparseFormat],
    param_values: Optional[Mapping[str, int]] = None,
    pick: str = "best",
    simplify_guards: bool = True,
    cache: Optional[str] = None,
    backend: str = "python",
    parallel: str = "none",
    opt: Optional[str] = None,
    entry_points=None,
    bind: bool = True,
    deps=None,
) -> CompiledKernel:
    """Compile ``program`` for the given format bindings.

    ``bindings`` maps matrix array names to format *instances*; the
    instances provide the index structure, the enumeration runtimes, and
    the statistics the cost model ranks candidates with.  ``param_values``
    optionally supplies concrete sizes for better cost estimates; when
    omitted they are inferred per declared array dimension (see
    :func:`infer_param_values`).

    ``pick`` is forwarded to the search ("best" / "first" / "worst" — the
    latter two exist for the ablation benchmarks).

    ``cache`` selects the compilation-cache mode: ``"off"`` always re-runs
    the search, ``"memory"`` memoizes per process, ``"disk"`` additionally
    persists entries across processes (including compiled ``.so``
    artifacts of the C backend).  ``None`` defers to the
    ``REPRO_COMPILE_CACHE`` environment variable (default ``"memory"``).

    ``backend`` selects execution: ``"python"`` runs the specialized
    generated Python; ``"c"`` lowers it to C99, compiles with the system
    toolchain, and dispatches through ctypes — falling back to the Python
    kernel (with a :class:`~repro.core.backend.NativeBackendWarning` and
    an ``INSTR`` counter) when no compiler is available.
    ``parallel="strict"`` adds OpenMP pragmas to the synchronization-free
    DOALL loops (byte-identical to ``"none"``); it is advisory for
    ``backend="python"``.

    ``opt`` (``None``, ``"none"`` or ``"tiled"``) once chose between two
    grades of C.  There is one schedule now (:mod:`repro.codegen.native`):
    the keyword is validated, echoed as ``kernel.opt`` / ``kernel.opt_used``
    (``None`` reads ``"none"``) and selects nothing.

    ``entry_points`` maps names to further loop IRs that ``backend="c"``
    prints as extra functions of this kernel's translation unit (one
    toolchain invocation) and binds as ``kernel.native().entries[name]``.

    ``bind=False`` stops a ``backend="c"`` compile at the plan and its
    cost: nothing is emitted and the toolchain does not run until the
    kernel is first called (or ``kernel.native()`` is).  Format selection
    ranks its candidates this way.

    ``deps``, when given, is a zero-argument function returning the
    program's dependence classes, called only if the search runs (a cache
    hit needs none); otherwise the search computes them.  Format
    selection computes them once for all its candidates.
    """
    from repro.core import cache as cc

    if backend not in ("python", "c"):
        raise ValueError(f"backend must be 'python' or 'c', got {backend!r}")
    if parallel not in ("none", "strict"):
        raise ValueError(
            f"parallel must be 'none' or 'strict', got {parallel!r}")
    if opt not in (None, "none", "tiled"):
        raise ValueError(f"opt must be 'none' or 'tiled', got {opt!r}")
    opt = opt or "none"
    validate_program(program)
    for name, fmt in bindings.items():
        decl = program.arrays.get(name)
        if decl is None:
            raise KeyError(f"binding for unknown array {name!r}")
        if decl.kind != "matrix":
            raise ValueError(f"only matrices can be bound to sparse formats ({name!r})")
        if not isinstance(fmt, SparseFormat):
            raise TypeError(f"binding for {name!r} must be a SparseFormat instance")
        fmt.paths()                     # a format that declares none is refused
    if param_values is None:
        param_values = infer_param_values(program, bindings)
    param_values = {k: int(v) for k, v in param_values.items()}

    mode = cc.resolve_mode(cache)
    hit = entry = key = None
    if mode != "off":
        with INSTR.phase("cache.lookup"):
            key = cc.structural_signature(program, bindings, param_values,
                                          pick, simplify_guards)
            hit = cc.lookup(key, mode, bindings, param_values)
    if hit is not None:
        result, entry, index = hit
    else:
        result = search(program, bindings, deps and deps(), param_values,
                        pick=pick)
        if mode != "off":
            entry, index = cc.record(key, result, bindings, pick)
    memo = (cc.PlanMemo(result.plan, param_values, simplify_guards)
            if entry is None else
            entry.memo(index, param_values, simplify_guards))
    save = (cc.save, key, entry) if mode == "disk" and memo.source is None else None
    kernel = CompiledKernel(program, bindings, result, memo, backend=backend,
                            parallel=parallel, cache_mode=mode, opt=opt,
                            entry_points=entry_points, save=save)
    if backend == "c" and bind:
        kernel.native()                  # compile eagerly; may fall back
    elif bind and save:
        kernel.callable()       # the entry's one disk write carries the source
    return kernel
