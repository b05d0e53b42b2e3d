"""Top-level compiler API.

``compile_kernel`` takes a dense program (the high-level API) and a binding
of matrix names to sparse-format instances (the low-level API), and returns
a :class:`CompiledKernel` that can execute the synthesized data-centric
code — through the reference interpreter, or through specialized generated
code: one loop IR per kernel (see :mod:`repro.codegen.pysource`), printed
as Python source and, for ``backend="c"``, as C.

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
    bind prints into this kernel's translation unit."""

    def __init__(self, program: Program, bindings: Mapping[str, SparseFormat],
                 result: SearchResult, backend: str = "python",
                 parallel: str = "none", cache_mode: str = "memory",
                 opt: str = "none", entry_points=None):
        self.program = program
        self.bindings = dict(bindings)
        self.result = result
        self.plan: Plan = result.plan
        self.cost = result.cost
        self.backend = backend
        self.parallel = parallel
        self.opt = self.opt_used = opt
        self.entry_points = entry_points
        self.backend_used = "python"
        self.fallback_reason: Optional[str] = None
        self._cache_mode = cache_mode
        self._ir = None
        # (table, plan id): where kernels of one cache entry share the IR
        # in memory.  The table only, never the entry — an entry pins the
        # plans and, through them, the instances they were searched with.
        self._ir_memo = ({}, 0)
        self._parallel_report = None
        self._pyfunc = None
        self._pysource = None
        self._cache_publish = None
        self._native = None
        self._native_tried = False
        # serializes lazy materialization (loop IR, generated Python,
        # native bind) when the same kernel object is driven from several
        # threads; reentrant because the native bind and the Python print
        # both re-enter loop_ir() on this same kernel
        self._materialize_lock = threading.RLock()

    # -- execution -----------------------------------------------------------
    def run(self, arrays: Mapping[str, object], params: Mapping[str, int]) -> None:
        """Execute the kernel.  For ``backend="python"`` this is the
        reference interpreter; for ``backend="c"`` it dispatches to the
        native function (falling back to the interpreter when no
        toolchain is available).  ``arrays`` must map every referenced
        array name to either a NumPy array (dense data) or a format
        instance compatible with the compile-time binding."""
        from repro.codegen.interp import run_plan

        self._check_arrays(arrays)
        if self.backend == "c":
            nf = self.native()
            if nf is not None:
                INSTR.count("backend.run.native")
                nf(arrays, {k: int(v) for k, v in params.items()})
                return
        INSTR.count("backend.run.interp")
        run_plan(self.plan, arrays, {k: int(v) for k, v in params.items()})

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

    def native(self):
        """The bound :class:`~repro.core.backend.NativeKernel`, compiling
        it on first use; None when the native path is unavailable (the
        reason is recorded in ``fallback_reason``)."""
        if self.backend != "c":
            return None
        if not self._native_tried:
            with self._materialize_lock:
                if not self._native_tried:
                    from repro.codegen.native import NativeLoweringError
                    from repro.core import backend as be

                    # the Python kernel is the fallback and what the cache
                    # replays: every C compile materializes and publishes it
                    self.callable()
                    try:
                        self._native = be.bind_kernel(self, self.parallel,
                                                      self._cache_mode,
                                                      self.entry_points)
                        self.backend_used = (
                            "c+openmp" if self._native.used_openmp else "c")
                    except NativeLoweringError as e:
                        self.fallback_reason = f"lowering: {e}"
                        be.native_fallback("lowering", str(e))
                    except Exception as e:
                        self.fallback_reason = f"toolchain: {e}"
                        be.native_fallback("toolchain", str(e))
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
        native bind asks, and then shares the one its cache entry holds in
        memory when the array types match."""
        if self._ir is None:
            with self._materialize_lock:
                if self._ir is None:
                    from repro.codegen.pysource import build_loop_ir

                    shared, idx = self._ir_memo
                    ir = shared.get(idx)
                    if ir is None or not ir.typed_for(self.bindings):
                        # racing kernels of one entry may both build; the
                        # IRs are interchangeable and the last one stays
                        ir = shared[idx] = build_loop_ir(self.plan,
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
        if self._pyfunc is None:
            with self._materialize_lock:
                if self._pyfunc is None:
                    from repro.codegen.pysource import compile_plan_to_python

                    src, fn = compile_plan_to_python(self.loop_ir())
                    if self._cache_publish is not None:
                        self._cache_publish(src, fn)
                        self._cache_publish = None
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
    max_orders: int = 12,
    simplify_guards: bool = True,
    cache: Optional[str] = None,
    backend: str = "python",
    parallel: str = "none",
    opt: Optional[str] = None,
    entry_points=None,
    bind: bool = True,
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
    if param_values is None:
        param_values = infer_param_values(program, bindings)
    param_values = {k: int(v) for k, v in param_values.items()}

    mode = cc.resolve_mode(cache)
    key = None
    if mode != "off":
        with INSTR.phase("cache.lookup"):
            key = cc.structural_signature(program, bindings, param_values,
                                          pick, max_orders, simplify_guards)
            hit = cc.lookup(key, mode, bindings, param_values, pick)
        if hit is not None:
            result, entry, idx = hit
            if simplify_guards:
                with entry._lock:
                    if idx not in entry.simplified:
                        result.plan.simplify_guards(dict(param_values))
                        entry.simplified.add(idx)
            kernel = _kernel_from_entry(program, bindings, result, entry, idx,
                                        mode, key, backend, parallel, opt,
                                        entry_points)
            if backend == "c" and bind:
                kernel.native()          # compile eagerly; may fall back
            return kernel

    result = search(program, bindings, None, param_values, pick=pick,
                    max_orders=max_orders)
    entry = None
    if mode != "off":
        # record before guard simplification so the entry snapshots
        # pristine guards (simplification mutates the selected plan)
        entry, sid = cc.record(key, mode, result, bindings, pick)
    if entry is None:
        if simplify_guards:
            result.plan.simplify_guards(dict(param_values))
    kernel = CompiledKernel(program, bindings, result, backend=backend,
                            parallel=parallel, cache_mode=mode, opt=opt,
                            entry_points=entry_points)
    if entry is not None:
        # under the entry lock: once record() published the entry, a
        # concurrent hit on this key may race us to simplify the same plan
        with entry._lock:
            if simplify_guards and sid not in entry.simplified:
                result.plan.simplify_guards(dict(param_values))
                entry.simplified.add(sid)
            kernel._cache_publish = _source_publisher(entry, sid, mode, key)
            kernel._ir_memo = (entry.irs, sid)
    if backend == "c" and bind:
        kernel.native()                  # compile eagerly; may fall back
    return kernel


def _kernel_from_entry(program, bindings, result, entry, idx, mode, key,
                       backend="python", parallel="none", opt="none",
                       entry_points=None):
    """Build a kernel from a cache hit, replaying memoized source."""
    kernel = CompiledKernel(program, bindings, result, backend=backend,
                            parallel=parallel, cache_mode=mode, opt=opt,
                            entry_points=entry_points)
    kernel._ir_memo = (entry.irs, idx)
    with entry._lock:
        src = entry.sources.get(idx)
        if src is not None:
            fn = entry.fns.get(idx)
            if fn is None:
                from repro.codegen.pysource import source_to_callable

                fn = source_to_callable(src)
                entry.fns[idx] = fn
            kernel._pysource = src
            kernel._pyfunc = fn
            INSTR.count("cache.source_replays")
        else:
            kernel._cache_publish = _source_publisher(entry, idx, mode, key)
    return kernel


def _source_publisher(entry, idx, mode, key):
    """Publish lazily-generated source back into a cache entry (and keep the
    disk layer in step, so later processes replay byte-identical source)."""
    from repro.core.cache import COMPILE_CACHE

    def publish(src: str, fn) -> None:
        with entry._lock:
            entry.sources[idx] = src
            entry.fns[idx] = fn
            if mode == "disk":
                COMPILE_CACHE.disk_put(key, entry)

    return publish
