"""Solver fast path: one-time kernel setup, per-iteration native dispatch.

The paper's Section 1 motivates the framework with the PETSc arrangement —
format-independent iterative solvers linked against format-specific BLAS.
:class:`SolverContext` is that link done once instead of per call: given a
matrix instance it (optionally) picks a storage format through
:func:`repro.search.format_select.select_format`, batch-compiles the
kernels the solver will need (``mvm``, ``mvm_t``, ``ts_lower``,
``ts_upper``, ``spmm``, ``spmm_t``) through
:func:`repro.core.service.compile_many`, and then
serves every solver iteration through the bound kernels with preallocated,
reused workspaces — no per-iteration ``np.zeros``, no per-call dispatch
dictionary walks.

Fallback semantics are graceful and observable: an operation whose kernel
cannot be compiled (no legal plan for the format, toolchain missing, ...)
falls back to the per-call BLAS dispatch of :mod:`repro.blas.api`, the
reason is kept in :attr:`SolverContext.fallbacks`, and the
``solver.fallback.*`` counters tick.  A context never raises because a
*fast* path is unavailable — only because the operation itself is
impossible.

Instrumentation (namespace ``solver.*``):

- ``solver.setup`` / ``solver.iterate`` phase timers — setup (selection +
  batch compilation) vs. iteration time of every solve;
- ``solver.contexts`` — contexts constructed;
- ``solver.iterations`` — total solver iterations executed;
- ``solver.fallback.compile`` / ``solver.fallback.select`` — fast-path
  demotions, by reason;
- ``solver.vecops.native`` / ``solver.vecops.numpy`` — which provider ran
  the vector steps of a ``cg`` / ``bicgstab`` solve
  (:mod:`repro.solvers.vecops`), ``solver.vecops.aliased`` — native
  solves demoted because a user callable handed back a solver vector;
- ``solver.normal`` — phase timer of the one-time normal-equation
  product (``A^T A`` / ``A A^T``) construction.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blas import api as blas_api
from repro.formats.base import SparseFormat
from repro.formats.csr import CsrMatrix
from repro.instrument import INSTR
from repro.ir import kernels as _kernels

#: every operation a context knows how to bind
ALL_OPS = ("mvm", "mvm_t", "ts_lower", "ts_upper", "spmm", "spmm_t")

#: op name -> (program factory, matrix array name, dense array names)
_OP_SPECS = {
    "mvm": (_kernels.mvm, "A", ("x", "y")),
    "mvm_t": (_kernels.mvm_t, "A", ("x", "y")),
    "ts_lower": (_kernels.ts_lower, "L", ("b",)),
    "ts_upper": (_kernels.ts_upper, "U", ("b",)),
    "spmm": (_kernels.spmm, "A", ("X", "Y")),
    "spmm_t": (_kernels.spmm_t, "A", ("X", "Y")),
}


class BoundOp:
    """One operation bound to one matrix instance: the kernel entry point
    (native function or generated Python), the matrix, and the integer
    parameter values — everything a call needs besides the vectors,
    resolved once at setup.

    The matrix is held *weakly* and dereferenced per call.  Its owner (the
    :class:`SolverContext`, or ``kernel``'s bindings) keeps it alive; a
    :meth:`detached` copy can therefore live on the matrix itself, as its
    :mod:`repro.blas.api` handle, without closing a reference cycle —
    dropping the matrix frees it, the handle and the loaded kernel at
    once, with no garbage collection."""

    __slots__ = ("name", "kernel", "fn", "mat_name", "_mat", "params",
                 "backend_used")

    def __init__(self, name: str, kernel, fn, mat_name: str,
                 matrix: SparseFormat, params: Dict[str, int],
                 backend_used: str):
        self.name = name
        self.kernel = kernel
        self.fn = fn
        self.mat_name = mat_name
        self._mat = weakref.ref(matrix)
        self.params = params
        self.backend_used = backend_used

    @property
    def matrix(self) -> Optional[SparseFormat]:
        return self._mat()

    def detached(self) -> "BoundOp":
        """The same entry point without ``kernel`` (a compiled kernel holds
        its bindings, i.e. the matrix, strongly) and with its own
        ``params``."""
        return BoundOp(self.name, None, self.fn, self.mat_name, self._mat(),
                       dict(self.params), self.backend_used)

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """y = op(x) through the bound kernel (mvm / mvm_t)."""
        self.fn({self.mat_name: self._mat(), "x": x, "y": y}, self.params)
        return y

    def apply_mm(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Y = op(X) for a dense panel through the bound kernel (spmm /
        spmm_t).  The panel width ``k`` is the one parameter no binding
        can pin (dense operands are unbound), so it is taken from ``X``
        per call."""
        self.params["k"] = int(X.shape[1])
        self.fn({self.mat_name: self._mat(), "X": X, "Y": Y}, self.params)
        return Y

    def apply_solve(self, b: np.ndarray) -> np.ndarray:
        """In-place triangular solve on ``b`` through the bound kernel."""
        self.fn({self.mat_name: self._mat(), "b": b}, self.params)
        return b

    def __repr__(self):
        return f"<BoundOp {self.name} backend={self.backend_used}>"


def _triangular_split(A: SparseFormat) -> Tuple[CsrMatrix, CsrMatrix]:
    """(lower-including-diagonal, upper-including-diagonal) CSR parts,
    annotated triangular so the compiler can discharge guards.

    Vectorized: when ``A`` is already CSR the split is two boolean masks
    over ``colind`` — masking preserves the within-row column order, so
    the parts are valid CSR without any re-sort.  Other formats extract
    triples once; ``from_coo`` detects sorted triples in O(nnz)."""
    from repro.formats.base import compress

    with INSTR.phase("solver.split"):
        if type(A) is CsrMatrix:
            rows = np.repeat(np.arange(A.nrows, dtype=A.colind.dtype),
                             np.diff(A.rowptr))
            low = A.colind <= rows
            up = A.colind >= rows
            L = CsrMatrix(*compress(rows[low], A.colind[low], A.nrows, A.shape),
                          A.values[low], A.shape)
            U = CsrMatrix(*compress(rows[up], A.colind[up], A.nrows, A.shape),
                          A.values[up], A.shape)
        else:
            rows, cols, vals = A.to_coo_arrays()
            low = rows >= cols
            up = rows <= cols
            L = CsrMatrix.from_coo(rows[low], cols[low], vals[low], A.shape)
            U = CsrMatrix.from_coo(rows[up], cols[up], vals[up], A.shape)
        L.annotate_triangular("lower")
        U.annotate_triangular("upper")
    return L, U


class SolverContext:
    """Per-matrix solver state: bound kernels plus reusable workspaces.

    Parameters
    ----------
    A:
        A format instance (or a dense ndarray, converted to CSR).
    ops:
        Operations to bind, a subset of :data:`ALL_OPS`.  Triangular ops
        bind to the lower/upper triangular CSR parts of ``A`` (including
        the diagonal), exactly the split the symmetric Gauss–Seidel
        preconditioner uses.
    backend:
        Forwarded to the compiler: ``"c"`` (default) dispatches iterations
        through the native shared object, falling back to the generated
        Python kernel when no toolchain exists; ``"python"`` uses the
        generated Python directly.
    select:
        When true, run automatic format selection for the matvec program
        first and bind the winning format instead of ``A``'s own.  A
        string selects the mode directly: ``select="auto"`` rides the
        structure-adaptive autotuner, so repeated contexts over matrices
        of the same structure class skip tuning entirely (the winner
        cache serves them); ``select="model"`` / ``select="empirical"``
        pick the analytical / measured routes.
    candidates / select_mode / workload:
        Forwarded to :func:`repro.search.format_select.select_format`.
        ``workload`` may be a callable (empirical measurement inputs) or
        a workload-family name — ``workload="spmm"`` tunes the selection
        micro-benchmarks on the SpMM kernel instead of matvec (the
        CSR-vs-CSC winner flips between the two).  For the ``auto`` and
        ``empirical`` modes the context's execution backend is forwarded
        too, so the measurements time the same dispatch the solver will
        use.
    opt:
        Forwarded to the compiler, which echoes it on the bound kernels
        and selects nothing with it (there is one native schedule).
    register:
        When true (default), publish the bound kernels as per-instance
        handles so the plain functional API (:func:`repro.blas.api.mvm`
        and friends) transparently uses them for this matrix.
    """

    def __init__(self, A, ops: Sequence[str] = ("mvm",), *,
                 backend: str = "c", parallel: str = "none",
                 select: Union[bool, str] = False,
                 candidates: Optional[Sequence[str]] = None,
                 select_mode: str = "model",
                 workload: Union[None, str, Callable] = None,
                 cache: Optional[str] = None,
                 max_workers: Optional[int] = None,
                 opt: Optional[str] = None,
                 register: bool = True):
        ops = tuple(ops)
        for op in ops:
            if op not in _OP_SPECS:
                raise ValueError(f"unknown op {op!r}; choose from {ALL_OPS}")
        if isinstance(select, str):
            # select="auto" / "model" / "empirical" names the mode directly
            select_mode, select = select, True
        if not isinstance(A, SparseFormat):
            A = CsrMatrix.from_dense(np.asarray(A))
        self.ops = ops
        self.backend = backend
        self.opt = opt
        self.selection = None
        self.selection_error: Optional[str] = None
        self.fallbacks: Dict[str, str] = {}
        self._bound: Dict[str, Optional[BoundOp]] = {}
        #: the solvers' vector steps as bound native kernels, by name
        #: (:data:`repro.solvers.vecops.ENTRY_POINTS`); empty unless
        #: ``mvm`` runs native — they live in its translation unit
        self.vec_entries: Dict[str, object] = {}
        self._diag: Optional[np.ndarray] = None
        self._normal: Dict[str, SparseFormat] = {}
        self.L: Optional[CsrMatrix] = None
        self.U: Optional[CsrMatrix] = None

        INSTR.count("solver.contexts")
        with INSTR.phase("solver.setup"):
            if select:
                A = self._select(A, candidates, select_mode, workload)
            self.A = A
            if "ts_lower" in ops or "ts_upper" in ops:
                self.L, self.U = _triangular_split(A)
            self._compile(ops, backend, parallel, cache, max_workers)
            # reused matvec outputs (the solvers pass their own buffers for
            # values that must survive a second matvec); the 2-D panel
            # workspaces are lazily sized on the first matmat call, since
            # the panel width k is unknown until then
            self._y = np.zeros(A.nrows)
            self._yt = np.zeros(A.ncols)
            self._Y2: Optional[np.ndarray] = None
            self._Y2t: Optional[np.ndarray] = None
            if register:
                self._register_handles()

    # -- setup ------------------------------------------------------------
    def _select(self, A, candidates, select_mode, workload):
        from repro.core.plan import PlanError
        from repro.search.format_select import select_format

        kwargs = {"mode": select_mode}
        if select_mode in ("auto", "empirical"):
            # measure through the dispatch the solver will actually use
            kwargs["backend"] = self.backend
        if candidates is not None:
            kwargs["candidates"] = candidates
        if workload is not None:
            kwargs["workload"] = workload
        try:
            self.selection = select_format(_kernels.mvm(), "A", A, **kwargs)
        except PlanError as e:
            self.selection_error = str(e)
            INSTR.count("solver.fallback.select")
            return A
        return self.selection.best[1]

    def _compile(self, ops, backend, parallel, cache, max_workers):
        from repro.core.compiler import infer_param_values
        from repro.core.service import compile_many
        from repro.solvers.vecops import ENTRY_POINTS

        programs, bindings, specs = [], [], []
        for op in ops:
            factory, mat_name, _vecs = _OP_SPECS[op]
            inst = {"mvm": lambda: self.A, "mvm_t": lambda: self.A,
                    "spmm": lambda: self.A, "spmm_t": lambda: self.A,
                    "ts_lower": lambda: self.L,
                    "ts_upper": lambda: self.U}[op]()
            programs.append(factory())
            bindings.append({mat_name: inst})
            specs.append((op, mat_name, inst))
        batch = compile_many(programs, bindings, backend=backend,
                             parallel=parallel, cache=cache,
                             max_workers=max_workers, opt=self.opt,
                             entry_points=[ENTRY_POINTS if op == "mvm" else None
                                           for op in ops])
        for (op, mat_name, inst), outcome, program in zip(specs, batch,
                                                          programs):
            if not outcome.ok:
                self.fallbacks[op] = (f"{type(outcome.error).__name__}: "
                                      f"{outcome.error}")
                INSTR.count("solver.fallback.compile")
                self._bound[op] = None
                continue
            kernel = outcome.kernel
            fn = kernel.native() if kernel.backend == "c" else None
            if fn is not None and op == "mvm":
                self.vec_entries = fn.entries
            if fn is None:
                fn = kernel.callable()
                if kernel.backend == "c" and kernel.fallback_reason:
                    # native lowering/toolchain fell through: still fast
                    # (generated Python), but record why it is not native
                    self.fallbacks.setdefault(
                        op, f"native: {kernel.fallback_reason}")
            params = {k: int(v) for k, v in
                      infer_param_values(program, {mat_name: inst}).items()}
            self._bound[op] = BoundOp(op, kernel, fn, mat_name, inst, params,
                                      kernel.backend_used)

    def _register_handles(self) -> None:
        for op, bound in self._bound.items():
            if bound is None:
                continue
            handle = bound.detached()
            if op in ("mvm", "mvm_t"):
                entry = handle.apply
            elif op in ("spmm", "spmm_t"):
                entry = handle.apply_mm
            else:
                entry = handle.apply_solve
            blas_api.register_kernel_handle(bound.matrix, op, entry)

    # -- introspection ----------------------------------------------------
    @property
    def format_name(self) -> str:
        return self.A.format_name

    def bound(self, op: str) -> Optional[BoundOp]:
        """The BoundOp serving ``op``, or None when it fell back."""
        return self._bound.get(op)

    @property
    def backends(self) -> Dict[str, str]:
        """op -> backend actually executing it (``"c"``, ``"c+openmp"``,
        ``"python"``, or ``"blas"`` after a compile fallback)."""
        return {op: (b.backend_used if b is not None else "blas")
                for op, b in self._bound.items()}

    @property
    def vecops(self) -> str:
        """What runs the vector steps of ``cg`` / ``bicgstab`` on this
        context: ``"c"`` (entry points of the native ``mvm`` unit) or
        ``"numpy: <why not>"``."""
        if self.vec_entries:
            return "c"
        if "mvm" not in self._bound:
            return "numpy: 'mvm' was not requested"
        why = self.fallbacks.get("mvm")
        return (f"numpy: mvm runs {self.backends['mvm']}"
                + (f" ({why})" if why else ""))

    @property
    def diag(self) -> np.ndarray:
        """The diagonal of ``A`` (computed once, reused by Jacobi/SOR and
        the preconditioners)."""
        if self._diag is None:
            n = min(self.A.shape)
            rows, cols, vals = self.A.to_coo_arrays()
            on_diag = rows == cols
            d = np.zeros(n)
            d[rows[on_diag]] = vals[on_diag]
            self._diag = d
        return self._diag

    def normal(self, which: str = "ata", **spgemm_kwargs) -> SparseFormat:
        """The normal-equation product — ``A^T A`` for ``which="ata"``
        (the CGNR/least-squares operator) or ``A A^T`` for ``"aat"``
        (CGNE) — computed once through the sparse×sparse product
        :func:`repro.blas.api.spgemm` and cached on the context, so a
        solver that iterates on the normal operator pays the symbolic +
        numeric passes a single time.  Keyword arguments (``out_format``,
        ``tier``) are forwarded to ``spgemm`` on the first call of each
        ``which``."""
        if which not in ("ata", "aat"):
            raise ValueError(f"which must be 'ata' or 'aat', got {which!r}")
        got = self._normal.get(which)
        if got is None:
            with INSTR.phase("solver.normal"):
                rows, cols, vals = self.A.to_coo_arrays()
                At = CsrMatrix.from_coo(cols, rows, vals,
                                        (self.A.ncols, self.A.nrows))
                if which == "ata":
                    got = blas_api.spgemm(At, self.A, **spgemm_kwargs)
                else:
                    got = blas_api.spgemm(self.A, At, **spgemm_kwargs)
            self._normal[which] = got
        return got

    # -- bound operations -------------------------------------------------
    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``out = A x`` through the bound kernel (``out`` defaults to the
        context's reusable workspace — pass an explicit buffer when the
        result must survive the next matvec)."""
        if out is None:
            out = self._y
        b = self._bound.get("mvm")
        if b is None:
            return blas_api.dispatch_mvm(self.A, x, out)
        return b.apply(x, out)

    def matvec_t(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``out = A^T x`` through the bound kernel."""
        if out is None:
            out = self._yt
        b = self._bound.get("mvm_t")
        if b is None:
            return blas_api.dispatch_mvm_t(self.A, x, out)
        return b.apply(x, out)

    def matmat(self, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``out = A X`` for a dense ``n × k`` panel through the bound
        ``spmm`` kernel (multi-RHS fast path).  ``out`` defaults to a
        reused ``(nrows, k)`` workspace, (re)allocated only when the panel
        width changes — pass an explicit buffer when the result must
        survive the next matmat."""
        if X.shape[1] == 0:
            # k = 0: nothing to compute — hand back an empty panel without
            # evicting the width-keyed workspace for a degenerate width
            return np.zeros((self.A.nrows, 0)) if out is None else out
        if out is None:
            k = X.shape[1]
            if self._Y2 is None or self._Y2.shape[1] != k:
                self._Y2 = np.zeros((self.A.nrows, k))
            out = self._Y2
        b = self._bound.get("spmm")
        if b is None:
            return blas_api.dispatch_mm(self.A, X, out)
        return b.apply_mm(X, out)

    def matmat_t(self, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``out = A^T X`` through the bound ``spmm_t`` kernel."""
        if X.shape[1] == 0:
            return np.zeros((self.A.ncols, 0)) if out is None else out
        if out is None:
            k = X.shape[1]
            if self._Y2t is None or self._Y2t.shape[1] != k:
                self._Y2t = np.zeros((self.A.ncols, k))
            out = self._Y2t
        b = self._bound.get("spmm_t")
        if b is None:
            return blas_api.dispatch_mm_t(self.A, X, out)
        return b.apply_mm(X, out)

    def lower_solve(self, b: np.ndarray, in_place: bool = False) -> np.ndarray:
        """``b := L^{-1} b`` with L the lower-including-diagonal part."""
        if self.L is None:
            raise ValueError("context was built without 'ts_lower'")
        if not in_place:
            b = b.copy()
        op = self._bound.get("ts_lower")
        if op is None:
            return blas_api.dispatch_ts_lower(self.L, b)
        return op.apply_solve(b)

    def upper_solve(self, b: np.ndarray, in_place: bool = False) -> np.ndarray:
        """``b := U^{-1} b`` with U the upper-including-diagonal part."""
        if self.U is None:
            raise ValueError("context was built without 'ts_upper'")
        if not in_place:
            b = b.copy()
        op = self._bound.get("ts_upper")
        if op is None:
            return blas_api.dispatch_ts_upper(self.U, b)
        return op.apply_solve(b)

    def preconditioner(self, kind: str = "sgs"):
        """A preconditioner wired to this context's bound kernels:
        ``"sgs"`` (symmetric Gauss–Seidel, needs the ts ops), ``"jacobi"``
        (diagonal scaling), or ``"none"``."""
        from repro.solvers.preconditioners import (
            IdentityPreconditioner,
            JacobiPreconditioner,
            TriangularPreconditioner,
        )

        if kind == "none":
            return IdentityPreconditioner()
        if kind == "jacobi":
            return JacobiPreconditioner(self.A, context=self)
        if kind == "sgs":
            return TriangularPreconditioner(self.A, context=self)
        raise ValueError(f"kind must be 'sgs', 'jacobi' or 'none', got {kind!r}")

    def __repr__(self):
        parts = ", ".join(f"{op}={used}" for op, used in self.backends.items())
        sel = " selected" if self.selection is not None else ""
        return f"<SolverContext {self.format_name}{sel} [{parts}]>"


MatVec = Callable[[np.ndarray], np.ndarray]


def resolve_matvec(A, matvec: Optional[MatVec], context: Optional[SolverContext]):
    """Shared solver plumbing: normalize ``(A, matvec, context)`` into
    ``(matrix, mv)`` where ``mv(x, out)`` computes A x into ``out``.

    Accepts a :class:`SolverContext` directly in the ``A`` position (the
    matrix is taken from the context), an explicit ``matvec`` callable
    (wrapped; its own allocation discipline is respected), or a plain
    format instance (per-call BLAS dispatch into the caller's buffer).
    """
    if isinstance(A, SolverContext):
        context = A
        A = context.A
    if matvec is not None:
        def mv(x, out=None, _f=matvec):
            return _f(x)
        return A, mv
    if context is not None:
        return A, context.matvec

    def mv(x, out=None, _A=A):
        if out is None:
            return blas_api.mvm(_A, x)
        return blas_api.mvm(_A, x, out)

    return A, mv


def start_vectors(b: np.ndarray, x0, mv, work: np.ndarray):
    """``(x, r)`` a Krylov solve starts from, both its own to overwrite.  On
    a zero start ``r`` is ``b`` itself: ``b - A 0`` without the matvec
    (bitwise, for finite ``A``)."""
    if x0 is None:
        return np.zeros(b.shape[0]), np.array(b, dtype=float)
    x = np.array(x0, dtype=float)
    return x, b - mv(x, work)


MatMat = Callable[[np.ndarray], np.ndarray]


def resolve_matmat(A, matmat: Optional[MatMat], context: Optional[SolverContext]):
    """:func:`resolve_matvec` for dense panels: normalize ``(A, matmat,
    context)`` into ``(matrix, mm)`` where ``mm(X, out)`` computes ``A X``
    into ``out`` for a dense ``n × k`` panel."""
    if isinstance(A, SolverContext):
        context = A
        A = context.A
    if matmat is not None:
        def mm(X, out=None, _f=matmat):
            return _f(X)
        return A, mm
    if context is not None:
        return A, context.matmat

    def mm(X, out=None, _A=A):
        if out is None:
            return blas_api.mm(_A, X)
        return blas_api.mm(_A, X, out)

    return A, mm
