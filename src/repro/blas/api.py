"""The sparse BLAS: every call runs the compiler's kernel for its matrix.

``mvm``, ``mvm_t``, ``mm``, ``mm_t``, ``ts_lower_solve`` and
``ts_upper_solve`` dispatch through a *kernel handle*, one per (matrix
instance, operation).  The first call for ``(A, op)`` compiles the op's
dense program (:mod:`repro.ir.kernels`) for ``A`` with
``compile_kernel(..., backend="c")`` — generated Python when there is no
toolchain — and publishes it as ``A``'s handle, a detached
:class:`BoundOp`; every later call is a ``blas.handle.hits`` dispatch.
A :class:`~repro.solvers.context.SolverContext` binds through the same
:func:`bind` and :func:`register`, so a plain call on a matrix a context
was built over rides the context's kernels.  A pair the search has no
plan for (TS on DIA) is compiled over the matrix's CSR image instead
(:func:`bind_csr_image`, ``blas.fallback.csr_image``), once per instance.

This is the PETSc-style arrangement the paper describes in Section 1
(format-independent iterative methods linked against format-specific
BLAS), with the format-specific BLAS generated from the format's
declaration instead of written by hand.

Handles are stored on the instance itself (attribute
``_kernel_handles``), so their lifetime is exactly the matrix's lifetime
and the cache needs no eviction policy; a handle holds its matrix weakly,
so dropping the matrix frees both by reference count.
"""

from __future__ import annotations

import subprocess
import weakref
from typing import Callable, Dict, Optional

import numpy as np

from repro.formats.base import SparseFormat
from repro.formats.convert import FORMATS, convert
from repro.formats.csr import CsrMatrix
from repro.instrument import INSTR
from repro.ir import kernels as _kernels

#: op name -> (program factory, matrix array name, the :class:`BoundOp`
#: method a handle calls)
OP_SPECS = {
    "mvm": (_kernels.mvm, "A", "apply"),
    "mvm_t": (_kernels.mvm_t, "A", "apply"),
    "ts_lower": (_kernels.ts_lower, "L", "apply_solve"),
    "ts_upper": (_kernels.ts_upper, "U", "apply_solve"),
    "spmm": (_kernels.spmm, "A", "apply_mm"),
    "spmm_t": (_kernels.spmm_t, "A", "apply_mm"),
}

#: every operation a kernel handle serves
ALL_OPS = tuple(OP_SPECS)

#: instance attribute holding the per-matrix handle dict {op: callable}
_HANDLE_ATTR = "_kernel_handles"


class BoundOp:
    """One operation bound to one matrix instance: the kernel entry point
    (native function or generated Python), the matrix, and the integer
    parameter values — everything a call needs besides the vectors,
    resolved once at setup.

    The matrix is held *weakly* and dereferenced per call: ``operand`` is
    a weak reference to it (or, from :func:`bind_csr_image`, builds the
    CSR image of a matrix it holds weakly).  Its owner (the caller, a
    :class:`~repro.solvers.context.SolverContext`, or ``kernel``'s
    bindings) keeps it alive; a :meth:`detached` copy can therefore live
    on the matrix itself, as its handle, without closing a reference
    cycle — dropping the matrix frees it, the handle and the loaded kernel
    at once, with no garbage collection."""

    __slots__ = ("name", "kernel", "fn", "mat_name", "_mat", "params",
                 "backend_used")

    def __init__(self, name: str, kernel, fn, mat_name: str,
                 operand: Callable[[], SparseFormat], params: Dict[str, int],
                 backend_used: str):
        self.name = name
        self.kernel = kernel
        self.fn = fn
        self.mat_name = mat_name
        self._mat = operand
        self.params = params
        self.backend_used = backend_used

    def detached(self) -> "BoundOp":
        """The same entry point without ``kernel`` (a compiled kernel holds
        its bindings, i.e. the matrix, strongly)."""
        return BoundOp(self.name, None, self.fn, self.mat_name, self._mat,
                       self.params, self.backend_used)

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """y = op(x) through the bound kernel (mvm / mvm_t)."""
        self.fn({self.mat_name: self._mat(), "x": x, "y": y}, self.params)
        return y

    def apply_mm(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Y = op(X) for a dense panel through the bound kernel (spmm /
        spmm_t).  The panel width ``k`` is the one parameter no binding
        can pin (dense operands are unbound), so it is taken from ``X``
        per call, into a mapping of the call's own: ``params`` is shared
        by every caller of this op and of its handle."""
        self.fn({self.mat_name: self._mat(), "X": X, "Y": Y},
                {**self.params, "k": int(X.shape[1])})
        return Y

    def apply_solve(self, b: np.ndarray) -> np.ndarray:
        """In-place triangular solve on ``b`` through the bound kernel."""
        self.fn({self.mat_name: self._mat(), "b": b}, self.params)
        return b

    def __repr__(self):
        return f"<BoundOp {self.name} backend={self.backend_used}>"


def bind(op: str, kernel, program, matrix: SparseFormat,
         operand: Optional[Callable[[], SparseFormat]] = None) -> BoundOp:
    """``kernel`` (``program`` compiled for ``matrix``) as a
    :class:`BoundOp`: the native function when it built, else the
    generated Python, and the parameter values the matrix pins.  The
    kernel runs on ``matrix`` unless ``operand`` says otherwise."""
    from repro.core.compiler import infer_param_values

    mat_name = OP_SPECS[op][1]
    fn = kernel.native() if kernel.backend == "c" else None
    if fn is None:
        fn = kernel.callable()
    params = {k: int(v) for k, v in
              infer_param_values(program, {mat_name: matrix}).items()}
    return BoundOp(op, kernel, fn, mat_name, operand or weakref.ref(matrix),
                   params, kernel.backend_used)


def bind_csr_image(op: str, A: SparseFormat, **compile_kwargs) -> BoundOp:
    """``op`` for ``A`` when the search has no plan for ``A``'s format (TS
    on DIA), compiled over ``A``'s CSR image (``compile_kwargs`` go to
    ``compile_kernel``); counts ``blas.fallback.csr_image``.  The image's
    structure is built once, here; every call refreshes its values with
    one gather from ``A``'s value storage, so a value changed in place or
    through ``set()`` (which never adds an entry) is seen by the next
    call.  The operand holds ``A`` weakly; the image lives as long as the
    binding."""
    from repro.core.compiler import compile_kernel

    INSTR.count("blas.fallback.csr_image")
    factory, mat_name, _apply = OP_SPECS[op]
    program = factory()
    refresh = _csr_image(A)
    image = refresh()
    kernel = compile_kernel(program, {mat_name: image}, **compile_kwargs)
    return bind(op, kernel, program, image, refresh)


def _csr_image(A: SparseFormat) -> Callable[[], CsrMatrix]:
    """A call that returns ``A``'s CSR image holding ``A``'s current
    values.  The image is the conversion of a copy of ``A`` whose value
    cells hold their own flat position plus one — so no cell reads as a
    zero and is dropped — and its values then name, per entry, the cell
    of ``A``'s value storage the entry gathers."""
    names = list(dict.fromkeys(A.storage(p.path_id).value[0]
                               for p in A.paths()))
    positions, start = A.copy(), 1
    for name in names:
        shape = np.shape(getattr(A, name))
        stop = start + int(np.prod(shape))
        setattr(positions, name,
                np.arange(start, stop, dtype=np.float64).reshape(shape))
        start = stop
    image = convert(positions, "csr")
    where = image.values.astype(np.int64) - 1
    ref = weakref.ref(A)

    def refresh() -> CsrMatrix:
        cells = [np.asarray(getattr(ref(), n)).reshape(-1) for n in names]
        flat = cells[0] if len(cells) == 1 else np.concatenate(cells)
        # every index is in range by construction; "clip" spares the
        # bounds pass and the buffered copy "raise" makes
        np.take(flat, where, out=image.values, mode="clip")
        return image

    return refresh


def register(A: SparseFormat, bound: BoundOp) -> Callable:
    """Publish ``bound`` (detached) as ``A``'s handle for its op; returns
    the handle."""
    entry = getattr(bound.detached(), OP_SPECS[bound.name][2])
    register_kernel_handle(A, bound.name, entry)
    return entry


def register_kernel_handle(A: SparseFormat, op: str, fn: Callable) -> None:
    """Publish a bound kernel entry point for one operation of one matrix
    instance.  ``fn`` has signature ``fn(x, y) -> y`` for ``mvm`` /
    ``mvm_t``, ``fn(X, Y) -> Y`` (2-D panels) for ``spmm`` / ``spmm_t``,
    and ``fn(b) -> b`` (in-place) for ``ts_lower`` / ``ts_upper``."""
    handles = getattr(A, _HANDLE_ATTR, None)
    if handles is None:
        handles = {}
        setattr(A, _HANDLE_ATTR, handles)
    handles[op] = fn


def kernel_handle(A: SparseFormat, op: str) -> Optional[Callable]:
    """The registered handle for ``(A, op)``, or None."""
    handles = getattr(A, _HANDLE_ATTR, None)
    if handles is None:
        return None
    return handles.get(op)


def clear_kernel_handles(A: SparseFormat) -> None:
    """Drop every handle registered for ``A`` (mainly for tests)."""
    if getattr(A, _HANDLE_ATTR, None) is not None:
        delattr(A, _HANDLE_ATTR)


def _handle(A: SparseFormat, op: str) -> Callable:
    """``A``'s handle for ``op``, compiled and registered on first use.
    A pair the search finds no plan for binds over ``A``'s CSR image, so
    the search runs once per instance; any other compile error
    propagates."""
    h = kernel_handle(A, op)
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h
    from repro.core.compiler import compile_kernel
    from repro.core.plan import PlanError

    factory, mat_name, _apply = OP_SPECS[op]
    program = factory()
    try:
        kernel = compile_kernel(program, {mat_name: A}, backend="c")
    except PlanError:
        kernel = None
    if kernel is None:
        return register(A, bind_csr_image(op, A, backend="c"))
    return register(A, bind(op, kernel, program, A))


def _check_panel(op: str, A: SparseFormat, X: np.ndarray,
                 need_rows: int) -> None:
    """Reject malformed dense panels up front: a 1-D ``X`` used to hit
    ``X.shape[1]`` with a raw IndexError, and a row-count mismatch was
    silently computed with whatever indices happened to stay in range."""
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) != 2:
        raise ValueError(
            f"{op}: X must be a 2-D panel, got shape {shape} "
            f"(operand is {A.nrows}x{A.ncols})")
    if shape[0] != need_rows:
        raise ValueError(
            f"{op}: operand is {A.nrows}x{A.ncols} so the panel needs "
            f"{need_rows} rows, got panel of shape {tuple(shape)}")


def _check_vector(op: str, name: str, A: SparseFormat, v: np.ndarray,
                  need: int) -> None:
    """Reject a vector operand of the wrong length or rank up front, for
    the same reason as :func:`_check_panel`: a bound native kernel loops to
    the matrix's extents whatever the operand holds, so a short one was
    read (or, as an output, written) past its end."""
    shape = getattr(v, "shape", None)
    if shape != (need,):
        raise ValueError(
            f"{op}: operand is {A.nrows}x{A.ncols} so {name} must be a "
            f"vector of length {need}, got shape {shape}")


def _out(op: str, A: SparseFormat, x: np.ndarray, out: Optional[np.ndarray],
         shape) -> np.ndarray:
    """The output of ``op``: a caller-provided ``out``, validated, or a
    fresh array in the promoted dtype of the operands — ``np.zeros(shape)``
    alone would silently force float64 onto float32/int workloads (and
    break native-backend byte parity).  A provided output must have the
    shape and safely hold the promoted dtype — writing float64 products
    into an int or float32 buffer silently truncated before."""
    result_dtype = np.result_type(A.dtype, x.dtype)
    if out is None:
        return np.zeros(shape, dtype=result_dtype)
    if tuple(out.shape) != tuple(shape):
        raise ValueError(
            f"{op}: caller-provided output has shape {tuple(out.shape)}, "
            f"expected {tuple(shape)}")
    if not np.can_cast(result_dtype, out.dtype, casting="safe"):
        raise ValueError(
            f"{op}: writing {np.dtype(result_dtype)} products into a "
            f"caller-provided {out.dtype} output would truncate; pass a "
            f"{np.dtype(result_dtype)} buffer (or omit it)")
    return out


def mvm(A: SparseFormat, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """y = A x."""
    _check_vector("mvm", "x", A, x, A.ncols)
    y = _out("mvm", A, x, y, (A.nrows,))
    return _handle(A, "mvm")(x, y)


def mm(A: SparseFormat, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Y = A X with ``X`` a dense ``n × k`` panel (SpMM)."""
    _check_panel("mm", A, X, A.ncols)
    Y = _out("mm", A, X, Y, (A.nrows, X.shape[1]))
    if X.shape[1] == 0:
        return Y  # empty panel: (m, 0) result, nothing to dispatch
    return _handle(A, "spmm")(X, Y)


def mm_t(A: SparseFormat, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Y = A^T X with ``X`` a dense ``m × k`` panel."""
    _check_panel("mm_t", A, X, A.nrows)
    Y = _out("mm_t", A, X, Y, (A.ncols, X.shape[1]))
    if X.shape[1] == 0:
        return Y
    return _handle(A, "spmm_t")(X, Y)


def mvm_t(A: SparseFormat, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """y = A^T x."""
    _check_vector("mvm_t", "x", A, x, A.nrows)
    y = _out("mvm_t", A, x, y, (A.ncols,))
    return _handle(A, "mvm_t")(x, y)


def _solve(op: str, T: SparseFormat, b: np.ndarray, in_place: bool) -> np.ndarray:
    """The triangular solve ``op`` on ``b`` (the dtype contract of
    :func:`ts_lower_solve`)."""
    _check_vector(f"{op}_solve", "b", T, b, T.nrows)
    rt = np.result_type(T.dtype, b.dtype)
    if not in_place:
        b = b.astype(rt, copy=True)
    elif not np.can_cast(rt, b.dtype, casting="safe"):
        raise ValueError(
            f"{op}_solve: in-place solve writes {np.dtype(rt)} values "
            f"into a {b.dtype} b, which would truncate; promote b or use "
            f"in_place=False")
    return _handle(T, op)(b)


def ts_lower_solve(L: SparseFormat, b: np.ndarray, in_place: bool = False) -> np.ndarray:
    """b := L^{-1} b (forward substitution).

    The solve writes quotients: an integer (or narrower-float) ``b``
    cannot hold them.  With ``in_place=False`` the working copy is
    promoted to the result dtype; with ``in_place=True`` a lossy ``b``
    is rejected instead of silently truncated."""
    return _solve("ts_lower", L, b, in_place)


def ts_upper_solve(U: SparseFormat, b: np.ndarray, in_place: bool = False) -> np.ndarray:
    """b := U^{-1} b (backward substitution).  Same dtype contract as
    :func:`ts_lower_solve`."""
    return _solve("ts_upper", U, b, in_place)


# ---------------------------------------------------------------------------
# SpGEMM: C = A B with both operands sparse.  Unlike every operation above,
# the output's sparsity pattern is *computed*, not declared — the paper's
# framework covers kernels whose output structure is given up front, so the
# sparse×sparse product has its own dispatch, on CSR operands: any other
# format runs on its CSR image (``convert(A, "csr")``, stored zeros kept).
#
# - native: the compiled two-pass Gustavson kernel of
#   :mod:`repro.blas.spgemm_native`.  It assembles the result row by row
#   straight into CSR arrays, which :func:`spgemm` wraps without a COO
#   round trip — 1.0–1.1× the speed of ``scipy.sparse``'s ``S @ S`` on the
#   n = 90k Laplacian and 0.8–0.9× on the n = 50k power-law matrix of
#   ``benchmarks/e2e``, with sorted indices (scipy's are not).
# - vectorized: NumPy expand-sort-reduce over the materialized products,
#   no toolchain needed (0.04× and 0.14× scipy's speed on the same two
#   operands).  It runs only when the native kernel cannot be built, and
#   observably (``spgemm.tier.native_fallbacks`` + NativeBackendWarning).
#
# Both produce identical canonical output (sorted rows, sorted columns
# within rows, duplicates summed, cancelled zeros kept) — byte-for-byte,
# which the differential wall pins.
# ---------------------------------------------------------------------------

def _check_spgemm_operands(A, B) -> None:
    if not isinstance(A, SparseFormat) or not isinstance(B, SparseFormat):
        raise ValueError(
            f"spgemm: both operands must be sparse format instances, got "
            f"{type(A).__name__} and {type(B).__name__}")
    if A.ncols != B.nrows:
        raise ValueError(
            f"spgemm: inner dimensions do not conform: A is "
            f"{A.nrows}x{A.ncols}, B is {B.nrows}x{B.ncols}")


def _expand_rows(rowptr: np.ndarray) -> np.ndarray:
    """The COO row index of every stored entry of a CSR row pointer
    (int64: triples are exchanged wide whatever the storage width)."""
    return np.repeat(np.arange(rowptr.size - 1, dtype=np.int64),
                     np.diff(rowptr))


def _csr_to_triples(rowptr: np.ndarray, cols: np.ndarray):
    """``(rows, cols)`` of the native kernel's CSR arrays at the exchange
    width."""
    return _expand_rows(rowptr), cols.astype(np.int64, copy=False)


def _spgemm_csr_csr_vectorized(A: CsrMatrix, B: CsrMatrix):
    """Vectorized expand-sort-reduce SpGEMM for CSR×CSR (the fallback
    without a toolchain): canonical COO triples of ``C = A B`` plus the
    intermediate-product count, all in NumPy array ops (no scipy).

    Symbolic phase: every stored entry of A expands into the stored
    entries of the B row its column selects — segment arithmetic
    (``repeat``/``cumsum``) builds the flat product list, and a
    ``np.unique`` over row-major output keys is exactly the computed
    output pattern.  Numeric phase: one ``np.add.at`` scatter-add of the
    products onto the unique pattern slots."""
    n = B.ncols
    with INSTR.phase("spgemm.symbolic"):
        a_rows = _expand_rows(A.rowptr)
        counts = (B.rowptr[A.colind + 1] - B.rowptr[A.colind])
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0, dtype=np.float64), 0
        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        bpos = np.repeat(B.rowptr[A.colind], counts) + within
        out_rows = np.repeat(a_rows, counts)
        out_cols = B.colind[bpos]
        keys = out_rows * np.int64(n) + out_cols
        uniq, inverse = np.unique(keys, return_inverse=True)
    with INSTR.phase("spgemm.numeric"):
        prods = np.repeat(A.values, counts) * B.values[bpos]
        vals = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(vals, inverse, prods)
    if n > 0:
        rows, cols = uniq // n, uniq % n
    else:
        rows = cols = uniq
    return rows, cols, vals, total


def _spgemm_product(A: SparseFormat, B: SparseFormat):
    """The product behind :func:`spgemm` / :func:`spgemm_triples`:
    ``(rowptr, rows, cols, vals, nmults)`` in canonical order, where the
    native kernel fills ``rowptr`` (``rows`` is None) and the vectorized
    fallback fills ``rows`` (``rowptr`` is None) — whoever needs the other
    form derives it, so a CSR result never pays for COO rows."""
    from repro.blas import spgemm_native

    _check_spgemm_operands(A, B)
    A, B = convert(A, "csr"), convert(B, "csr")
    try:
        rowptr, cols, vals, nmults = spgemm_native.spgemm_csr_csr_native(A, B)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        from repro.core.backend import native_fallback

        INSTR.count("spgemm.tier.native_fallbacks")
        native_fallback("toolchain", f"spgemm native kernel: {e}")
    else:
        INSTR.count("spgemm.tier.native")
        return rowptr, None, cols, vals, nmults
    INSTR.count("spgemm.tier.vectorized")
    return (None,) + _spgemm_csr_csr_vectorized(A, B)


def spgemm_triples(A: SparseFormat, B: SparseFormat):
    """The computed product structure of ``C = A B`` as canonical COO
    triples ``(rows, cols, vals, nmults)`` — for callers that want a
    different packing (or just the pattern) than :func:`spgemm` builds.

    The native kernel serves it; a missing or failing toolchain falls
    back to the vectorized path *observably*
    (``spgemm.tier.native_fallbacks`` and a
    :class:`~repro.core.backend.NativeBackendWarning`), mirroring the
    compiled-kernel fallback contract."""
    rowptr, rows, cols, vals, nmults = _spgemm_product(A, B)
    if rows is None:
        rows, cols = _csr_to_triples(rowptr, cols)
    return rows, cols, vals, nmults


def spgemm(A: SparseFormat, B: SparseFormat,
           out_format: Optional[str] = None, **format_kwargs) -> SparseFormat:
    """C = A B with both operands sparse; the output's sparsity pattern
    is computed by the symbolic pass, then packed into ``out_format``.

    ``out_format=None`` packs CSR: the native kernel's arrays are wrapped
    as they are, the vectorized fallback's row-major canonical triples
    drop straight into the construction core.  ``out_format="auto"``
    chooses the output format from the *computed* structure's features
    (:func:`repro.search.format_select.select_output_format`) — the
    selection axis where the winner is the output format, not an input's.
    Any other name packs that format (``format_kwargs`` forwarded, e.g.
    ``block_size`` for BSR); a format that rejects the computed structure
    — or whose padded storage would dwarf it — falls back to CSR
    observably (``spgemm.output_fallbacks``).

    An operand's stored zeros are entries, so a DIA operand multiplies
    every in-range cell of its stored diagonals: on ``can_1072`` (12 400
    entries, 1 113 050 DIA cells) ``spgemm(dia, csr)`` stores 1 149 181
    entries in 130-180 ms, ``spgemm(csr, csr)`` 119 392 in 2-4 ms.
    ``convert`` keeps stored zeros too."""
    if format_kwargs and out_format in (None, "csr", "auto"):
        raise TypeError(
            f"spgemm: {', '.join(sorted(format_kwargs))} only apply to a "
            f"named out_format, got out_format={out_format!r}")
    INSTR.count("spgemm.calls")
    rowptr, rows, cols, vals, _nmults = _spgemm_product(A, B)
    shape = (A.nrows, B.ncols)

    def as_csr():
        if rows is None:
            return CsrMatrix._adopt(rowptr, cols, vals, shape)
        return CsrMatrix._from_canonical_coo(rows, cols, vals, shape)

    if out_format is None or out_format == "csr":
        return as_csr()
    if rows is None:
        rows, cols = _csr_to_triples(rowptr, cols)
    if out_format == "auto":
        from repro.search.format_select import select_output_format

        choice = select_output_format(rows, cols, shape)
        out_format, format_kwargs = choice.format_name, choice.format_kwargs
    cls = FORMATS.get(out_format)
    if cls is None:
        raise ValueError(f"spgemm: unknown output format {out_format!r}")
    try:
        return cls._from_canonical_coo(rows, cols, vals, shape,
                                       **format_kwargs)
    except (ValueError, KeyError):
        # the requested/selected output format does not admit the computed
        # structure (BSR divisibility, SYM symmetry, DIA/ELL padding that
        # would not fit in memory, ...): CSR always does
        INSTR.count("spgemm.output_fallbacks")
        return as_csr()
