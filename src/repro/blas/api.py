"""Uniform BLAS dispatch: specialized kernel when one exists for the
format, generic fallback otherwise (SpGEMM has its own tiers, below).
This is the layer the iterative solvers (:mod:`repro.solvers`) call — the
PETSc-style arrangement the paper describes in Section 1
(format-independent iterative methods linked against format-specific
BLAS).

**Kernel handles** — the module also keeps a kernel-handle cache so code
written against this plain functional API transparently rides the solver
fast path.  When a :class:`~repro.solvers.context.SolverContext` binds a
compiled (possibly native) kernel to a matrix instance, it registers the
bound entry point here; later ``mvm(A, x)`` calls for that same instance
dispatch straight through the handle instead of the per-call table walk.
Handles are stored on the instance itself (attribute
``_kernel_handles``), so their lifetime is exactly the matrix's lifetime
and the cache needs no eviction policy.  ``blas.handle.hits`` counts the
dispatches served this way.
"""

from __future__ import annotations

import subprocess
from typing import Callable, Optional

import numpy as np

from repro.blas import generic_, specialized
from repro.formats.base import SparseFormat
from repro.formats.csr import CsrMatrix
from repro.instrument import INSTR

#: instance attribute holding the per-matrix handle dict {op: callable}
_HANDLE_ATTR = "_kernel_handles"


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


def _alloc2(shape, A: SparseFormat, x: np.ndarray) -> np.ndarray:
    """A fresh output array of any shape in the promoted dtype of the
    operands — ``np.zeros(shape)`` alone would silently force float64 onto
    float32/int workloads (and break native-backend byte parity)."""
    return np.zeros(shape, dtype=np.result_type(A.dtype, x.dtype))


def _alloc(n: int, A: SparseFormat, x: np.ndarray) -> np.ndarray:
    """1-D special case of :func:`_alloc2` (the matvec/solve outputs)."""
    return _alloc2(n, A, x)


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


def _check_out(op: str, out: np.ndarray, shape, result_dtype) -> None:
    """Validate a caller-provided output: the shape must match and the
    promoted product dtype must be safely representable — writing float64
    products into an int or float32 buffer silently truncated before."""
    if tuple(out.shape) != tuple(shape):
        raise ValueError(
            f"{op}: caller-provided output has shape {tuple(out.shape)}, "
            f"expected {tuple(shape)}")
    if not np.can_cast(result_dtype, out.dtype, casting="safe"):
        raise ValueError(
            f"{op}: writing {np.dtype(result_dtype)} products into a "
            f"caller-provided {out.dtype} output would truncate; pass a "
            f"{np.dtype(result_dtype)} buffer (or omit it)")


def mvm(A: SparseFormat, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """y = A x."""
    _check_vector("mvm", "x", A, x, A.ncols)
    if y is None:
        y = _alloc(A.nrows, A, x)
    else:
        _check_out("mvm", y, (A.nrows,), np.result_type(A.dtype, x.dtype))
    h = kernel_handle(A, "mvm")
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h(x, y)
    return dispatch_mvm(A, x, y)


def mm(A: SparseFormat, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Y = A X with ``X`` a dense ``n × k`` panel (SpMM)."""
    _check_panel("mm", A, X, A.ncols)
    if Y is None:
        Y = _alloc2((A.nrows, X.shape[1]), A, X)
    else:
        _check_out("mm", Y, (A.nrows, X.shape[1]),
                   np.result_type(A.dtype, X.dtype))
    if X.shape[1] == 0:
        return Y  # empty panel: (m, 0) result, nothing to dispatch
    h = kernel_handle(A, "spmm")
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h(X, Y)
    return dispatch_mm(A, X, Y)


def mm_t(A: SparseFormat, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Y = A^T X with ``X`` a dense ``m × k`` panel."""
    _check_panel("mm_t", A, X, A.nrows)
    if Y is None:
        Y = _alloc2((A.ncols, X.shape[1]), A, X)
    else:
        _check_out("mm_t", Y, (A.ncols, X.shape[1]),
                   np.result_type(A.dtype, X.dtype))
    if X.shape[1] == 0:
        return Y
    h = kernel_handle(A, "spmm_t")
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h(X, Y)
    return dispatch_mm_t(A, X, Y)


def mvm_t(A: SparseFormat, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """y = A^T x."""
    _check_vector("mvm_t", "x", A, x, A.nrows)
    if y is None:
        y = _alloc(A.ncols, A, x)
    else:
        _check_out("mvm_t", y, (A.ncols,), np.result_type(A.dtype, x.dtype))
    h = kernel_handle(A, "mvm_t")
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h(x, y)
    return dispatch_mvm_t(A, x, y)


def ts_lower_solve(L: SparseFormat, b: np.ndarray, in_place: bool = False) -> np.ndarray:
    """b := L^{-1} b (forward substitution).

    The solve writes quotients: an integer (or narrower-float) ``b``
    cannot hold them.  With ``in_place=False`` the working copy is
    promoted to the result dtype; with ``in_place=True`` a lossy ``b``
    is rejected instead of silently truncated."""
    _check_vector("ts_lower_solve", "b", L, b, L.nrows)
    rt = np.result_type(L.dtype, b.dtype)
    if not in_place:
        b = b.astype(rt, copy=True)
    elif not np.can_cast(rt, b.dtype, casting="safe"):
        raise ValueError(
            f"ts_lower_solve: in-place solve writes {np.dtype(rt)} values "
            f"into a {b.dtype} b, which would truncate; promote b or use "
            f"in_place=False")
    h = kernel_handle(L, "ts_lower")
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h(b)
    return dispatch_ts_lower(L, b)


def ts_upper_solve(U: SparseFormat, b: np.ndarray, in_place: bool = False) -> np.ndarray:
    """b := U^{-1} b (backward substitution).  Same dtype contract as
    :func:`ts_lower_solve`."""
    _check_vector("ts_upper_solve", "b", U, b, U.nrows)
    rt = np.result_type(U.dtype, b.dtype)
    if not in_place:
        b = b.astype(rt, copy=True)
    elif not np.can_cast(rt, b.dtype, casting="safe"):
        raise ValueError(
            f"ts_upper_solve: in-place solve writes {np.dtype(rt)} values "
            f"into a {b.dtype} b, which would truncate; promote b or use "
            f"in_place=False")
    h = kernel_handle(U, "ts_upper")
    if h is not None:
        INSTR.count("blas.handle.hits")
        return h(b)
    return dispatch_ts_upper(U, b)


# ---------------------------------------------------------------------------
# SpGEMM: C = A B with both operands sparse.  Unlike every operation above,
# the output's sparsity pattern is *computed*, not declared — the paper's
# framework covers kernels whose output structure is given up front, so the
# sparse×sparse product has its own dispatch: one fast tier, one portable
# tier, one oracle.
#
# - ``native`` (the CSR×CSR default): the compiled two-pass Gustavson
#   kernel of :mod:`repro.blas.spgemm_native`.  It assembles the result
#   row by row straight into CSR arrays, which :func:`spgemm` wraps without
#   a COO round trip — 1.0–1.1× the speed of ``scipy.sparse``'s ``S @ S`` on
#   the n = 90k Laplacian and 0.8–0.9× on the n = 50k power-law matrix of
#   ``benchmarks/e2e``, with sorted indices (scipy's are not).
# - ``vectorized``: NumPy expand-sort-reduce over the materialized
#   products, CSR×CSR, no toolchain needed (0.04× and 0.14× scipy's speed
#   on the same two operands).  The native tier falls back onto it
#   observably (``spgemm.tier.native_fallbacks`` + NativeBackendWarning)
#   when the kernel cannot be built.
# - ``generic``: enumeration over any format pair via ``iter_nonzeros`` +
#   COO dedup — the default for every non-CSR pair and the tests' oracle.
#
# All tiers produce identical canonical output (sorted rows, sorted
# columns within rows, duplicates summed, cancelled zeros kept) — byte-
# for-byte on integer data, which the differential wall pins.
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
    """``(rows, cols)`` of the native tier's CSR arrays at the exchange
    width."""
    return _expand_rows(rowptr), cols.astype(np.int64, copy=False)


def _spgemm_csr_csr_vectorized(A: CsrMatrix, B: CsrMatrix):
    """Vectorized expand-sort-reduce SpGEMM for CSR×CSR (the portable
    tier): canonical COO triples of ``C = A B`` plus the intermediate-
    product count, all in NumPy array ops (no scipy, no toolchain).

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


def _spgemm_product(A: SparseFormat, B: SparseFormat, tier: Optional[str]):
    """Tier dispatch behind :func:`spgemm` / :func:`spgemm_triples`:
    ``(rowptr, rows, cols, vals, nmults)`` in canonical order, where the
    native tier fills ``rowptr`` (``rows`` is None) and the others fill
    ``rows`` (``rowptr`` is None) — whoever needs the other form derives
    it, so a CSR result never pays for COO rows."""
    _check_spgemm_operands(A, B)
    both_csr = type(A) is CsrMatrix and type(B) is CsrMatrix
    if tier is None:
        tier = "native" if both_csr else "generic"
    if tier in ("native", "vectorized"):
        if not both_csr:
            raise ValueError(
                f"spgemm: the {tier} tier needs CSR operands, got "
                f"{A.format_name}x{B.format_name}")
        if tier == "native":
            from repro.blas import spgemm_native

            try:
                rowptr, cols, vals, nmults = \
                    spgemm_native.spgemm_csr_csr_native(A, B)
            except (RuntimeError, OSError, subprocess.SubprocessError) as e:
                from repro.core.backend import native_fallback

                INSTR.count("spgemm.tier.native_fallbacks")
                native_fallback("toolchain", f"spgemm native tier: {e}")
            else:
                INSTR.count("spgemm.tier.native")
                return rowptr, None, cols, vals, nmults
        INSTR.count("spgemm.tier.vectorized")
        return (None,) + _spgemm_csr_csr_vectorized(A, B)
    if tier == "generic":
        INSTR.count("spgemm.tier.generic")
        with INSTR.phase("spgemm.enumerate"):
            return (None,) + generic_.spgemm_coo(A, B)
    raise ValueError(f"tier must be 'native', 'vectorized' or 'generic', "
                     f"got {tier!r}")


def spgemm_triples(A: SparseFormat, B: SparseFormat,
                   tier: Optional[str] = None):
    """The computed product structure of ``C = A B`` as canonical COO
    triples ``(rows, cols, vals, nmults)`` — for callers that want a
    different packing (or just the pattern) than :func:`spgemm` builds.

    ``tier`` forces a specific implementation (``"native"`` /
    ``"vectorized"`` / ``"generic"``; the differential suite and the
    benchmark compare them); None picks native for CSR×CSR and generic
    for every other pair.  The native and vectorized tiers raise on
    operands of another format; a missing/failing toolchain makes the
    native tier fall back to the vectorized one *observably*
    (``spgemm.tier.native_fallbacks`` and a
    :class:`~repro.core.backend.NativeBackendWarning`), mirroring the
    compiled-kernel fallback contract."""
    rowptr, rows, cols, vals, nmults = _spgemm_product(A, B, tier)
    if rows is None:
        rows, cols = _csr_to_triples(rowptr, cols)
    return rows, cols, vals, nmults


def spgemm(A: SparseFormat, B: SparseFormat,
           out_format: Optional[str] = None,
           tier: Optional[str] = None, **format_kwargs) -> SparseFormat:
    """C = A B with both operands sparse; the output's sparsity pattern
    is computed by the symbolic pass, then packed into ``out_format``.

    ``out_format=None`` packs CSR: the native tier's arrays are wrapped as
    they are, the other tiers' row-major canonical triples drop straight
    into the construction core.  ``out_format="auto"`` chooses the output
    format from the *computed* structure's features
    (:func:`repro.search.format_select.select_output_format`) — the
    selection axis where the winner is the output format, not an input's.
    Any other name packs that format (``format_kwargs`` forwarded, e.g.
    ``block_size`` for BSR); a format that rejects the computed structure
    — or whose padded storage would dwarf it — falls back to CSR
    observably (``spgemm.output_fallbacks``)."""
    INSTR.count("spgemm.calls")
    rowptr, rows, cols, vals, _nmults = _spgemm_product(A, B, tier)
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
    from repro.formats.convert import FORMATS
    from repro.search.format_select import check_padded_storage

    cls = FORMATS.get(out_format)
    if cls is None:
        raise ValueError(f"spgemm: unknown output format {out_format!r}")
    try:
        check_padded_storage(out_format, rows, cols, shape)
        return cls._from_canonical_coo(rows, cols, vals, shape,
                                       **format_kwargs)
    except (ValueError, KeyError):
        # the requested/selected output format does not admit the computed
        # structure (BSR divisibility, SYM symmetry, DIA/ELL padding that
        # would not fit in memory, ...): CSR always does
        INSTR.count("spgemm.output_fallbacks")
        return as_csr()


# -- handle-free dispatch (the pre-context per-call path; also the tier the
#    SolverContext falls back to when an operation has no compiled kernel) --

def dispatch_mvm(A: SparseFormat, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fn = specialized.MVM.get(A.format_name)
    if fn is not None:
        return fn(A, x, y)
    return generic_.mvm(A, x, y)


def dispatch_mvm_t(A: SparseFormat, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fn = specialized.MVM_T.get(A.format_name)
    if fn is not None:
        return fn(A, x, y)
    return generic_.mvm_t(A, x, y)


def dispatch_mm(A: SparseFormat, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    fn = specialized.MM.get(A.format_name)
    if fn is not None:
        return fn(A, X, Y)
    return generic_.mm(A, X, Y)


def dispatch_mm_t(A: SparseFormat, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    fn = specialized.MM_T.get(A.format_name)
    if fn is not None:
        return fn(A, X, Y)
    return generic_.mm_t(A, X, Y)


def dispatch_ts_lower(L: SparseFormat, b: np.ndarray) -> np.ndarray:
    fn = specialized.TS_LOWER.get(L.format_name)
    if fn is not None:
        return fn(L, b)
    return generic_.ts_lower_enum(L, b)


def dispatch_ts_upper(U: SparseFormat, b: np.ndarray) -> np.ndarray:
    fn = specialized.TS_UPPER.get(U.format_name)
    if fn is not None:
        return fn(U, b)
    return generic_.ts_upper(U, b)
