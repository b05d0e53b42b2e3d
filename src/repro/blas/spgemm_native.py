"""Native-C SpGEMM for CSR×CSR: Gustavson's two-pass algorithm, what
:func:`repro.blas.api.spgemm` runs (on CSR images of other formats).

One pass counts the computed output pattern (and the scalar
multiplications) and leaves the finished row pointer; one accumulates
values through a dense marker/accumulator pair — compiled and cached
through the same machinery as the lowered kernels
(:func:`repro.core.backend.compile_native_function`: artifact digest,
single-flight, disk layer, and the loaded-``.so`` cache that
:func:`repro.core.backend.reset_toolchain_cache` empties, so the binding
is looked up per call and never outlives the toolchain it was built with).

Byte-identity: per output entry, this kernel and the vectorized
fallback both produce ``0.0 + p1 + p2 + ...`` with the products in
(A-row position, B-row position) ascending order — the fallback's flat
expand order and the loop order here.  The marker array stamps the row in the symbolic pass and
``-2 - row`` in the numeric one, so the first pass's residue can never
alias a numeric-pass row and every stamp fits the index type.  Column *indices* are ordered
within each row after the row is accumulated (see ``order_row`` in the C
source for the per-row choice); values are then gathered from the dense
accumulator, so ordering never touches, or reorders the production of,
floating-point data.

Index width: the C source is parameterised on one ``idx_t`` typedef and
compiled once per width (two digests in the same caches).  Every index
array — operands, marker, scratch, output — has that type; loop
variables and counts are ``int64_t`` regardless.  The kernel runs at the
operands' storage width; the symbolic pass counts the output in
``int64_t``, and a product too large for a narrow row pointer is redone
at the wide width instead of wrapping.

A missing toolchain or failed compile raises from :func:`bind`;
:func:`repro.blas.api.spgemm_triples` translates that into an observable
fallback onto the vectorized path.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from repro.instrument import INSTR

#: per-row ordering thresholds, substituted into the C source (the
#: differential tests build rows on both sides of each): a row whose
#: column span is under ``SWEEP_SPAN`` times its length is read back in
#: order from the marker; otherwise rows shorter than ``RADIX_MIN`` are
#: insertion-sorted and longer ones radix-sorted
RADIX_MIN = 64
SWEEP_SPAN = 8

C_SOURCE = """\
typedef __INT32_TYPE__ int32_t;     /* no header: the unit links no libc */
typedef __INT64_TYPE__ int64_t;

typedef %(IDX_T)s idx_t;   /* element type of every index array */

#define RADIX_MIN %(RADIX_MIN)d
#define SWEEP_SPAN %(SWEEP_SPAN)d

static void insertion_sort(idx_t *a, int64_t n) {
    /* a short row is a few already-sorted B-row runs: few inversions */
    for (int64_t i = 1; i < n; i++) {
        idx_t v = a[i];
        int64_t j = i;
        while (j > 0 && a[j - 1] > v) { a[j] = a[j - 1]; j--; }
        a[j] = v;
    }
}

static void radix_sort(idx_t *a, idx_t *tmp, int64_t n,
                       int64_t cmin, int64_t span) {
    /* LSD radix on (col - cmin), one byte per pass: linear in n, and
       only as many passes as the row's own column span needs */
    idx_t *src = a, *dst = tmp;
    for (int shift = 0; (span >> shift) > 0; shift += 8) {
        int64_t start[257] = {0};
        for (int64_t i = 0; i < n; i++)
            start[(((src[i] - cmin) >> shift) & 255) + 1]++;
        for (int b = 0; b < 256; b++) start[b + 1] += start[b];
        for (int64_t i = 0; i < n; i++)
            dst[start[((src[i] - cmin) >> shift) & 255]++] = src[i];
        idx_t *t = src; src = dst; dst = t;
    }
    if (src != a) __builtin_memcpy(a, src, n * sizeof *a);
}

static void order_row(idx_t *cols, idx_t *tmp, int64_t len,
                      int64_t cmin, int64_t cmax,
                      const idx_t *marker, int64_t stamp) {
    /* sort one output row's column indices, choosing from what the
       numeric loop already knows: a row dense in its own span is read
       back in order from the marker; otherwise short rows are
       insertion-sorted and long ones radix-sorted */
    if (len < 2) return;
    int64_t span = cmax - cmin;
    if (span < SWEEP_SPAN * len) {
        /* branch-free: store every candidate, advance past the stamped
           ones; cmax is stamped, so t < len until it is stored last */
        int64_t t = 0;
        for (int64_t c = cmin; c < cmax; c++) {
            cols[t] = (idx_t)c;
            t += (marker[c] == stamp);
        }
        cols[t] = (idx_t)cmax;
    } else if (len < RADIX_MIN) {
        insertion_sort(cols, len);
    } else {
        radix_sort(cols, tmp, len, cmin, span);
    }
}

void kernel(int64_t phase, int64_t m, int64_t n,
            const idx_t * restrict a_ptr,
            const idx_t * restrict a_col,
            const double * restrict a_val,
            const idx_t * restrict b_ptr,
            const idx_t * restrict b_col,
            const double * restrict b_val,
            idx_t * restrict marker,
            idx_t * restrict c_ptr,
            double * restrict c_acc,
            int64_t * restrict info,
            idx_t * restrict c_col,
            double * restrict c_val,
            idx_t * restrict tmp) {
    if (phase == 0) {
        /* symbolic: the output row pointer, the multiplication count,
           the longest output row (sizes the radix scratch) and the output
           size — counted in int64_t whatever idx_t is, so the caller can
           tell a row pointer that did not fit from one that did */
        int64_t nmults = 0, longest = 0, total = 0;
        c_ptr[0] = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t count = 0;
            for (int64_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
                int64_t j = a_col[jj];
                nmults += b_ptr[j + 1] - b_ptr[j];
                for (int64_t kk = b_ptr[j]; kk < b_ptr[j + 1]; kk++) {
                    int64_t c = b_col[kk];
                    if (marker[c] != i) { marker[c] = (idx_t)i; count++; }
                }
            }
            if (count > longest) longest = count;
            total += count;
            c_ptr[i + 1] = (idx_t)total;
        }
        info[0] = nmults;
        info[1] = longest;
        info[2] = total;
        return;
    }
    /* numeric: accumulate through the dense marker, order the columns,
       gather the values */
    for (int64_t i = 0; i < m; i++) {
        int64_t stamp = -2 - i;         /* phase 0 stamped rows >= 0 */
        int64_t lo = c_ptr[i], top = lo;
        int64_t cmin = n, cmax = -1;
        for (int64_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
            int64_t j = a_col[jj];
            double av = a_val[jj];
            for (int64_t kk = b_ptr[j]; kk < b_ptr[j + 1]; kk++) {
                int64_t c = b_col[kk];
                if (marker[c] != stamp) {
                    marker[c] = (idx_t)stamp;
                    c_acc[c] = 0.0;
                    c_col[top++] = (idx_t)c;
                    if (c < cmin) cmin = c;
                    if (c > cmax) cmax = c;
                }
                c_acc[c] = c_acc[c] + av * b_val[kk];
            }
        }
        order_row(c_col + lo, tmp, top - lo, cmin, cmax, marker, stamp);
        for (int64_t t = lo; t < top; t++) c_val[t] = c_acc[c_col[t]];
    }
}
"""

_ARGTYPES = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 13


def bind(idx):
    """Compile (or fetch from the ``.so`` cache) and ctype-bind the SpGEMM
    kernel for index arrays of dtype ``idx`` (``np.int32``/``np.int64``).
    Raises when no toolchain is available or the compile fails."""
    from repro.core import backend as be

    source = C_SOURCE % {"IDX_T": np.dtype(idx).name + "_t",
                         "RADIX_MIN": RADIX_MIN, "SWEEP_SPAN": SWEEP_SPAN}
    fn, _ = be.compile_native_function(source, want_openmp=False,
                                       cache_mode="memory")
    if fn.argtypes is None:
        fn.argtypes = _ARGTYPES
        fn.restype = None
    return fn


def spgemm_csr_csr_native(A, B, idx=None
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``C = A B`` for CSR×CSR: canonical CSR arrays ``(rowptr, colind,
    values)`` plus the multiplication count, byte-identical to the
    vectorized fallback.  ``idx`` defaults to the operands' index width
    (``int64`` unless all four arrays are ``int32``); the output arrays
    have the width :func:`repro.formats.base.index_dtype` gives the
    product, so :class:`CsrMatrix` wraps them without a copy.  Raises
    like :func:`bind` without a toolchain."""
    from repro.formats.base import index_dtype

    m, n = A.nrows, B.ncols
    if idx is None:
        operands = (A.rowptr, A.colind, B.rowptr, B.colind)
        idx = (np.int32 if all(a.dtype == np.int32 for a in operands)
               else np.int64)
    fn = bind(idx)
    a_ptr = np.ascontiguousarray(A.rowptr, dtype=idx)
    a_col = np.ascontiguousarray(A.colind, dtype=idx)
    a_val = np.ascontiguousarray(A.values, dtype=np.float64)
    b_ptr = np.ascontiguousarray(B.rowptr, dtype=idx)
    b_col = np.ascontiguousarray(B.colind, dtype=idx)
    b_val = np.ascontiguousarray(B.values, dtype=np.float64)
    marker = np.full(n, -1, dtype=idx)
    c_ptr = np.empty(m + 1, dtype=idx)
    c_acc = np.empty(n, dtype=np.float64)
    info = np.zeros(3, dtype=np.int64)  # counts, not indices: always wide
    shared = [m, n] + [a.ctypes.data for a in (
        a_ptr, a_col, a_val, b_ptr, b_col, b_val, marker, c_ptr, c_acc, info)]

    with INSTR.phase("spgemm.symbolic"):
        fn(0, *shared, None, None, None)    # the outputs are not sized yet
    nmults, longest, total = (int(v) for v in info)
    out = index_dtype(max(m, n, total))
    if idx == np.int32 and out != np.int32:
        # the narrow row pointer wrapped: the product needs wide arrays
        return spgemm_csr_csr_native(A, B, np.int64)
    c_col = np.empty(total, dtype=idx)
    c_val = np.empty(total, dtype=np.float64)
    tmp = np.empty(longest, dtype=idx)
    with INSTR.phase("spgemm.numeric"):
        fn(1, *shared, c_col.ctypes.data, c_val.ctypes.data, tmp.ctypes.data)
    if out != idx:
        # wide operands (a huge inner dimension), small product
        c_ptr, c_col = c_ptr.astype(out), c_col.astype(out)
    return c_ptr, c_col, c_val, nmults
