"""Native-C SpGEMM for CSR×CSR: Gustavson's two-pass algorithm, the
default tier of :func:`repro.blas.api.spgemm`.

One pass counts the computed output pattern (and the scalar
multiplications) and leaves the finished row pointer; one accumulates
values through a dense marker/accumulator pair — compiled and cached
through the same machinery as the lowered kernels
(:func:`repro.core.backend.compile_native_function`: artifact digest,
single-flight, disk layer, and the loaded-``.so`` cache that
:func:`repro.core.backend.reset_toolchain_cache` empties, so the binding
is looked up per call and never outlives the toolchain it was built with).

Byte-identity: per output entry, every tier produces ``0.0 + p1 + p2 +
...`` with the products in (A-row position, B-row position) ascending
order — the flat expand order of the vectorized tier and the loop order
here.  The marker array stamps ``phase * m + row`` so the symbolic pass's
residue can never alias a numeric-pass row.  Column *indices* are ordered
within each row after the row is accumulated (see ``order_row`` in the C
source for the per-row choice); values are then gathered from the dense
accumulator, so ordering never touches, or reorders the production of,
floating-point data.

A missing toolchain or failed compile raises from :func:`bind`;
:func:`repro.blas.api.spgemm_triples` translates that into an observable
fallback onto the vectorized tier.
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
#include <stdint.h>
#include <string.h>

#define RADIX_MIN %(RADIX_MIN)d
#define SWEEP_SPAN %(SWEEP_SPAN)d

static void insertion_sort(int64_t *a, int64_t n) {
    /* a short row is a few already-sorted B-row runs: few inversions */
    for (int64_t i = 1; i < n; i++) {
        int64_t v = a[i], j = i;
        while (j > 0 && a[j - 1] > v) { a[j] = a[j - 1]; j--; }
        a[j] = v;
    }
}

static void radix_sort(int64_t *a, int64_t *tmp, int64_t n,
                       int64_t cmin, int64_t span) {
    /* LSD radix on (col - cmin), one byte per pass: linear in n, and
       only as many passes as the row's own column span needs */
    int64_t *src = a, *dst = tmp;
    for (int shift = 0; (span >> shift) > 0; shift += 8) {
        int64_t start[257] = {0};
        for (int64_t i = 0; i < n; i++)
            start[(((src[i] - cmin) >> shift) & 255) + 1]++;
        for (int b = 0; b < 256; b++) start[b + 1] += start[b];
        for (int64_t i = 0; i < n; i++)
            dst[start[((src[i] - cmin) >> shift) & 255]++] = src[i];
        int64_t *t = src; src = dst; dst = t;
    }
    if (src != a) memcpy(a, src, (size_t)n * sizeof *a);
}

static void order_row(int64_t *cols, int64_t *tmp, int64_t len,
                      int64_t cmin, int64_t cmax,
                      const int64_t *marker, int64_t stamp) {
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
            cols[t] = c;
            t += (marker[c] == stamp);
        }
        cols[t] = cmax;
    } else if (len < RADIX_MIN) {
        insertion_sort(cols, len);
    } else {
        radix_sort(cols, tmp, len, cmin, span);
    }
}

void kernel(int64_t phase, int64_t m, int64_t n,
            const int64_t * restrict a_ptr,
            const int64_t * restrict a_col,
            const double * restrict a_val,
            const int64_t * restrict b_ptr,
            const int64_t * restrict b_col,
            const double * restrict b_val,
            int64_t * restrict marker,
            int64_t * restrict c_ptr,
            double * restrict c_acc,
            int64_t * restrict info,
            int64_t * restrict c_col,
            double * restrict c_val,
            int64_t * restrict tmp) {
    if (phase == 0) {
        /* symbolic: the output row pointer, the multiplication count
           and the longest output row (sizes the radix scratch) */
        int64_t nmults = 0, longest = 0;
        c_ptr[0] = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t count = 0;
            for (int64_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
                int64_t j = a_col[jj];
                nmults += b_ptr[j + 1] - b_ptr[j];
                for (int64_t kk = b_ptr[j]; kk < b_ptr[j + 1]; kk++) {
                    int64_t c = b_col[kk];
                    if (marker[c] != i) { marker[c] = i; count++; }
                }
            }
            if (count > longest) longest = count;
            c_ptr[i + 1] = c_ptr[i] + count;
        }
        info[0] = nmults;
        info[1] = longest;
        return;
    }
    /* numeric: accumulate through the dense marker, order the columns,
       gather the values */
    for (int64_t i = 0; i < m; i++) {
        int64_t stamp = m + i;          /* never collides with phase 0 */
        int64_t lo = c_ptr[i], top = lo;
        int64_t cmin = n, cmax = -1;
        for (int64_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
            int64_t j = a_col[jj];
            double av = a_val[jj];
            for (int64_t kk = b_ptr[j]; kk < b_ptr[j + 1]; kk++) {
                int64_t c = b_col[kk];
                if (marker[c] != stamp) {
                    marker[c] = stamp;
                    c_acc[c] = 0.0;
                    c_col[top++] = c;
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
""" % {"RADIX_MIN": RADIX_MIN, "SWEEP_SPAN": SWEEP_SPAN}

_ARGTYPES = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 13


def bind():
    """Compile (or fetch from the ``.so`` cache) and ctype-bind the SpGEMM
    kernel.  Raises when no toolchain is available or the compile fails."""
    from repro.core import backend as be

    fn, _ = be.compile_native_function(C_SOURCE, want_openmp=False,
                                       cache_mode="memory")
    if fn.argtypes is None:
        fn.argtypes = _ARGTYPES
        fn.restype = None
    return fn


def spgemm_csr_csr_native(fn, A, B
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``C = A B`` for CSR×CSR through the bound kernel ``fn`` (from
    :func:`bind`): canonical CSR arrays ``(rowptr, colind, values)`` plus
    the multiplication count, byte-identical to the vectorized tier."""
    m, n = A.nrows, B.ncols
    a_ptr = np.ascontiguousarray(A.rowptr, dtype=np.int64)
    a_col = np.ascontiguousarray(A.colind, dtype=np.int64)
    a_val = np.ascontiguousarray(A.values, dtype=np.float64)
    b_ptr = np.ascontiguousarray(B.rowptr, dtype=np.int64)
    b_col = np.ascontiguousarray(B.colind, dtype=np.int64)
    b_val = np.ascontiguousarray(B.values, dtype=np.float64)
    marker = np.full(n, -1, dtype=np.int64)
    c_ptr = np.empty(m + 1, dtype=np.int64)
    c_acc = np.empty(n, dtype=np.float64)
    info = np.zeros(2, dtype=np.int64)
    shared = [m, n] + [a.ctypes.data for a in (
        a_ptr, a_col, a_val, b_ptr, b_col, b_val, marker, c_ptr, c_acc, info)]

    with INSTR.phase("spgemm.symbolic"):
        fn(0, *shared, None, None, None)    # the outputs are not sized yet
    nmults, longest = int(info[0]), int(info[1])
    c_col = np.empty(int(c_ptr[m]), dtype=np.int64)
    c_val = np.empty(c_col.size, dtype=np.float64)
    tmp = np.empty(longest, dtype=np.int64)
    with INSTR.phase("spgemm.numeric"):
        fn(1, *shared, c_col.ctypes.data, c_val.ctypes.data, tmp.ctypes.data)
    return c_ptr, c_col, c_val, nmults
