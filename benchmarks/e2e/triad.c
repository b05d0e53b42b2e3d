/* STREAM triad, single thread: a[i] = b[i] + s * c[i], `reps` passes.
 * Compiled by roofline.py with the same `cc -O3` the native backend uses.
 * `restrict` and the scalar multiply keep the compiler from fusing passes
 * or eliding the stores; the caller times the call and counts
 * 3 * 8 * n bytes per pass (write-allocate traffic is not counted). */
#include <stddef.h>

void triad(double *restrict a, const double *restrict b,
           const double *restrict c, double s, long n, long reps)
{
    for (long r = 0; r < reps; r++) {
        for (long i = 0; i < n; i++)
            a[i] = b[i] + s * c[i];
        s += 1e-9;  /* a different pass each time */
    }
}
