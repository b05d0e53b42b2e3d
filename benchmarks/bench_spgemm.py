"""SpGEMM benchmark: the three dispatch tiers on a 2-D Laplacian squared.

``C = A A`` with A the 5-point Laplacian — the canonical computed-output
product (tridiagonal-block squared is pentadiagonal-block).  Timed tiers:

- ``native``: the compiled two-pass Gustavson kernel, the CSR×CSR default
  (:mod:`repro.blas.spgemm_native`; without a toolchain this row times
  the observable fallback onto the vectorized tier);
- ``vectorized``: the scipy-free NumPy expand-sort-reduce CSR×CSR path;
- ``generic``: the any-format-pair enumeration through ``iter_nonzeros``.

All tiers are byte-identical by contract (the differential wall pins it);
this benchmark cross-checks that on every run, then times them.

Results append to ``BENCH_spgemm.json`` at the repo root via the shared
:func:`benchmarks.conftest.record_bench` appender.

Usage::

    python benchmarks/bench_spgemm.py --n 10000
    python benchmarks/bench_spgemm.py --n 2500 --check

``--check`` (the CI smoke mode) exits non-zero unless the vectorized tier
beats the generic one by the floor (5x at n >= 10000, 2x at smoke sizes)
and the JSON file is a well-formed list of records.
"""

from __future__ import annotations

import math
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for p in (_ROOT, os.path.join(_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402

from benchmarks._cli import base_parser, best_of, check_json, record  # noqa: E402
from repro.blas import dense_ref  # noqa: E402
from repro.blas.api import spgemm  # noqa: E402
from repro.formats import as_format  # noqa: E402
from repro.formats.generate import laplacian_2d  # noqa: E402

BENCH_FILE = "BENCH_spgemm.json"


def run(n, repeats):
    """Returns {tier: seconds} for C = A A on the ~n-row Laplacian."""
    side = max(2, int(round(math.sqrt(n))))
    A = as_format(laplacian_2d(side), "csr")
    n_actual, nnz = A.nrows, A.nnz

    tiers = {
        "native": lambda: spgemm(A, A, tier="native"),
        "vectorized": lambda: spgemm(A, A, tier="vectorized"),
        "generic": lambda: spgemm(A, A, tier="generic"),
    }
    times = {}
    products = {}
    for tier, fn in tiers.items():
        products[tier] = fn()
        times[tier] = best_of(fn, repeats)

    # byte-identity cross-check across all tiers (and, at small sizes,
    # against the dense oracle)
    Cref = products["vectorized"]
    for tier, C in products.items():
        for field in ("rowptr", "colind", "values"):
            if not np.array_equal(getattr(C, field), getattr(Cref, field)):
                raise AssertionError(f"{tier}: {field} diverged from the "
                                     f"vectorized tier")
    if n_actual <= 2000:
        d = A.to_dense()
        if not np.array_equal(Cref.to_dense(), dense_ref.spgemm(d, d)):
            raise AssertionError("vectorized tier diverged from the oracle")

    nmults = int((A.rowptr[A.colind + 1] - A.rowptr[A.colind]).sum())
    flops = dense_ref.flops_spgemm(nmults)
    for tier, secs in times.items():
        record(BENCH_FILE, f"spgemm/laplacian2d/{tier}", secs,
                     flops=flops, n=n_actual, nnz=nnz, nnz_out=Cref.nnz,
                     nmults=nmults,
                     speedup=times["generic"] / secs if secs > 0
                     else float("inf"))
        print(f"  {tier:18s} {secs * 1e3:9.3f} ms   "
              f"vs generic {times['generic'] / secs:6.2f}x")
    print(f"  (n={n_actual}, nnz(A)={nnz}, nnz(C)={Cref.nnz}, "
          f"nmults={nmults})")
    return times


def main(argv=None):
    ap = base_parser(__doc__, n=10000, repeats=5, backend=False)
    args = ap.parse_args(argv)

    print(f"spgemm benchmark: n~{args.n}, C = A A on the 2-D Laplacian")
    times = run(args.n, args.repeats)
    n_entries = check_json(BENCH_FILE)
    print(f"  {BENCH_FILE}: {n_entries} records")

    if args.check:
        speedup = (times["generic"] / times["vectorized"]
                   if times["vectorized"] > 0 else float("inf"))
        # the 5x claim needs array ops to amortize; smoke sizes get 2x
        floor = 5.0 if args.n >= 10000 else 2.0
        if speedup < floor:
            print(f"FAIL: vectorized spgemm {speedup:.2f}x vs generic, "
                  f"below the {floor:.1f}x floor", file=sys.stderr)
            return 1
        print(f"check ok: vectorized {speedup:.2f}x vs generic "
              f"(floor {floor:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
