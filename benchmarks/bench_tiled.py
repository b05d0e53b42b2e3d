"""Tiled-tier benchmark: cache-blocked native codegen vs the naive tier.

Three families, each timing the *same lowered IR* compiled at
``opt="none"`` and ``opt="tiled"``:

- banded matvec (DIA): strip-mined rows + absorbed band guards + SIMD;
- SpMM over a banded CSR matrix: register-tiled dense panels;
- SpGEMM on a 2-D Laplacian: the handwritten native Gustavson kernel vs
  the vectorized NumPy tier (a tier comparison, not a codegen one).

Methodology for this box: timings are noisy, so the two variants are
*interleaved* trial by trial and compared by median, and the generated
kernels are dispatched directly through their bound
:class:`repro.core.backend.NativeKernel` — the ``run()`` wrapper's
validation would otherwise compress microsecond-scale ratios.  Every
record lands in ``BENCH_tiled.json`` with the toolchain stamp, and both
variants' outputs are asserted byte-identical before anything is timed.

Usage::

    python benchmarks/bench_tiled.py --n 10000
    python benchmarks/bench_tiled.py --n 2000 --check

``--check`` (the CI smoke mode) exits non-zero if the tiled tier is more
than 10% slower than naive on any banded-family case, or if the
trajectory file is malformed.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for p in (_ROOT, os.path.join(_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402

from benchmarks._cli import base_parser, check_json, record, toolchain_info  # noqa: E402
from repro.core import compile_kernel  # noqa: E402
from repro.core.compiler import infer_param_values  # noqa: E402
from repro.formats import as_format  # noqa: E402
from repro.formats.generate import banded, laplacian_2d  # noqa: E402
from repro.ir.kernels import ALL_KERNELS  # noqa: E402

BENCH_FILE = "BENCH_tiled.json"

#: tiled/naive floor every banded-family case must clear in --check
CHECK_FLOOR = 0.9


def interleaved_medians(fn_a, fn_b, trials):
    """Median seconds of ``trials`` alternating a/b runs — interleaving
    spreads machine noise over both variants instead of one."""
    ta, tb = [], []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn_a()
        ta.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        tb.append(time.perf_counter() - t0)
    return statistics.median(ta), statistics.median(tb)


def _bound_native(program, inst, opt, arrays, params):
    """Compile at ``opt`` and return a zero-arg closure dispatching the
    bound NativeKernel directly (None when the native bind fell back)."""
    kernel = compile_kernel(program, {"A": inst}, backend="c", opt=opt)
    nk = kernel.native()
    if nk is None or kernel.opt_used != opt:
        return None, kernel
    return (lambda: nk(arrays, params)), kernel


def _one_pair(label, program, inst, arrays, params, out_name, trials):
    """Time naive vs tiled on one case; returns the ratio or None when
    the native tier is unavailable.  Asserts byte-identity first."""
    out = arrays[out_name]
    f_naive, k_naive = _bound_native(program, inst, "none", arrays, params)
    f_tiled, k_tiled = _bound_native(program, inst, "tiled", arrays, params)
    if f_naive is None or f_tiled is None:
        print(f"  {label}: native tier unavailable "
              f"({k_naive.fallback_reason or k_tiled.fallback_reason}) — skipped")
        return None

    out[:] = 0.0
    f_naive()
    ref = out.copy()
    out[:] = 0.0
    f_tiled()
    if out.tobytes() != ref.tobytes():
        raise AssertionError(f"{label}: tiled output not byte-identical")

    t_naive, t_tiled = interleaved_medians(f_naive, f_tiled, trials)
    ratio = t_naive / t_tiled if t_tiled > 0 else float("inf")
    record(BENCH_FILE, f"{label}/naive", t_naive, n=inst.nrows,
           nnz=inst.nnz, opt="none", transforms=k_naive.native().spec.transforms)
    record(BENCH_FILE, f"{label}/tiled", t_tiled, n=inst.nrows,
           nnz=inst.nnz, opt="tiled", speedup=ratio,
           transforms=k_tiled.native().spec.transforms)
    print(f"  {label:28s} naive {t_naive * 1e6:9.1f} us   "
          f"tiled {t_tiled * 1e6:9.1f} us   {ratio:5.2f}x "
          f"{k_tiled.native().spec.transforms}")
    return ratio


def run_mvm(n, trials, rng):
    """Banded matvec through DIA: the strip-mine + guard-absorb + SIMD
    showcase.  Returns {case: ratio}."""
    program = ALL_KERNELS["mvm"]()
    ratios = {}
    for size, bw in ((n, 8), (2 * n, 16)):
        inst = as_format(banded(size, bandwidth=bw, seed=7), "dia")
        params = {k: int(v) for k, v in
                  infer_param_values(program, {"A": inst}).items()}
        arrays = {"A": inst, "x": rng.random(inst.ncols),
                  "y": np.zeros(inst.nrows)}
        r = _one_pair(f"mvm/dia/banded-n{size}-bw{bw}", program, inst,
                      arrays, params, "y", trials)
        if r is not None:
            ratios[f"mvm-n{size}"] = r
    return ratios


def run_spmm(n, trials, rng):
    """Banded SpMM through CSR: the register-tiled panel showcase."""
    program = ALL_KERNELS["spmm"]()
    ratios = {}
    inst = as_format(banded(n, bandwidth=4, seed=7), "csr")
    for k in (16, 64):
        params = {p: int(v) for p, v in
                  infer_param_values(program, {"A": inst}).items()}
        params["k"] = k
        arrays = {"A": inst, "X": rng.random((inst.ncols, k)),
                  "Y": np.zeros((inst.nrows, k))}
        r = _one_pair(f"spmm/csr/banded-n{n}-k{k}", program, inst,
                      arrays, params, "Y", trials)
        if r is not None:
            ratios[f"spmm-k{k}"] = r
    return ratios


def run_spgemm(n, trials):
    """Native Gustavson SpGEMM vs the vectorized NumPy tier on a 2-D
    Laplacian, byte-identity enforced on the canonical triples."""
    from repro.blas import api as blas_api
    from repro.core.backend import find_compiler

    side = max(2, int(round(math.sqrt(n))))
    A = as_format(laplacian_2d(side), "csr")
    if find_compiler() is None:
        print("  spgemm: native tier unavailable (no toolchain) — skipped")
        return None
    native = blas_api.spgemm_triples(A, A, tier="native")
    vec = blas_api.spgemm_triples(A, A, tier="vectorized")
    for got, want, what in zip(native[:3], vec[:3],
                               ("rows", "cols", "vals")):
        if got.tobytes() != np.ascontiguousarray(want).tobytes():
            raise AssertionError(f"spgemm {what} not byte-identical")

    t_nat, t_vec = interleaved_medians(
        lambda: blas_api.spgemm_triples(A, A, tier="native"),
        lambda: blas_api.spgemm_triples(A, A, tier="vectorized"), trials)
    ratio = t_vec / t_nat if t_nat > 0 else float("inf")
    label = f"spgemm/laplacian2d-{side}"
    record(BENCH_FILE, f"{label}/vectorized", t_vec, n=A.nrows, nnz=A.nnz)
    record(BENCH_FILE, f"{label}/native", t_nat, n=A.nrows, nnz=A.nnz,
           speedup=ratio)
    print(f"  {label:28s} vec   {t_vec * 1e3:9.2f} ms   "
          f"native {t_nat * 1e3:8.2f} ms   {ratio:5.2f}x")
    return ratio


def main(argv=None):
    ap = base_parser(__doc__, n=10000, repeats=9, backend=False)
    args = ap.parse_args(argv)

    info = toolchain_info()
    print(f"tiled-tier benchmark: n~{args.n}, {args.repeats} interleaved "
          f"trials, cc={info['cc_identity']}, simd={info['simd']}")
    rng = np.random.default_rng(1072)
    banded_ratios = {}
    banded_ratios.update(run_mvm(args.n, args.repeats, rng))
    banded_ratios.update(run_spmm(args.n, args.repeats, rng))
    spgemm_ratio = run_spgemm(args.n, args.repeats)
    n_entries = check_json(BENCH_FILE)
    print(f"  {BENCH_FILE}: {n_entries} records")

    if args.check:
        bad = {case: r for case, r in banded_ratios.items()
               if r < CHECK_FLOOR}
        if bad:
            print(f"FAIL: tiled more than 10% slower than naive: {bad}",
                  file=sys.stderr)
            return 1
        checked = ", ".join(f"{c}={r:.2f}x"
                            for c, r in sorted(banded_ratios.items()))
        print(f"check ok: tiled/naive floor {CHECK_FLOOR} holds "
              f"({checked or 'no native cases'})")
        if spgemm_ratio is not None:
            print(f"check ok: spgemm native {spgemm_ratio:.2f}x vectorized")
    return 0


if __name__ == "__main__":
    sys.exit(main())
