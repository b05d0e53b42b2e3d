"""Figures 12 and 13 of the paper: triangular solve on CSR, CSC and JAD,
three code versions per format.

Paper setup: TS on the Harwell–Boeing matrix can_1072, comparing
 (a) compiler-generated code (the Bernoulli series),
 (b) the specialized hand-written library (NIST C series),
 (c) the generic, less-specialized library (NIST Fortran series),
on an SGI R12K (Fig 12) and an Intel PII (Fig 13).

Reproduction: a deterministic can_1072-like matrix (same order and non-zero
budget), same three code versions — generated Python vs hand-written Python
(raw array loops) vs generic Python (abstract enumeration) — on whatever
machine runs the suite.  The claim being reproduced is relative: generated
is within a small factor of hand-written (structural equivalence) and the
generic version is clearly slower.  EXPERIMENTS.md records the measured
ratios.
"""

import numpy as np
import pytest

from repro.blas import generic_, specialized
from benchmarks.conftest import (BENCH_N, bench_lower, compiled, flops_ts,
                                 fmt_instance)

FORMATS = ["csr", "csc", "jad"]


def _flops():
    L = bench_lower()
    return flops_ts(L.nnz, BENCH_N)


def _b():
    return np.random.default_rng(7).random(BENCH_N)


@pytest.mark.parametrize("fmt", FORMATS)
def test_ts_generated(benchmark, fmt):
    """Bernoulli series: compiler-generated specialized code."""
    k = compiled("ts_lower", fmt, "lower", "L")
    fn = k.callable()
    L = fmt_instance("lower", fmt)
    b0 = _b()

    def run():
        b = b0.copy()
        fn({"L": L, "b": b}, {"n": BENCH_N})
        return b

    out = run()
    assert np.allclose(bench_lower().to_dense() @ out, b0, atol=1e-8)
    benchmark(run)
    benchmark.extra_info["series"] = "generated"
    if benchmark.stats:
        benchmark.extra_info["mflops"] = _flops() / benchmark.stats["mean"] / 1e6


@pytest.mark.parametrize("fmt", FORMATS)
def test_ts_specialized(benchmark, fmt):
    """NIST C analog: hand-written per-format kernel."""
    L = fmt_instance("lower", fmt)
    b0 = _b()
    kern = specialized.TS_LOWER[fmt]

    def run():
        b = b0.copy()
        kern(L, b)
        return b

    out = run()
    assert np.allclose(bench_lower().to_dense() @ out, b0, atol=1e-8)
    benchmark(run)
    benchmark.extra_info["series"] = "specialized"
    if benchmark.stats:
        benchmark.extra_info["mflops"] = _flops() / benchmark.stats["mean"] / 1e6


@pytest.mark.parametrize("fmt", FORMATS)
def test_ts_generic(benchmark, fmt):
    """NIST Fortran analog: one generic code through the abstract
    enumeration interface."""
    L = fmt_instance("lower", fmt)
    b0 = _b()

    def run():
        b = b0.copy()
        generic_.ts_lower_enum(L, b)
        return b

    out = run()
    assert np.allclose(bench_lower().to_dense() @ out, b0, atol=1e-8)
    benchmark(run)
    benchmark.extra_info["series"] = "generic"
    if benchmark.stats:
        benchmark.extra_info["mflops"] = _flops() / benchmark.stats["mean"] / 1e6


def test_shape_of_figure(capsys):
    """The figure's qualitative content, asserted: generated within 3x of
    hand-written for every format; generic slower than both."""
    import time

    from repro.util.timing import best_of

    b0 = _b()
    rows = []
    for fmt in FORMATS:
        L = fmt_instance("lower", fmt)
        k = compiled("ts_lower", fmt, "lower", "L")
        fn = k.callable()
        t_gen = best_of(lambda: fn({"L": L, "b": b0.copy()}, {"n": BENCH_N}),
                        repeats=3)
        kern = specialized.TS_LOWER[fmt]
        t_spec = best_of(lambda: kern(L, b0.copy()), repeats=3)
        t_generic = best_of(lambda: generic_.ts_lower_enum(L, b0.copy()),
                            repeats=3)
        rows.append((fmt, t_gen, t_spec, t_generic))

    flops = _flops()
    with capsys.disabled():
        print("\n== Fig 12/13 reproduction: TS on can_1072-like "
              f"(n={BENCH_N}, nnz={bench_lower().nnz}) ==")
        print(f"{'format':8s} {'generated':>12s} {'specialized':>12s} "
              f"{'generic':>12s}   (MFLOPS)")
        for fmt, tg, ts_, tgn in rows:
            print(f"{fmt:8s} {flops/tg/1e6:12.2f} {flops/ts_/1e6:12.2f} "
                  f"{flops/tgn/1e6:12.2f}")
    for fmt, tg, ts_, tgn in rows:
        assert tg < 3.0 * ts_, f"{fmt}: generated should be near hand-written"
        assert tgn > ts_, f"{fmt}: generic should be slower than specialized"
