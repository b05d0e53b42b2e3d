"""MVM across formats: the extension of the Figure 12/13 harness to the
rest of the Figure 3 BLAS (the paper states the TS relative differences
"are representative for other inputs and benchmarks")."""

import numpy as np
import pytest

from repro.blas import generic_, specialized
from benchmarks.conftest import (BENCH_N, bench_matrix, compiled, flops_mvm,
                                 fmt_instance)

FORMATS = ["csr", "csc", "coo", "ell", "dia", "jad", "msr", "bsr"]


def _x():
    return np.random.default_rng(3).random(BENCH_N)


@pytest.mark.parametrize("fmt", FORMATS)
def test_mvm_generated(benchmark, fmt):
    k = compiled("mvm", fmt, "full", "A")
    fn = k.callable()
    A = fmt_instance("full", fmt)
    x = _x()
    y = np.zeros(BENCH_N)

    def run():
        fn({"A": A, "x": x, "y": y}, {"m": BENCH_N, "n": BENCH_N})
        return y

    out = run()
    assert np.allclose(out, bench_matrix().to_dense() @ x, atol=1e-8)
    benchmark(run)
    benchmark.extra_info["series"] = "generated"
    if benchmark.stats:
        benchmark.extra_info["mflops"] = flops_mvm(A.nnz) / benchmark.stats["mean"] / 1e6


@pytest.mark.parametrize("fmt", FORMATS)
def test_mvm_specialized(benchmark, fmt):
    A = fmt_instance("full", fmt)
    x = _x()
    y = np.zeros(BENCH_N)
    kern = specialized.MVM[fmt]

    def run():
        kern(A, x, y)
        return y

    out = run()
    assert np.allclose(out, bench_matrix().to_dense() @ x, atol=1e-8)
    benchmark(run)
    benchmark.extra_info["series"] = "specialized"
    if benchmark.stats:
        benchmark.extra_info["mflops"] = flops_mvm(A.nnz) / benchmark.stats["mean"] / 1e6


@pytest.mark.parametrize("fmt", ["csr", "coo", "jad"])
def test_mvm_generic(benchmark, fmt):
    A = fmt_instance("full", fmt)
    x = _x()
    y = np.zeros(BENCH_N)

    def run():
        generic_.mvm(A, x, y)
        return y

    out = run()
    assert np.allclose(out, bench_matrix().to_dense() @ x, atol=1e-8)
    benchmark(run)
    benchmark.extra_info["series"] = "generic"
    if benchmark.stats:
        benchmark.extra_info["mflops"] = flops_mvm(A.nnz) / benchmark.stats["mean"] / 1e6


def test_shape_of_mvm_table(capsys):
    from repro.util.timing import best_of

    x = _x()
    flops = None
    rows = []
    # the shape table additionally covers symmetric storage (Union + Map);
    # its exhaustive search is too slow for the per-series timing tests
    for fmt in FORMATS + ["sym"]:
        A = fmt_instance("full", fmt)
        flops = flops_mvm(A.nnz)
        k = compiled("mvm", fmt, "full", "A")
        fn = k.callable()
        y = np.zeros(BENCH_N)
        t_gen = best_of(lambda: fn({"A": A, "x": x, "y": y},
                                   {"m": BENCH_N, "n": BENCH_N}), repeats=3)
        kern = specialized.MVM[fmt]
        t_spec = best_of(lambda: kern(A, x, y), repeats=3)
        rows.append((fmt, flops, t_gen, t_spec))
    with capsys.disabled():
        print(f"\n== MVM on can_1072-like (n={BENCH_N}) ==")
        print(f"{'format':8s} {'generated':>12s} {'specialized':>12s}   (MFLOPS)")
        for fmt, fl, tg, ts_ in rows:
            print(f"{fmt:8s} {fl/tg/1e6:12.2f} {fl/ts_/1e6:12.2f}")
    for fmt, fl, tg, ts_ in rows:
        assert tg < 4.0 * ts_, f"{fmt}: generated must stay near hand-written"
