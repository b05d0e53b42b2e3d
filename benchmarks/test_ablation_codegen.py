"""Ablation A3: specialization levels of the backend.

Three executions of the *same plan*: the reference plan interpreter
(``tests/oracles/plan_interp``, fully dynamic), the generated specialized
Python (the product), and the hand-written kernel (the target).
Quantifies what inlining the format operations buys — the paper's reason
for resolving all method invocations at compile time (Section 5,
Barton–Nackman discussion)."""

import numpy as np
import pytest

from repro.util.timing import best_of
from benchmarks.conftest import BENCH_N, compiled, fmt_instance
from tests.oracles.plan_interp import run_plan
from tests.oracles import hand_blas


def test_backend_ladder(capsys):
    rows = []
    b0 = np.random.default_rng(7).random(BENCH_N)
    for fmt in ["csr", "jad"]:
        L = fmt_instance("lower", fmt)
        k = compiled("ts_lower", fmt, "lower", "L")
        fn = k.callable()
        t_interp = best_of(lambda: run_plan(k.plan, {"L": L, "b": b0.copy()},
                                            {"n": BENCH_N}), repeats=2)
        t_gen = best_of(lambda: fn({"L": L, "b": b0.copy()}, {"n": BENCH_N}),
                        repeats=3)
        kern = hand_blas.TS_LOWER[fmt]
        t_hand = best_of(lambda: kern(L, b0.copy()), repeats=3)
        rows.append((fmt, t_interp, t_gen, t_hand))
    with capsys.disabled():
        print("\n== backend ladder (TS) ==")
        print(f"{'format':8s} {'interpreter':>12s} {'generated':>12s} "
              f"{'hand-written':>13s}   (ms)")
        for fmt, ti, tg, th in rows:
            print(f"{fmt:8s} {ti*1e3:12.2f} {tg*1e3:12.2f} {th*1e3:13.2f}")
    for fmt, ti, tg, th in rows:
        assert tg < ti, "generated code must beat the interpreter"
        assert tg < 3.0 * th, "generated code must stay near hand-written"


@pytest.mark.parametrize("backend", ["interpreter", "generated"])
def test_mvm_backends(benchmark, backend):
    A = fmt_instance("full", "csr")
    x = np.random.default_rng(5).random(BENCH_N)
    y = np.zeros(BENCH_N)
    k = compiled("mvm", "csr", "full", "A")
    if backend == "interpreter":
        benchmark.pedantic(
            lambda: run_plan(k.plan, {"A": A, "x": x, "y": y},
                             {"m": BENCH_N, "n": BENCH_N}),
            rounds=2, iterations=1)
    else:
        fn = k.callable()
        benchmark(lambda: fn({"A": A, "x": x, "y": y},
                             {"m": BENCH_N, "n": BENCH_N}))
    benchmark.extra_info["series"] = backend
