"""Workload ``solve``: time to a stated accuracy.

Four solver cases, all to a *true* relative residual ||b - Ax|| / ||b|| <=
1e-6 recomputed by the benchmark with scipy (never the solver's own
``res``): ``cg`` and ``cg`` + symmetric Gauss-Seidel on a 2-D Laplacian,
``bicgstab`` on a nonsymmetric banded matrix with a strong diagonal, and
``block_cg`` with 16 right-hand sides on a smaller Laplacian.  Iteration
counts are recorded and must repeat exactly.  The same ``cg`` and
``bicgstab`` solves run through ``scipy.sparse.linalg`` as the outside
baseline, at the same tolerance.

A matvec is under half of an iteration here, so this workload shows the
``solvers/`` vector-op and allocation overhead that ``hot_kernels``
bypasses, one dispatch per matvec / triangular solve per iteration, and
(traced) the ``search.autotune`` cost that ``cold_compile`` bypasses.

Cold cell: a cold ``SolverContext`` (format build, then mvm, ts_lower and
ts_upper compiled).  The first ``cg`` solve follows and is checked, but its
0.7 s of memory-bound iteration is the hot cell's business: the reference
that scales a cold time is compile-like, and with the solve inside it the
cell spread by 7-14 % from run to run.  Warm cell: context and solve again
with caches warm.  Hot cell: the four solves on live contexts, each at its
fast quartile over the rounds (``harness.fast``), summed.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import repro
from repro import solvers

from e2e import harness as h
from e2e import matrices, reference
from e2e.metrics import SOLVER_CASES

TOL = 8e-7            # handed to every solver, ours and scipy's
LIMIT = 1e-6          # what the true residual must meet
LAP_OPS = ("mvm", "ts_lower", "ts_upper")
# the context's kernels are compiled one after the other: with the default
# two compile_many workers the three compiles take as long (0.50 s, the
# search holds the interpreter lock) but scatter twice as much from run to
# run (11 % against 5 % over ten alternating runs each)
CONTEXT = dict(backend="c", parallel="none", max_workers=1)
EXTRA_COLD = 2        # cold requests beyond the one per set-up repetition
SMOKE_CANDIDATES = ("csr", "ell", "jad", "dia")   # no seconds-long searches


class Inputs:
    def __init__(self, run: h.Run):
        z = run.sizes
        rng = run.rng(4)
        self.S_lap = reference.csr(matrices.lap2d(z["solve_lap"]))
        self.S_band = reference.csr(matrices.banded(z["solve_banded"], 4, run.seed))
        self.S_blk = reference.csr(matrices.lap2d(z["solve_block_lap"]))
        self.b_lap = rng.random(self.S_lap.shape[0])
        self.b_band = rng.random(self.S_band.shape[0])
        self.B_blk = rng.random((self.S_blk.shape[0], 16))
        self.ctx: Dict[str, object] = {}


def _lap_request(run: h.Run, inp: Inputs, cold: bool, rid: str):
    """Matrix in, cg solution out: context set-up plus the solve.  Returns
    (context seconds, (context + solve seconds, context))."""
    if cold:
        run.cold_state()
    c0 = h.counters()
    with run.span("request", rid):
        t0 = h.now()
        A = repro.as_format(inp.S_lap, "csr")
        ctx = repro.SolverContext(A, ops=LAP_OPS, **CONTEXT)
        t_ctx = h.now() - t0
        x, _it, _res = solvers.cg(ctx, inp.b_lap, tol=TOL)
        dt = h.now() - t0
    c1 = h.counters()
    problems = _context_problems(ctx)
    res = reference.residual(inp.S_lap, x, inp.b_lap)
    if not res <= LIMIT:
        problems.append(f"cg true residual {res:.3e} > {LIMIT}")
    if h.toolchain_present():
        compiles = h.delta(c0, c1, "native.compiles")
        want = len(LAP_OPS) if cold else 0
        if compiles != want:
            problems.append(f"{compiles} cc invocations, expected {want}")
    run.tally.op(not problems, f"{rid}: {'; '.join(problems)}")
    return t_ctx, (dt, ctx)


def _context_problems(ctx) -> List[str]:
    """Every bound op must run native when a toolchain is present."""
    if not h.toolchain_present():
        return []
    return [f"{op} runs {used} ({ctx.fallbacks.get(op)})"
            for op, used in ctx.backends.items() if used != "c"]


def _setup(run: h.Run, cold, warm, ctx_warm) -> Inputs:
    inp = Inputs(run)
    cold.append(run.cold_sample(
        lambda: _lap_request(run, inp, True, "cold:cg"))[0])
    t_ctx, (dt, inp.ctx["lap"]) = _lap_request(run, inp, False, "warm:cg")
    warm.append(dt)
    ctx_warm.append(t_ctx)
    for name, S, ops in (("band", inp.S_band, ("mvm",)),
                         ("blk", inp.S_blk, ("spmm",))):
        ctx = repro.SolverContext(repro.as_format(S, "csr"), ops=ops, **CONTEXT)
        problems = _context_problems(ctx)
        run.tally.op(not problems, f"setup:{name}: {'; '.join(problems)}")
        inp.ctx[name] = ctx
    return inp


def _cases(inp: Inputs):
    """case -> (solve, scipy baseline or None, scipy matrix, rhs)."""
    lap, band, blk = inp.ctx["lap"], inp.ctx["band"], inp.ctx["blk"]
    sgs = lap.preconditioner("sgs")
    return {
        "cg": (lambda: solvers.cg(lap, inp.b_lap, tol=TOL),
               lambda: reference.scipy_solve("cg", inp.S_lap, inp.b_lap, TOL),
               inp.S_lap, inp.b_lap),
        "cg_sgs": (lambda: solvers.cg(lap, inp.b_lap, tol=TOL, precond=sgs),
                   None, inp.S_lap, inp.b_lap),
        "bicgstab": (lambda: solvers.bicgstab(band, inp.b_band, tol=TOL),
                     lambda: reference.scipy_solve("bicgstab", inp.S_band,
                                                   inp.b_band, TOL),
                     inp.S_band, inp.b_band),
        "block_cg16": (lambda: solvers.block_cg(blk, inp.B_blk, tol=TOL),
                       None, inp.S_blk, inp.B_blk),
    }


def run(run: h.Run) -> None:
    cold, warm, ctx_warm, setups = [], [], [], []
    for _ in range(run.setup_repeats):
        dt, inp = run.timed_setup(lambda: _setup(run, cold, warm, ctx_warm))
        setups.append(dt)
    run.emit("setup_s", h.median(setups), len(setups))
    for _ in range(EXTRA_COLD if run.setup_repeats > 1 else 0):
        cold.append(run.cold_sample(
            lambda: _lap_request(run, inp, True, "cold:cg"))[0])
    run.emit_cold(h.median(cold), len(cold))
    run.emit("solvers.context.setup_cold_ms", *run.metrics["cold_raw_ms"])
    run.emit("warm_ms", h.fast(warm) * 1e3, len(warm))
    run.emit("solvers.context.setup_warm_ms", h.fast(ctx_warm) * 1e3, len(ctx_warm))

    cases = _cases(inp)
    ours: Dict[str, List[float]] = {c: [] for c in SOLVER_CASES}
    base: Dict[str, List[float]] = {c: [] for c in SOLVER_CASES}
    iters: Dict[str, int] = {}
    t_start = h.now()
    while not ours["cg"] or h.now() - t_start < run.seconds:
        for case, (solve, baseline, S, rhs) in cases.items():
            with run.tally.guarded(f"solve:{case}"), \
                    run.span("request", f"hot:{case}"):
                dt, (x, it, _res) = h.timed(solve)
                ours[case].append(dt)
                it = int(np.max(it))
                problems = []
                res = reference.residual(S, x, rhs)
                if not res <= LIMIT:
                    problems.append(f"true residual {res:.3e} > {LIMIT}")
                if iters.setdefault(case, it) != it:
                    problems.append(f"iterations {it} != {iters[case]} earlier")
                run.tally.op(not problems, f"solve:{case}: {'; '.join(problems)}")
            if baseline is not None:
                dt, (x, _its) = h.timed(baseline)
                base[case].append(dt)
                res = reference.residual(S, x, rhs)
                run.tally.op(res <= LIMIT,
                             f"scipy {case}: true residual {res:.3e} > {LIMIT}")

    rounds = min(len(v) for v in ours.values())
    total = sum(h.fast(ours[c]) for c in SOLVER_CASES)
    run.emit("hot_ms", total * 1e3, rounds)
    ratios = []
    for case in SOLVER_CASES:
        t = h.fast(ours[case])
        run.emit(f"solvers.iterations.{case}", iters[case], len(ours[case]))
        run.emit(f"solvers.iterate_us_per_iter.{case}",
                 t / max(1, iters[case]) * 1e6, len(ours[case]))
        if base[case]:
            ratio = h.paired_ratio(base[case], ours[case])
            run.emit(f"solve_vs_scipy.{case}", ratio, len(base[case]))
            ratios.append(ratio)
    run.emit("vs_baseline", h.geomean(ratios), rounds)

    # how much of a cg solve is the matvec kernel itself
    lap = inp.ctx["lap"]
    p, out = inp.b_lap.copy(), np.zeros_like(inp.b_lap)
    t_mv, n = h.steady(lambda: lap.matvec(p, out), 0.3)
    run.emit("solvers.matvec_share.cg",
             iters["cg"] * t_mv / h.fast(ours["cg"]), n)

    if run.extras:
        with run.tally.guarded("autotune"):
            _autotune(run)
        run.trace_overhead("solve", lambda: h.timed(cases["cg"][0])[0], pairs=5)


def _autotune(run: h.Run) -> None:
    """A cold ``SolverContext(select="auto")`` over the default candidate
    formats (15-19 s, most of it the msr and sym searches — hence once per
    traced run, not the issue's median of 3), the same again served by the
    winner cache, and the regret of the choice: the benchmark's own
    interleaved timing of every tuned candidate's kernel."""
    S = reference.csr(matrices.lap2d(run.sizes["auto_lap"]))
    A = repro.as_format(S, "csr")

    def context():
        return repro.SolverContext(A, ops=("mvm",), backend="c", select="auto",
                                   candidates=SMOKE_CANDIDATES if run.smoke else None,
                                   register=False)

    run.cold_state()
    c0 = h.counters()
    with run.span("request", "auto:cold"):
        dt, ctx = h.timed(context)
    c1 = h.counters()
    run.emit("search.autotune.cold_s", dt)
    run.emit("search.autotune.microbench_runs",
             h.delta(c0, c1, "autotune.microbench.runs"))
    with run.span("request", "auto:warm"):
        dt, _ctx = h.timed(context)
    c2 = h.counters()
    run.emit("search.autotune.warm_ms", dt * 1e3)
    run.tally.op(h.delta(c1, c2, "autotune.cache.hits.memory") >= 1
                 and h.delta(c1, c2, "autotune.microbench.runs") == 0,
                 "auto:warm: not served by the winner cache")

    sel = ctx.selection
    tuned = [c for c in sel.choices if c.ok and c.measured is not None]
    call = h.Call("mvm", S, run.rng(5))
    fns = []
    for c in tuned:
        arrays, params = call.bind({"A": sel.instances[c.format_name]})
        fns.append(lambda k=c.kernel, a=arrays, p=params: k(a, p))
    means, _n = h.interleaved(fns, 1.0, min_batches=10)
    times = [h.fast(m) for m in means]
    run.tally.op(call.wrong() is None, f"auto: {call.wrong()}")
    run.emit("search.autotune.regret", times[0] / min(times), len(times))
    run.note(f"auto chose {tuned[0].label} among "
             f"{[c.label for c in tuned]}")
