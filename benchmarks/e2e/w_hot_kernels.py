"""Workload ``hot_kernels``: compiled once, called many times.

Large fixed matrices where the kernel is everything and compile time is
nothing: a 2-D Laplacian, a power-law matrix (heavy-tailed rows), a banded
matrix (bandwidth 4) and a 4x4-block matrix; orders are in
``matrices.SIZES``.  Twelve rows (``metrics.HOT_ROWS``): ``mvm.csr`` on
all four, ``mvm.sel`` on banded/block in the format
``select_format(mode="model")`` picks, ``spmm16.csr``, ``ts_lower.csr``
and ``spgemm.csr`` (``blas.api.spgemm``, computed output structure).
Every row is interleaved with its scipy counterpart (``S @ x``, ``S @ X``,
``spsolve_triangular``, ``S @ S``) in batches, median of batch means.

Cold and warm cells: each row's first request (format build + compile +
first call, from a cold state; this is the set-up that repeats) and the
identical request again — at this size the format build, not the search,
is what a user waits for.

Traced extras: the tiled tier against the naive one on the four
``mvm.csr`` rows, the bandwidth roofline, and the *same layer used
differently* — ``mvm.csr`` at n = 1072, where dispatch sets the time.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import repro
from repro.blas import api as blas_api
from repro.ir import kernels

from e2e import harness as h
from e2e import matrices, reference, roofline
from e2e.metrics import HOT_ROWS, hot_key

CYCLES = 3          # visits of each row, spread over the run
BATCHES = 5         # alternating (ours, scipy) batches aimed at per visit

#: candidates handed to select_format for the ``sel`` rows.  DIA is left
#: out for the block matrix: its ~1.4 n occupied diagonals make
#: DiaMatrix allocate ndiags x n doubles (106 GiB at n = 100k) and
#: select_format does not catch the MemoryError (a finding, see README).
SEL_CANDIDATES = {"banded": ("csr", "dia", "ell", "bsr"),
                  "block": ("csr", "ell", "jad", "bsr")}

_KERNEL_OF = {"mvm": "mvm", "spmm16": "spmm", "ts_lower": "ts_lower"}


class Row:
    def __init__(self, op: str, fmt: str, matrix: str):
        self.op, self.fmt, self.matrix = op, fmt, matrix
        self.key = hot_key(op, fmt, matrix)
        self.S = None           # scipy operand (lower triangle for ts_lower)
        self.call = None        # h.Call (None for spgemm)
        self.inst = None
        self.kernel = None
        self.product = None     # scipy S @ S (spgemm rows)
        self.flops = 0
        self.seconds = None     # median seconds per hot call


def _inputs(run: h.Run) -> Dict[str, Row]:
    z = run.sizes
    coo = {
        "lap2d": matrices.lap2d(z["lap2d"]),
        "powerlaw": matrices.powerlaw(z["powerlaw_n"], z["powerlaw_nnz"], run.seed),
        "banded": matrices.banded(z["banded"], 4, run.seed),
        "block": matrices.block(z["block"], run.seed),
        "lap2d_s": matrices.lap2d(z["lap2d_s"]),
        "powerlaw_s": matrices.powerlaw(z["powerlaw_s_n"], z["powerlaw_s_nnz"], run.seed),
    }
    rng = run.rng(2)
    operands, calls, rows = {}, {}, {}
    for op, fmt, matrix in HOT_ROWS:
        row = Row(op, fmt, matrix)
        src = (matrix, op == "ts_lower")
        if src not in operands:
            operands[src] = reference.csr(
                matrices.lower_part(coo[matrix]) if src[1] else coo[matrix])
        row.S = operands[src]
        if op == "spgemm":
            row.product = reference.product_csr(row.S, row.S)
            row.flops = 2 * reference.spgemm_mults(row.S, row.S)
        else:
            if (op, matrix) not in calls:
                calls[op, matrix] = h.Call(_KERNEL_OF[op], row.S, rng)
            row.call = calls[op, matrix]
            row.flops = 2 * row.S.nnz * (16 if op == "spmm16" else 1)
        rows[row.key] = row
    return rows


def _request(run: h.Run, row: Row, cold: bool, rid: str):
    """Format build + compile (or select) + first call, checked.
    Returns (seconds, None)."""
    if cold:
        run.cold_state()
    c0 = h.counters()
    problems = []
    with run.span("request", rid):
        t0 = h.now()
        A = repro.as_format(row.S, "csr")
        if row.op == "spgemm":
            C = blas_api.spgemm(A, A)
            dt = h.now() - t0
            row.inst = A
            problems.append(reference.same_csr(C.rowptr, C.colind, C.values,
                                               row.product))
        else:
            if row.op == "ts_lower":
                A.annotate_triangular("lower")
            name = "L" if row.op == "ts_lower" else "A"
            if row.fmt == "sel":
                sel = repro.select_format(
                    kernels.mvm(), "A", A, mode="model", backend="c",
                    candidates=SEL_CANDIDATES[row.matrix])
                chosen, A, kernel = sel.best
                run.note(f"{row.key}: select_format(model) chose {chosen}")
            else:
                kernel = repro.compile_kernel(
                    row.call.program, {name: A}, backend="c",
                    parallel="none", opt="none")
            t1 = h.now()
            arrays, params = row.call.bind({name: A})
            t2 = h.now()
            kernel(arrays, params)
            dt = (t1 - t0) + (h.now() - t2)
            row.inst, row.kernel = A, kernel
            problems += [row.call.wrong(), h.native_ok(kernel)]
    c1 = h.counters()
    if row.fmt != "sel" and row.op != "spgemm" and h.toolchain_present():
        problems.append(h.prove_cold(c0, c1) if cold else h.prove_warm(c0, c1))
    problems = [p for p in problems if p]
    run.tally.op(not problems, f"{rid}: {'; '.join(problems)}")
    return dt, None


def _first_requests(run: h.Run, rows: Dict[str, Row], cold, warm) -> None:
    """Every row's first request from a cold state (the kernels the hot
    phase calls are the ones the last repetition compiled) and, where
    ``warm`` is given, the identical request again — it has to follow at
    once, before the next row's cold state clears the caches."""
    for key, row in rows.items():
        with run.tally.guarded(f"cold:{key}"):
            cold[key].append(run.cold_sample(
                lambda: _request(run, row, True, f"cold:{key}"))[0])
            if warm is not None:
                with run.not_setup():
                    warm[key] = [_request(run, row, False, f"warm:{key}")[0]]


def _closures(row: Row):
    """(ours, scipy) zero-argument callables doing the same work."""
    if row.op == "spgemm":
        A, S = row.inst, row.S
        return (lambda: blas_api.spgemm(A, A)), (lambda: S @ S)
    name = "L" if row.op == "ts_lower" else "A"
    return row.call.versus(row.kernel, {name: row.inst})


def run(run: h.Run) -> None:
    # inputs and oracle answers are the same numpy/scipy work every time:
    # made once; what repeats is the system's part of set-up
    t_inputs, rows = h.timed(lambda: _inputs(run))
    cold: Dict[str, List[float]] = {key: [] for key in rows}
    warm: Dict[str, List[float]] = {}
    setups = []
    for rep in range(run.setup_repeats):
        last = rep == run.setup_repeats - 1
        setups.append(run.timed_setup(lambda: _first_requests(
            run, rows, cold, warm if last else None))[0])
    run.emit("setup_s", t_inputs + h.median(setups), len(setups))
    run.emit_cold(*h.typical(cold, h.median))
    value, n = h.typical(warm)
    run.emit("warm_ms", value * 1e3, n)

    # visit the rows round-robin, several cycles, so every row samples
    # different moments of the run instead of one contiguous second
    live = {k: r for k, r in rows.items() if r.inst is not None}
    fns = {k: _closures(r) for k, r in live.items()}
    ours = {k: [] for k in live}
    ref = {k: [] for k in live}
    calls = {k: 0 for k in live}
    slot = run.seconds / (CYCLES * len(live))
    per_batch = {k: h.calibrate(f, slot, BATCHES) for k, f in fns.items()}
    for cycle in range(CYCLES):
        for key in live:
            with run.span("request", f"hot:{key}#{cycle}"):
                (a, b), n = h.interleaved(fns[key], slot, calls=per_batch[key])
            ours[key] += a
            ref[key] += b
            calls[key] += n
    times, ratios, gflops = [], [], []
    for key, row in live.items():
        if row.call is not None:
            run.tally.op(row.call.wrong() is None,
                         f"hot:{key}: {row.call.wrong()}")
        row.seconds = h.fast(ours[key])
        ratio = h.paired_ratio(ref[key], ours[key])
        run.emit(key + "_gflops", row.flops / row.seconds / 1e9, calls[key])
        run.emit(key + "_vs_scipy", ratio, calls[key])
        times.append(row.seconds)
        ratios.append(ratio)
        gflops.append(row.flops / row.seconds / 1e9)
    n = sum(calls.values())
    run.emit("hot_ms", h.geomean(times) * 1e3, n)
    run.emit("vs_baseline", h.geomean(ratios), n)
    run.emit("hot.gflops_geomean", h.geomean(gflops), n)

    if run.extras:
        _roofline(run, rows)
        _tiled(run, rows)
        _selection_layers(run, rows)
        _small_calls(run)


def _format_bytes(inst) -> int:
    """Bytes one pass over a format instance reads, computed from the
    sizes of its arrays (not measured traffic)."""
    return sum(v.nbytes for v in vars(inst).values()
               if isinstance(v, np.ndarray))


def _roofline(run: h.Run, rows: Dict[str, Row]) -> None:
    z = run.sizes
    probe = roofline.measure(z["triad_ws_mib"], z["triad_dram_cap_mib"], seconds=0.5)
    run.emit("stream_triad_gbs.ws", probe["ws_gbs"], probe["ws_passes"])
    run.emit("stream_triad_gbs.dram", probe["dram_gbs"], probe["dram_passes"])
    run.note(f"roofline: {probe['kernel']}; ws 3 x {probe['ws_mib']} MiB, "
             f"dram 3 x {probe['dram_mib']:.0f} MiB (last-level cache "
             f"{probe['llc_mib']} MiB, >=4x: {probe['dram_is_4x_llc']}); "
             "bytes are computed from array sizes")
    for key, row in rows.items():
        if row.op == "mvm" and row.seconds is not None:
            moved = _format_bytes(row.inst) + 8 * sum(row.S.shape)
            run.emit(key + "_roofline_frac",
                     moved / row.seconds / 1e9 / probe["ws_gbs"])


def _tiled(run: h.Run, rows: Dict[str, Row]) -> None:
    """opt="tiled" against opt="none" on the mvm.csr rows, interleaved."""
    for key, row in rows.items():
        if (row.op, row.fmt) != ("mvm", "csr") or row.kernel is None:
            continue
        with run.tally.guarded(f"tiled:{key}"):
            tiled = repro.compile_kernel(row.call.program, {"A": row.inst},
                                         backend="c", opt="tiled")
            arrays, params = row.call.bind({"A": row.inst})
            tiled(arrays, params)
            problems = [p for p in (row.call.wrong(), h.native_ok(tiled)) if p]
            run.tally.op(not problems, f"tiled:{key}: {'; '.join(problems)}")
            naive = row.kernel
            (t_none, t_tiled), n = h.interleaved(
                [lambda: naive(arrays, params), lambda: tiled(arrays, params)],
                0.6, min_batches=10)
            run.emit(key + "_tiled_speedup", h.paired_ratio(t_none, t_tiled), n)


def _selection_layers(run: h.Run, rows: Dict[str, Row]) -> None:
    """What the ``sel`` rows paid: features, model ranking, conversion."""
    from repro.search.features import extract_features

    row = rows[hot_key("mvm", "sel", "banded")]
    csr = repro.as_format(row.S, "csr")
    run.emit("search.features_ms", h.timed(lambda: extract_features(csr))[0] * 1e3)
    dt, sel = h.timed(lambda: repro.select_format(
        kernels.mvm(), "A", csr, mode="model", backend="c",
        candidates=SEL_CANDIDATES["banded"]))
    run.emit("search.format_select.model_ms", dt * 1e3)
    run.emit("formats.convert_ms",
             h.timed(lambda: repro.convert(csr, "ell"))[0] * 1e3)


def _small_calls(run: h.Run) -> None:
    """mvm.csr at n = 1072 and n = 8: where the call path, not the loop,
    is the cost.  All medians of interleaved batches."""
    from repro.solvers import SolverContext

    rng = run.rng(3)
    S = reference.csr(matrices.can_1072(run.seed))
    call = h.Call("mvm", S, rng)
    A = repro.as_format(S, "csr")
    kernel = repro.compile_kernel(call.program, {"A": A}, backend="c", opt="none")
    arrays, params = call.bind({"A": A})
    native = kernel.native()
    pool = [({"A": A, "x": call.dense["x"].copy(), "y": np.zeros(S.shape[0])})
            for _ in range(64)]
    turn = [0]

    def unprepared():                     # fresh array objects every call
        turn[0] = (turn[0] + 1) % len(pool)
        kernel(pool[turn[0]], params)

    ctx = SolverContext(A, ops=("mvm",), backend="c")
    bound = ctx.bound("mvm")
    x, y = call.dense["x"], call.dense["y"]
    means, n = h.interleaved(
        [lambda: kernel(arrays, params), lambda: native(arrays, params),
         unprepared, lambda: blas_api.mvm(A, x, y), lambda: bound.apply(x, y)],
        min(2.0, run.seconds), min_batches=20)
    t_ck, t_nk, t_un, t_api, t_bound = (h.fast(m) for m in means)
    run.tally.op(call.wrong() is None, f"small calls: {call.wrong()}")
    run.emit("core.backend.prepared_call_us", t_ck * 1e6, n)
    run.emit("core.backend.unprepared_call_us", t_un * 1e6, n)
    run.emit("core.compiler.call_overhead_us", (t_ck - t_nk) * 1e6, n)
    run.emit("blas.api.handle_overhead_us", (t_api - t_bound) * 1e6, n)

    S8 = reference.csr(matrices.lap2d(3))            # 9 x 9: dispatch floor
    call8 = h.Call("mvm", S8, rng)
    A8 = repro.as_format(S8, "csr")
    k8 = repro.compile_kernel(call8.program, {"A": A8}, backend="c", opt="none")
    a8, p8 = call8.bind({"A": A8})
    t_floor, n = h.steady(lambda: k8(a8, p8), 0.4)
    run.emit("core.backend.dispatch_floor_us", t_floor * 1e6, n)
