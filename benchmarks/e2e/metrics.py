"""The benchmark's declared surface: workloads, end-to-end metrics with
their regression bounds, per-layer metrics, and the BENCHMARK.json they
serialise to.  Everything else in this package measures; this file only
names.  README.md explains why each entry was chosen.

End-to-end metrics are *dense*: every workload reports every one of them,
because the regression gate compares metric x workload cells.  They are
therefore named by request temperature, not by workload:

- cold  — matrix + kernel in, first answer out, nothing cached;
- warm  — the identical request again (compile cache and .so cache hit);
- hot   — the steady-state operation of a set-up system (a kernel call, a
  solve to tolerance, a daemon round trip).

``cold_ms`` gates the cold cell — in milliseconds at nominal machine speed,
scaled by ``harness.Reference``; ``cold_raw_ms`` is the stopwatch reading.
``vs_baseline`` gates the hot cell on ``hot_kernels`` and ``solve``, against
scipy pair by pair.  ``cold_compile`` and ``serve`` have no outside baseline
that this sandbox repeats to a tenth; their ``vs_baseline`` is the reference
build against a cold request, i.e. ``cold_ms`` restated so that the set stays
dense.  Raw warm and hot timings are per-layer metrics for the same reason
(README, Noise).

Per-layer metrics are sparse by nature: each names the workloads that
measure it.  The driver wants every metric from every workload, so on the
others it reads 0 — the layer did no work there, and that never changes.
On a workload that should measure it, a metric that could not be measured
(an entry point was renamed, too few samples) reads null, with a warning —
in the printed table and the ``--record`` file.  The result line, which the
driver refuses unless every metric holds a number, says ``NOT_MEASURED``
(-1, a value no metric here can take) instead.
"""

from __future__ import annotations

import warnings

WORKLOADS = [
    ("cold_compile",
     "14 (kernel, format) pairs on the paper's can_1072: search, polyhedra, "
     "codegen and cc do all the work, kernel time is ~0"),
    ("hot_kernels",
     "12 kernel rows on large fixed matrices against scipy.sparse: the C "
     "loops are everything, compile time is nothing"),
    ("solve",
     "cg, cg+SGS, bicgstab, block_cg to a true residual of 1e-6: solver "
     "vector ops and per-iteration dispatch around the kernels"),
    ("serve",
     "compile daemon as a subprocess, 2 closed-loop clients, 98% handle "
     "repeats + 2% new-value uploads: wire, client and daemon only"),
]

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("cold_ms", "ms", "lower", 0.20),
    ("vs_baseline", "ratio", "higher", 0.15),
]

COLD_LAYERS = [
    "formats.build_ms", "ir.validate_ms", "core.cache.lookup_ms",
    "analysis.dependences_ms", "search.driver_self_ms",
    "core.embedding.legality_ms", "core.plan.build_ms", "cost.model_ms",
    "codegen.py_emit_ms", "codegen.c_lower_ms", "core.backend.cc_load_ms",
    "core.backend.bind_ms", "core.backend.first_call_ms",
    "core.compiler.self_ms",
]

COLD_PAIRS = [("mvm", f) for f in
              ("csr", "csc", "coo", "dia", "ell", "jad", "bsr", "msr", "sym")]
COLD_PAIRS += [("ts_lower", f) for f in ("csr", "csc", "jad")]
COLD_PAIRS += [("spmm", f) for f in ("csr", "csc", "bsr")]
COLD_PAIRS += [("spgemm", "csr")]

HOT_ROWS = [
    ("mvm", "csr", "lap2d"), ("mvm", "csr", "powerlaw"),
    ("mvm", "csr", "banded"), ("mvm", "csr", "block"),
    ("mvm", "sel", "banded"), ("mvm", "sel", "block"),
    ("spmm16", "csr", "lap2d"), ("spmm16", "csr", "powerlaw"),
    ("ts_lower", "csr", "lap2d"), ("ts_lower", "csr", "banded"),
    ("spgemm", "csr", "lap2d_s"), ("spgemm", "csr", "powerlaw_s"),
]

SOLVER_CASES = ["cg", "cg_sgs", "bicgstab", "block_cg16"]


def hot_key(op: str, fmt: str, matrix: str) -> str:
    return f"hot.{op}.{fmt}.{matrix}"


def _per_layer():
    """(name, unit, better, workloads that measure it).  On any other
    workload the layer did no work and the metric reads 0; on a listed one
    a value that could not be measured reads null."""
    out = []
    names = [w for w, _why in WORKLOADS]
    cold, hot, solve, serve = ([w] for w in names)

    def add(name, unit, better="lower", on=names):
        out.append((name, unit, better, tuple(on)))

    # traced self time per cold request (p50 over requests); the daemon's
    # inside is another process, so serve has none of it
    for name in COLD_LAYERS:
        add(name, "ms", on=cold + hot + solve)
    add("trace.attributed_share", "ratio", "higher")
    add("trace.missing_entrypoints", "count")
    for w in ("cold_compile", "solve", "serve"):
        add(f"trace_overhead_frac.{w}", "ratio", on=[w])
    # raw (unscaled) timings of the three cells: cold_raw_ms is what
    # cold_ms is before the reference scales it; warm and hot are demoted
    # from the end-to-end set because no run length brings them within a
    # tenth run to run on this machine (README, "Noise")
    add("cold_raw_ms", "ms")
    add("warm_ms", "ms")
    add("hot_ms", "ms")
    # counts per cold round
    add("polyhedra.fm_eliminations", "count", on=cold)
    add("polyhedra.fm_memo_hit_ratio", "ratio", "higher", on=cold)
    add("search.candidates_generated", "count", on=cold)
    add("search.candidates_legal_ratio", "ratio", "higher", on=cold)
    add("codegen.c_source_bytes", "B", on=cold)
    add("codegen.py_source_bytes", "B", on=cold)
    add("core.backend.so_bytes", "B", on=cold)
    add("core.backend.fallback_share", "ratio", on=cold)
    for k, f in COLD_PAIRS:
        add(f"cold_ms.{k}.{f}", "ms", on=cold)
    add("core.cache.disk_cold_ms_p50", "ms", on=cold)
    add("core.cache.disk_warm_ms_p50", "ms", on=cold)
    add("repro.import_s", "s", on=cold)
    # hot kernels
    add("hot.gflops_geomean", "GFLOP/s", "higher", on=hot)
    for row in HOT_ROWS:
        add(hot_key(*row) + "_gflops", "GFLOP/s", "higher", on=hot)
        add(hot_key(*row) + "_vs_scipy", "ratio", "higher", on=hot)
    for row in HOT_ROWS:
        if row[0] == "mvm":
            add(hot_key(*row) + "_roofline_frac", "ratio", "higher", on=hot)
    add("stream_triad_gbs.dram", "GB/s", "higher", on=hot)
    add("stream_triad_gbs.ws", "GB/s", "higher", on=hot)
    for row in HOT_ROWS:
        if row[:2] == ("mvm", "csr"):
            add(hot_key(*row) + "_tiled_speedup", "ratio", "higher", on=hot)
    add("core.backend.prepared_call_us", "us", on=cold + hot)
    add("core.backend.small_call_vs_scipy", "ratio", "higher", on=cold)
    add("core.backend.unprepared_call_us", "us", on=hot)
    add("core.backend.dispatch_floor_us", "us", on=hot)
    add("core.compiler.call_overhead_us", "us", on=hot)
    add("blas.api.handle_overhead_us", "us", on=hot)
    # solvers
    add("solvers.context.setup_cold_ms", "ms", on=solve)
    add("solvers.context.setup_warm_ms", "ms", on=solve)
    for c in SOLVER_CASES:
        add(f"solvers.iterate_us_per_iter.{c}", "us", on=solve)
        add(f"solvers.iterations.{c}", "count", on=solve)
    add("solvers.matvec_share.cg", "ratio", "higher", on=solve)
    add("solve_vs_scipy.cg", "ratio", "higher", on=solve)
    add("solve_vs_scipy.bicgstab", "ratio", "higher", on=solve)
    # selection / autotune
    add("search.features_ms", "ms", on=hot)
    add("search.format_select.model_ms", "ms", on=hot)
    add("formats.convert_ms", "ms", on=hot)
    add("search.autotune.cold_s", "s", on=solve)
    add("search.autotune.warm_ms", "ms", on=solve)
    add("search.autotune.microbench_runs", "count", on=solve)
    add("search.autotune.regret", "ratio", on=solve)
    # daemon
    add("core.daemon.startup_s", "s", on=serve)
    add("core.daemon.cold_ms_p50", "ms", on=serve)
    add("core.daemon.warm_ms_p99", "ms", on=serve)
    add("core.daemon.server_warm_ms_p50", "ms", on=serve)
    add("core.client.overhead_ms", "ms", on=serve)
    add("core.daemon.payload_upload_ms", "ms", on=serve)
    add("core.daemon.req_per_s", "1/s", "higher", on=serve)
    add("core.daemon.vs_echo", "ratio", "higher", on=serve)
    add("core.wire.encode_mb_s", "MB/s", "higher", on=serve)
    add("core.wire.decode_mb_s", "MB/s", "higher", on=serve)
    add("core.wire.send_us", "us", on=serve)
    add("core.wire.recv_us", "us", on=serve)
    add("core.daemon.handle_hit_ratio", "ratio", "higher", on=serve)
    add("core.daemon.coalesced", "count", on=serve)
    add("core.daemon.rejected", "count", on=serve)
    add("core.daemon.rss_mb", "MiB", on=serve)
    return out


PER_LAYER = _per_layer()

RUN_SECONDS = 12

#: what the result line says for a metric that reads null everywhere else
NOT_MEASURED = -1.0


def result_metrics(workload: str, values: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric of the mode.
    A per-layer metric nobody measured reads 0 on a workload that never
    enters the layer and null, with a warning, on one that should have."""
    if not trace:
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _better, _bound in END_TO_END}
    out = {name: {"value": values.get(name, None if workload in on else 0.0),
                  "unit": unit}
           for name, unit, _better, on in PER_LAYER}
    nulls = [name for name, entry in out.items() if entry["value"] is None]
    if nulls:
        warnings.warn(f"not measured on {workload}, reported as null "
                      f"({NOT_MEASURED:g} in the result line): "
                      + ", ".join(nulls), RuntimeWarning)
    return out


def numeric(metrics: dict) -> dict:
    """``result_metrics`` output with every null replaced by
    ``NOT_MEASURED``: the form the driver accepts."""
    return {name: {**entry, "value": NOT_MEASURED if entry["value"] is None
                   else entry["value"]}
            for name, entry in metrics.items()}


def benchmark_json() -> dict:
    """The contract file at the repo root, exactly the keys it allows."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _on in PER_LAYER],
    }
