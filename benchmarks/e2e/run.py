#!/usr/bin/env python3
"""bench_e2e: one layered benchmark for the sparse-compiler repro.

    python benchmarks/e2e/run.py                         all workloads, untraced then traced
    python benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python benchmarks/e2e/run.py --smoke                 tiny sizes, everything, < 60 s
    python benchmarks/e2e/run.py --selftest              span arithmetic on a synthetic tree
    python benchmarks/e2e/run.py --compare A.jsonl B.jsonl
    python benchmarks/e2e/run.py --write-benchmark-json  regenerate BENCHMARK.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``, each a number
(-1 for a per-layer metric that could not be measured).  See
README.md in this directory for what each metric means and why.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _bootstrap() -> str:
    """Before numpy loads: one BLAS/OpenMP thread (kernels are compared
    single-threaded), the package importable as ``e2e`` (so this
    directory's ``trace.py`` never shadows the stdlib module), the repo's
    ``src`` on the path, and every temporary file under ``out/``."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    sys.path[:0] = [os.path.dirname(_HERE), os.path.join(_ROOT, "src")]
    tmp = os.path.join(_HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    import tempfile

    tempfile.tempdir = tmp
    return tmp


_TMP = _bootstrap()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402


def _workload(name: str):
    import importlib

    return importlib.import_module(f"e2e.w_{name}")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool):
    """Execute one workload in this process.  Returns (Run, header)."""
    from e2e import harness as h
    from e2e import trace as tr

    mod = _workload(workload)
    header = h.run_header(seed, smoke)
    if not trace:
        run = h.Run(smoke, seed, seconds)
        mod.run(run)
        run.emit("peak_rss_mb", h.peak_rss_mb(children=workload == "serve"))
        return run, header

    tracer = tr.Tracer().install()
    run = h.Run(smoke, seed, seconds, tracer=tracer)
    try:
        mod.run(run)
    finally:
        tracer.uninstall()
    tr.layer_metrics(run, tracer)
    os.makedirs(os.path.join(_HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(_HERE, "out", f"trace_{workload}.json"))
    return run, header


def result_of(workload: str, run, trace: bool) -> dict:
    """The contract's result object: exactly the declared metrics."""
    from e2e import metrics as m

    values = {name: value for name, (value, _n) in run.metrics.items()}
    return {"correct": run.tally.failed == 0,
            "attempted": max(1, run.tally.attempted),
            "failed": run.tally.failed,
            "metrics": m.result_metrics(workload, values, trace)}


def print_report(workload: str, run, header: dict, trace: bool) -> None:
    from e2e import metrics as m

    units = {n: u for n, u, *_ in m.END_TO_END + m.PER_LAYER}
    print(f"== {workload} ({'traced' if trace else 'untraced'}) "
          f"seed={header['seed']} smoke={header['smoke']} "
          f"nproc={header['nproc']} python={header['python']} "
          f"numpy={header['numpy']} scipy={header['scipy']}")
    print(f"   cc={header['cc']} openmp={header['openmp']} "
          f"simd={header['simd']} commit={header['commit']} env={header['env']}")
    for name in sorted(run.metrics):
        value, n = run.metrics[name]
        print(f"   {name:44s} {value:16.6g} {units.get(name, ''):8s} n={n}")
    for name, _unit, _better, on in m.PER_LAYER if trace else ():
        if workload in on and name not in run.metrics:
            print(f"   {name:44s} {'null':>16s} (not measured)")
    for note in run.notes:
        print(f"   note: {note}")
    t = run.tally
    share = t.failed / max(1, t.attempted)
    print(f"   failed_share = {t.failed}/{t.attempted} = {share:.4f}")
    for why in t.reasons:
        print(f"   FAILED: {why}")


def _child(args, workload: str, trace: int, record=None) -> dict:
    """Run one workload in a fresh interpreter (clean caches, clean RSS)
    and return its result object; its report passes through."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + ["--smoke"] * args.smoke
    if record:
        cmd += ["--record", record]
    proc = subprocess.run(cmd, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace={trace}) exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    from e2e import metrics as m

    bad = 0
    for trace in (0, 1):
        for workload, _why in m.WORKLOADS:
            res = _child(args, workload, trace, args.record)
            bad += res["failed"]
    print(f"total failed operations: {bad}")
    return 1 if bad else 0


def main(argv=None) -> int:
    from e2e import metrics as m

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w, _ in m.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1072)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measurement budget per run (default {m.RUN_SECONDS})")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, all workloads, both modes")
    ap.add_argument("--record", metavar="FILE",
                    help="append each run's result as one JSON line")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if args.selftest:
        from e2e import selftest

        return selftest.main()
    if args.compare:
        from e2e import compare

        return compare.main(*args.compare)
    if args.write_benchmark_json:
        with open(os.path.join(_ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(m.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(m.RUN_SECONDS)
    if args.workload is None:
        return run_all(args)

    try:
        import repro  # noqa: F401
    except ImportError:
        raise SystemExit(f"bench_e2e: cannot import repro from "
                         f"{os.path.join(_ROOT, 'src')}; run it from a "
                         "checkout of the repository")
    warnings.simplefilter("default")
    run, header = run_one(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print_report(args.workload, run, header, bool(args.trace))
    result = result_of(args.workload, run, bool(args.trace))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "trace": args.trace,
                "header": header, **result,
                "samples": {k: n for k, (_v, n) in run.metrics.items()},
            }) + "\n")
    print(json.dumps({**result, "metrics": m.numeric(result["metrics"])}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        shutil.rmtree(_TMP, ignore_errors=True)
    sys.exit(code)
