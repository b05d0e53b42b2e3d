"""Cross-process artifact-cache race (satellite: concurrent writers).

N forked processes share one ``REPRO_CACHE_DIR`` and simultaneously
request the same native digest with ``cache="disk"``.  The flock +
atomic-rename guard in :mod:`repro.core.backend` must serialize them:
exactly one toolchain invocation total, everyone else loads the winner's
artifact, and no temp files survive.  Two processes that start the same
two units in opposite orders, and join them in the other order, must
not wait on each other.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.core import backend as be

pytestmark = [
    pytest.mark.skipif(be.find_compiler() is None,
                       reason="no C compiler on PATH"),
    pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork"),
    pytest.mark.skipif(be.fcntl is None, reason="needs fcntl.flock"),
]

NPROC = 4
N = 10


def _worker(cache_dir, barrier, q):
    """Runs in a forked child: scrub every fork-inherited process-local
    cache, sync on the barrier, then compile the shared digest."""
    try:
        os.environ["REPRO_CACHE_DIR"] = cache_dir

        import numpy as np

        from repro.core import backend as child_be
        from repro.core import compile_kernel
        from repro.core.cache import clear_compile_cache
        from repro.formats import as_format
        from repro.formats.generate import random_sparse
        from repro.instrument import INSTR
        from repro.ir.kernels import ALL_KERNELS

        child_be.reset_toolchain_cache(scratch=True)
        clear_compile_cache()
        INSTR.reset()

        A = as_format(random_sparse(N, N, density=0.4, seed=77).to_dense(),
                      "csr")
        barrier.wait(timeout=120)
        k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                           backend="c", cache="disk")
        x = np.linspace(-1.0, 1.0, N)
        y = np.zeros(N)
        k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        q.put({
            "ok": True,
            "compiles": INSTR.get("native.compiles"),
            "disk_hits": INSTR.get("native.so_cache.hits.disk"),
            "backend": k.backend_used,
            "y": y.tobytes(),
        })
    except BaseException as e:  # noqa: BLE001 - shipped to the parent
        q.put({"ok": False, "error": repr(e)})


def test_concurrent_processes_one_cc_invocation(tmp_path):
    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(NPROC)
    q = ctx.Queue()
    procs = [ctx.Process(target=_worker, args=(str(tmp_path), barrier, q))
             for _ in range(NPROC)]
    for p in procs:
        p.start()
    try:
        results = [q.get(timeout=300) for _ in procs]
    finally:
        for p in procs:
            p.join(timeout=60)
            if p.is_alive():
                p.terminate()

    assert all(r["ok"] for r in results), results
    # the whole point: one cc run across all processes, everyone else
    # loaded the winner's artifact through the disk layer
    assert sum(r["compiles"] for r in results) == 1, results
    assert sum(r["disk_hits"] for r in results) == NPROC - 1, results
    assert all(r["backend"].startswith("c") for r in results), results
    assert len({r["y"] for r in results}) == 1

    files = [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
             if p.is_file()]
    assert not [f for f in files if f.endswith((".tmp.so", ".c"))], files
    # lock files are unlinked by their holder on release: a shared cache
    # dir must not accumulate them (satellite: stale-lock cleanup)
    assert not [f for f in files if f.endswith(".lock")], files
    sos = [f for f in files if f.endswith(".so")]
    assert len(sos) == 1, files
    # artifacts shard by digest prefix: cache_dir/ab/abcd....so
    shard, name = os.path.split(sos[0])
    assert shard == name[:2], sos


def _crossed_worker(cache_dir, barrier, q, order):
    """Runs in a forked child: search both units, start the *second* of
    ``order``, sync, start the first (its lock is the other process's),
    then join in ``order``."""
    try:
        os.environ["REPRO_CACHE_DIR"] = cache_dir

        from repro.core import backend as child_be
        from repro.core import compile_kernel
        from repro.core.cache import clear_compile_cache
        from repro.formats import as_format
        from repro.formats.generate import random_sparse
        from repro.instrument import INSTR
        from repro.ir.kernels import ALL_KERNELS

        child_be.reset_toolchain_cache(scratch=True)
        clear_compile_cache()
        INSTR.reset()

        A = as_format(random_sparse(N, N, density=0.4, seed=77).to_dense(),
                      "csr")
        kernels = [compile_kernel(ALL_KERNELS[op](), {"A": A}, backend="c",
                                  cache="disk", bind=False) for op in order]
        kernels[1].start_native()
        barrier.wait(timeout=120)
        kernels[0].start_native()
        for k in kernels:
            k.native()
        q.put({
            "ok": True,
            "compiles": INSTR.get("native.compiles"),
            "disk_hits": INSTR.get("native.so_cache.hits.disk"),
            "backends": [k.backend_used for k in kernels],
        })
    except BaseException as e:  # noqa: BLE001 - shipped to the parent
        q.put({"ok": False, "error": repr(e)})


def test_crossed_start_orders_do_not_wait_on_each_other(tmp_path):
    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(2)
    q = ctx.Queue()
    procs = [ctx.Process(target=_crossed_worker,
                         args=(str(tmp_path), barrier, q, order))
             for order in (["mvm", "mvm_t"], ["mvm_t", "mvm"])]
    for p in procs:
        p.start()
    try:
        results = [q.get(timeout=120) for _ in procs]
    finally:
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():
                p.kill()
                p.join()

    assert all(r["ok"] for r in results), results
    # each process built the unit it started first and loaded the other's
    assert [r["compiles"] for r in results] == [1, 1], results
    assert [r["disk_hits"] for r in results] == [1, 1], results
    assert all(b.startswith("c") for r in results for b in r["backends"])
    files = [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
             if p.is_file()]
    assert not [f for f in files if f.endswith((".tmp", ".c", ".lock"))], \
        files
    assert len([f for f in files if f.endswith(".so")]) == 2, files
