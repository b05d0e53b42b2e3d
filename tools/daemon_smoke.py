"""CI smoke for the compilation daemon, end to end as real processes.

Starts ``python -m repro.core.daemon`` as a subprocess on a unix socket
with a fresh disk cache, hammers it with concurrent client threads all
requesting native compiles of the same (program, matrix) pairs, then
asserts the daemon did the minimum possible work and died cleanly:

- every request succeeded;
- ``native.compiles`` == the number of unique artifact digests (one
  ``cc`` invocation per digest, no matter how many clients race);
- the disk artifacts landed sharded (``cache_dir/ab/abcd....so``) with
  no stale ``.lock`` files;
- SIGTERM drains: the process exits 0 and prints its goodbye line.

``--uploads N`` (off by default) then sends N same-structure, new-values
uploads of a larger matrix from one client and asserts the daemon holds
its hot set and the probation share, not every matrix it was sent:

- its peak RSS (``VmHWM`` in ``/proc/<pid>/status``, where that file
  exists) grew by at most ``HWM_GROWTH_MB``;
- ``payload_bytes`` in ``stats`` exceeds the hot set's by at most the
  probation share: ``payload_capacity // 8`` uploads.

Usage: ``python tools/daemon_smoke.py [--clients 8] [--requests 5]
[--uploads 300]``.  Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import inspect
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.core import daemon  # noqa: E402
from repro.core.client import ServiceClient  # noqa: E402
from repro.formats import as_format  # noqa: E402
from repro.formats.csr import CsrMatrix  # noqa: E402
from repro.formats.generate import random_sparse  # noqa: E402
from repro.ir.kernels import ALL_KERNELS  # noqa: E402
from repro.ir.printer import program_to_text  # noqa: E402

#: how far the daemon's peak RSS may rise over ``--uploads``: about twice
#: the probation share of the upload matrix (32 x 0.8 MiB), plus room for
#: the decode buffers of one request; a daemon that keeps every upload
#: grows 266 MiB here
HWM_GROWTH_MB = 64
#: the upload matrix: UPLOAD_N rows of UPLOAD_ROW entries (0.8 MiB as CSR)
UPLOAD_N, UPLOAD_ROW = 4096, 16
_PAYLOADS = inspect.signature(
    daemon.CompileServer).parameters["payload_capacity"].default
PROBATION = max(1, _PAYLOADS // daemon._PROBATION_ONE_IN)


def _vm_hwm_mb(pid: int):
    """The process's peak RSS in MiB, or None where /proc has no status."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _uploads(sock: str, pid: int, count: int, options, failures) -> None:
    """Send ``count`` same-structure, new-values uploads from one client
    and bound what the daemon kept of them."""
    rng = np.random.default_rng(2)
    rowptr = np.arange(0, UPLOAD_N * UPLOAD_ROW + 1, UPLOAD_ROW,
                       dtype=np.int32)
    colind = np.sort(rng.integers(0, UPLOAD_N, (UPLOAD_N, UPLOAD_ROW)),
                     axis=1).astype(np.int32).ravel()
    values = rng.random(UPLOAD_N * UPLOAD_ROW)
    one = rowptr.nbytes + colind.nbytes + values.nbytes
    src = program_to_text(ALL_KERNELS["mvm"]())
    with ServiceClient(sock, timeout=300.0) as svc:
        before = svc.stats()
        hwm0 = _vm_hwm_mb(pid)
        for i in range(count):
            A = CsrMatrix(rowptr, colind, values * float(i + 1),
                          (UPLOAD_N, UPLOAD_N))
            h = svc.compile(src, {"A": A}, options=options)
            if not h.ok or h.cached:
                failures.append(f"upload {i}: ok={h.ok} cached={h.cached}")
                return
        st = svc.stats()
    hwm1 = _vm_hwm_mb(pid)
    grew = None if hwm0 is None or hwm1 is None else hwm1 - hwm0
    held = st["payload_bytes"] - before["payload_bytes"]
    print(f"[daemon_smoke] {count} uploads: VmHWM "
          + ("n/a" if grew is None else f"+{grew:.1f} MiB")
          + f", payload_bytes +{held / 2**20:.1f} MiB, payloads="
          f"{st['payloads']} ({st['payloads_probation']} probation), "
          f"handles={st['handles']}")
    if grew is not None and grew > HWM_GROWTH_MB:
        failures.append(f"VmHWM grew {grew:.1f} MiB over {count} uploads "
                        f"(bound {HWM_GROWTH_MB})")
    if held > PROBATION * one:
        failures.append(f"payload_bytes grew {held} B, more than the "
                        f"probation share {PROBATION} x {one} B")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--requests", type=int, default=5)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--uploads", type=int, default=0,
                    help="same-structure, new-values uploads to send after "
                         "the checks (default 0: none)")
    args = ap.parse_args(argv)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "repro.sock")
        cache_dir = os.path.join(tmp, "cache")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(_ROOT, "src"),
                   REPRO_CACHE_DIR=cache_dir)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.daemon", "--socket", sock],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            # two unique (program, matrix) pairs shared by every client
            A = as_format(
                random_sparse(args.n, args.n, density=0.3, seed=1)
                .to_dense(), "csr")
            pairs = [(program_to_text(ALL_KERNELS[k]()), {"A": A})
                     for k in ("mvm", "row_sums")]
            options = {"backend": "c", "cache": "disk"}
            errors, oks = [], []
            lock = threading.Lock()

            def client_main():
                try:
                    # retry-on-connect rides out daemon startup
                    with ServiceClient(sock, timeout=300.0,
                                       connect_retries=100) as svc:
                        for _ in range(args.requests):
                            for src, bindings in pairs:
                                h = svc.compile(src, bindings,
                                                options=options)
                                with lock:
                                    oks.append(h)
                except Exception as e:  # recorded; fails the smoke
                    with lock:
                        errors.append(f"{type(e).__name__}: {e}")

            threads = [threading.Thread(target=client_main)
                       for _ in range(args.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)

            want = args.clients * args.requests * len(pairs)
            if errors:
                failures.append(f"client errors: {errors[:5]}")
            if len(oks) != want:
                failures.append(f"got {len(oks)}/{want} responses")
            if not all(h.backend_used and h.backend_used.startswith("c")
                       for h in oks):
                reasons = {h.fallback_reason for h in oks
                           if not (h.backend_used or "").startswith("c")}
                failures.append(f"non-native responses: {reasons}")

            with ServiceClient(sock) as svc:
                st = svc.stats()
                compiles = st["counters"].get("native.compiles", 0)
                digests = len({h.raw.get("handle") for h in oks})
                # one cc invocation per unique artifact digest
                if compiles > digests:
                    failures.append(
                        f"native.compiles={compiles} for {digests} "
                        "unique requests (single-flight broken?)")
                if compiles == 0:
                    failures.append("native.compiles=0 — nothing "
                                    "actually hit the toolchain")
                print(f"[daemon_smoke] {len(oks)} responses, "
                      f"native.compiles={compiles}, "
                      f"handle_hits="
                      f"{st['counters'].get('daemon.handle.hits', 0)}, "
                      f"coalesced="
                      f"{st['counters'].get('daemon.coalesced', 0)}")

            root = pathlib.Path(cache_dir)
            sos = list(root.rglob("*.so"))
            if not sos:
                failures.append("no .so artifacts on disk")
            for so in sos:
                if so.parent.name != so.name[:2]:
                    failures.append(f"artifact not sharded: {so}")
            locks = list(root.rglob("*.lock"))
            if locks:
                failures.append(f"stale lock files: {locks}")

            if args.uploads:
                _uploads(sock, proc.pid, args.uploads, options, failures)

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            if proc.returncode != 0:
                failures.append(f"daemon exit code {proc.returncode}")
            if "drained, bye" not in out:
                failures.append(f"no drain goodbye in output: {out[-500:]}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    if failures:
        print("[daemon_smoke] FAILED", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("[daemon_smoke] ok: one cc per digest, sharded artifacts, "
          "clean drain")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
