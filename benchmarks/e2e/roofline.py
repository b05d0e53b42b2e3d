"""Measured bandwidth roofline: a single-threaded STREAM triad at two
stated sizes, run in the same process as the kernels it judges.

- ``dram``: each of the three arrays at least four times the last-level
  cache ``lscpu`` reports, if a quarter of ``MemAvailable`` allows;
  otherwise the largest that fits, with both sizes printed and the result
  labelled as not reaching 4x.  (``--smoke`` caps the arrays: first-touching
  gigabytes costs tens of seconds in a VM.)
- ``ws``: three 16 MiB arrays — the working-set class of the hot suite's
  matrices (beyond L2, inside the last-level cache on this machine).

``triad.c`` is compiled with the ``cc -O3`` that
``repro.core.backend.find_compiler()`` returns; without a compiler the
probe falls back to ``np.add(b, c, out=a)`` and says so.  Bytes are
*computed* (3 arrays x 8 bytes x n per pass), not counted by hardware.
"""

from __future__ import annotations

import ctypes
import os
import re
import subprocess
import tempfile
import time
from typing import Dict, Optional, Tuple

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
MIB = 1 << 20


def last_level_cache_mib() -> Optional[float]:
    """The largest cache ``lscpu`` lists, in MiB; None if unknown."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    unit = {"KiB": 1 / 1024, "MiB": 1.0, "GiB": 1024.0}
    sizes = [float(v) * unit[u] for v, u in
             re.findall(r"^L\d\w* cache:\s+([\d.]+) (KiB|MiB|GiB)", out, re.M)]
    return max(sizes) if sizes else None


def mem_available_mib() -> Optional[float]:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _compile_triad() -> Optional[ctypes.CDLL]:
    from repro.core.backend import find_compiler

    cc = find_compiler()
    if cc is None:
        return None
    so = os.path.join(tempfile.gettempdir(), "triad.so")
    r = subprocess.run([cc, "-O3", "-fPIC", "-shared",
                        os.path.join(_HERE, "triad.c"), "-o", so],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        return None
    lib = ctypes.CDLL(so)
    lib.triad.argtypes = [ctypes.c_void_p] * 3 + [
        ctypes.c_double, ctypes.c_long, ctypes.c_long]
    lib.triad.restype = None
    return lib


def _gbs(lib, mib_per_array: float, seconds: float) -> Tuple[float, int]:
    """Best-pass bandwidth in GB/s over about ``seconds`` of passes."""
    n = int(mib_per_array * MIB // 8)
    # np.full, not np.zeros: calloc'd pages fault in far slower on first write
    a, b, c = np.full(n, 0.0), np.full(n, 1.0), np.full(n, 2.0)

    def one_pass():
        if lib is not None:
            lib.triad(a.ctypes.data, b.ctypes.data, c.ctypes.data, 3.0, n, 1)
        else:
            np.add(b, c, out=a)

    one_pass()
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - t0)
    times.sort()
    return 3 * 8 * n / times[len(times) // 2] / 1e9, len(times)


def measure(ws_mib: float, dram_cap_mib: Optional[float],
            seconds: float = 1.0) -> Dict[str, object]:
    """Both triad sizes; the dram size is derived from the last-level
    cache, available memory and ``dram_cap_mib`` as described above."""
    lib = _compile_triad()
    llc = last_level_cache_mib()
    dram_mib = 4.0 * (llc or 64.0)
    avail = mem_available_mib()
    if avail is not None and 3 * dram_mib > avail / 4.0:
        dram_mib = avail / 12.0
    if dram_cap_mib is not None:
        dram_mib = min(dram_mib, dram_cap_mib)
    ws, n_ws = _gbs(lib, ws_mib, seconds)
    dram, n_dram = _gbs(lib, dram_mib, seconds)
    return {
        "kernel": "triad.c (cc -O3)" if lib is not None
                  else "numpy np.add(b, c, out=a) fallback",
        "llc_mib": llc, "ws_mib": ws_mib, "dram_mib": dram_mib,
        "dram_is_4x_llc": llc is not None and dram_mib >= 4.0 * llc,
        "ws_gbs": ws, "ws_passes": n_ws,
        "dram_gbs": dram, "dram_passes": n_dram,
    }
