"""Benchmark fixtures: the can_1072 stand-in, triangular parts, and a
session-wide compiled-kernel cache (compilation is excluded from timing).

Set REPRO_BENCH_N to shrink the matrix for quick runs (default 1072, the
paper's size).
"""

from __future__ import annotations

import os

from repro.core import compile_kernel
from repro.formats import as_format
from repro.formats.generate import can_1072_like, lower_triangular_of
from repro.ir.kernels import ALL_KERNELS

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "1072"))

_cache = {}


def flops_mvm(nnz: int) -> int:
    """Multiply + add per stored entry."""
    return 2 * nnz


def flops_ts(nnz: int, n: int) -> int:
    """Multiply + subtract per off-diagonal entry, one division per row."""
    return 2 * (nnz - n) + n


def bench_matrix():
    if "matrix" not in _cache:
        target = int(12444 * (BENCH_N / 1072) ** 1.15)
        _cache["matrix"] = can_1072_like(n=BENCH_N, target_nnz=target)
    return _cache["matrix"]


def bench_lower():
    if "lower" not in _cache:
        _cache["lower"] = lower_triangular_of(bench_matrix())
    return _cache["lower"]


def fmt_instance(kind, fmt_name):
    key = ("fmt", kind, fmt_name)
    if key not in _cache:
        src = bench_lower() if kind == "lower" else bench_matrix()
        kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
        _cache[key] = as_format(src, fmt_name, **kwargs)
    return _cache[key]


def compiled(kernel_name, fmt_name, kind, array_name, **kwargs):
    key = ("kern", kernel_name, fmt_name, kind, tuple(sorted(kwargs.items())))
    if key not in _cache:
        prog = ALL_KERNELS[kernel_name]()
        _cache[key] = compile_kernel(prog, {array_name: fmt_instance(kind, fmt_name)},
                                     **kwargs)
    return _cache[key]
