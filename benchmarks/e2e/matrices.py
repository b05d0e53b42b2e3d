"""Seeded input matrices, as COO triples.

Every generator returns ``(rows, cols, vals, shape)`` with *integer-valued*
float64 values, so sparse products of integer operands are exact and the
oracle can compare them byte for byte whatever the summation order.  Sizes
(order, stored entries, row-length distribution) are fixed by the size
arguments alone; the seed moves values and, where a structure is random,
which columns are occupied — never how much work a kernel does.  That
keeps timings comparable across seeds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

Coo = Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]


def _ints(rng: np.random.Generator, size: int, lo: int = 1, hi: int = 5):
    return rng.integers(lo, hi, size=size).astype(np.float64)


def can_1072(seed: int) -> Coo:
    """The paper's matrix: the pattern of ``can_1072_like`` (order 1072,
    ~12.4k entries, symmetric pattern, full diagonal) with integer values
    and a dominant diagonal."""
    from repro.formats.generate import can_1072_like

    rows, cols, _vals = can_1072_like(seed=seed).to_coo_arrays()
    # symmetric values (SYM stores one triangle): key on the unordered pair
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    vals = 1.0 + ((lo * 7919 + hi * 104729 + seed) % 4)
    vals[rows == cols] = 64.0
    return rows, cols, vals, (1072, 1072)


def lap2d(k: int) -> Coo:
    """5-point Laplacian on a k x k grid (SPD, n = k^2, nnz ~ 5n)."""
    n = k * k
    idx = np.arange(n, dtype=np.int64)
    i, j = idx // k, idx % k
    rows, cols, vals = [idx], [idx], [np.full(n, 4.0)]
    for mask, off in ((i > 0, -k), (i < k - 1, k), (j > 0, -1), (j < k - 1, 1)):
        rows.append(idx[mask])
        cols.append(idx[mask] + off)
        vals.append(np.full(int(mask.sum()), -1.0))
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals), (n, n))


def banded(n: int, bandwidth: int, seed: int) -> Coo:
    """All diagonals |r - c| <= bandwidth; nonsymmetric values, strongly
    dominant diagonal (bicgstab converges in a handful of iterations)."""
    rng = np.random.default_rng([seed, n, bandwidth])
    rows, cols, vals = [], [], []
    for d in range(-bandwidth, bandwidth + 1):
        idx = np.arange(max(0, -d), min(n, n - d), dtype=np.int64)
        rows.append(idx + d)
        cols.append(idx)
        v = _ints(rng, idx.size)
        if d == 0:
            v += 8.0 * bandwidth
        vals.append(v)
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals), (n, n))


def powerlaw(n: int, nnz: int, seed: int, alpha: float = 1.3) -> Coo:
    """Power-law row lengths (a few very heavy rows, a long tail), row
    index uncorrelated with length, uniform columns.  Row lengths depend
    only on (n, nnz, alpha); duplicates within a row are summed by every
    constructor alike."""
    rng = np.random.default_rng([seed, n, nnz])
    weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    counts = np.clip(np.round(weights / weights.sum() * nnz), 1, n)
    counts = counts.astype(np.int64)[rng.permutation(n)]
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    cols = rng.integers(0, n, size=rows.size)
    return rows, cols, _ints(rng, rows.size), (n, n)


def block(n: int, seed: int, block_size: int = 4, blocks_per_row: int = 2) -> Coo:
    """Dense block_size x block_size tiles: the diagonal block plus
    ``blocks_per_row`` random ones per block row (the BSR sweet spot)."""
    s = block_size
    nb = n // s
    rng = np.random.default_rng([seed, n, s])
    rb = np.concatenate([np.repeat(np.arange(nb, dtype=np.int64),
                                   blocks_per_row),
                         np.arange(nb, dtype=np.int64)])
    cb = np.concatenate([rng.integers(0, nb, size=nb * blocks_per_row),
                         np.arange(nb, dtype=np.int64)])
    ri, ci = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    rows = (rb[:, None] * s + ri.ravel()[None, :]).ravel()
    cols = (cb[:, None] * s + ci.ravel()[None, :]).ravel()
    vals = _ints(rng, rows.size)
    vals[rows == cols] += 8.0 * s
    return rows, cols, vals, (nb * s, nb * s)


def lower_part(coo: Coo) -> Coo:
    """Lower triangle including the diagonal (the triangular-solve
    operand; the diagonals above are dominant, so the solve is
    well conditioned)."""
    rows, cols, vals, shape = coo
    keep = rows >= cols
    return rows[keep], cols[keep], vals[keep], shape


#: Matrix orders the driver runs.  They are the sizes the issue names except
#: where a row says why not; what had to give to fit 92 runs into the
#: driver's 3420 s was rounds, cycles and batches, in that order.
SIZES: Dict[str, Optional[int]] = dict(
    lap2d=700,                              # n = 490k, nnz 2.4M
    powerlaw_n=200_000, powerlaw_nnz=1_000_000,
    # issue: 500k.  select_format(mode="model") builds every candidate
    # format in interpreted Python: 4.7 s per set-up repetition at 500k
    # (0.9 s at 100k), and set-up runs 3 x 22 times inside the cap.
    banded=100_000,
    block=100_000,
    lap2d_s=300, powerlaw_s_n=50_000, powerlaw_s_nnz=250_000,   # spgemm
    solve_lap=300,                          # n = 90k
    solve_banded=100_000,
    # issue: n = 90k.  block_cg k=16 takes 39.5 ms x 751 iterations =
    # 29.6 s per solve there (measured), 2.5 run budgets; n = 4096 is 0.2 s.
    solve_block_lap=64,
    serve_lap=100, auto_lap=100,            # n = 10k
    triad_ws_mib=16, triad_dram_cap_mib=None)

#: ``--smoke``: only proves the plumbing.
SMOKE: Dict[str, Optional[int]] = dict(
    lap2d=40, powerlaw_n=2_000, powerlaw_nnz=10_000, banded=4_000,
    block=2_000, lap2d_s=20, powerlaw_s_n=1_000, powerlaw_s_nnz=4_000,
    solve_lap=24, solve_banded=2_000, solve_block_lap=16, serve_lap=20,
    auto_lap=16, triad_ws_mib=1, triad_dram_cap_mib=4)
