"""Synthetic matrix generators for tests and benchmarks.

The paper measures on ``can_1072`` from the Harwell–Boeing collection — a
1072x1072 structural-engineering matrix with symmetric pattern and 12444
stored entries.  :func:`can_1072_like` synthesizes a deterministic matrix
with the same order and a similar non-zero budget and row-length spread
(see DESIGN.md, substitutions table); real matrices can be read with
:mod:`repro.formats.io` instead when available.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.formats.coo import CooMatrix


def random_sparse(m: int, n: int, density: float = 0.05, seed: int = 0,
                  ensure_diag: bool = False) -> CooMatrix:
    """Uniform random sparse matrix with values in [0.5, 1.5) (bounded away
    from zero so triangular solves stay well-conditioned)."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(round(density * m * n)))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.random(nnz) + 0.5
    mat = CooMatrix.from_coo(rows, cols, vals, (m, n))
    if ensure_diag:
        d = np.arange(min(m, n))
        rows2 = np.concatenate([mat.rows, d])
        cols2 = np.concatenate([mat.cols, d])
        vals2 = np.concatenate([mat.vals, np.full(d.size, float(min(m, n)))])
        mat = CooMatrix.from_coo(rows2, cols2, vals2, (m, n))
    return mat


def banded(n: int, bandwidth: int = 1, seed: int = 0) -> CooMatrix:
    """Banded matrix: all diagonals with |r - c| <= bandwidth stored,
    strong diagonal."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for d in range(-bandwidth, bandwidth + 1):
        lo, hi = max(0, -d), min(n, n - d)
        idx = np.arange(lo, hi)
        rows.append(idx + d)
        cols.append(idx)
        v = rng.random(idx.size) + 0.5
        if d == 0:
            v = v + 2.0 * bandwidth
        vals.append(v)
    return CooMatrix.from_coo(np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals), (n, n))


def tridiagonal(n: int, seed: int = 0) -> CooMatrix:
    return banded(n, bandwidth=1, seed=seed)


def laplacian_2d(k: int) -> CooMatrix:
    """The 5-point finite-difference Laplacian on a k x k grid — the classic
    FEM-motivated SPD test matrix (n = k^2, paper's introduction workload)."""
    n = k * k
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for i in range(k):
        for j in range(k):
            p = i * k + j
            add(p, p, 4.0)
            if i > 0:
                add(p, p - k, -1.0)
            if i < k - 1:
                add(p, p + k, -1.0)
            if j > 0:
                add(p, p - 1, -1.0)
            if j < k - 1:
                add(p, p + 1, -1.0)
    return CooMatrix.from_coo(np.array(rows), np.array(cols), np.array(vals), (n, n))


def can_1072_like(n: int = 1072, target_nnz: int = 12444, seed: int = 1072) -> CooMatrix:
    """A deterministic synthetic stand-in for Harwell–Boeing ``can_1072``.

    Matches: the order (1072), symmetric pattern, a full diagonal, ~12.4k
    stored entries, and a mix of local (banded) and distant (sparse random)
    connectivity typical of the CANNES structural meshes.  The values are
    synthetic (the original is a pattern-only matrix; NIST benchmarks filled
    it with arbitrary reals, as do we).
    """
    rng = np.random.default_rng(seed)
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    # local band: connect to a few nearby nodes (mesh locality)
    for d in (1, 2, 3):
        keep = rng.random(n - d) < 0.55
        idx = np.nonzero(keep)[0]
        rows.append(idx + d)
        cols.append(idx)
        rows.append(idx)
        cols.append(idx + d)
    # distant couplings until the budget is met (symmetric pairs)
    have = sum(r.size for r in rows)
    extra = max(0, (target_nnz - have) // 2)
    rr = rng.integers(0, n, size=extra * 2)
    cc = rng.integers(0, n, size=extra * 2)
    mask = rr > cc
    rr, cc = rr[mask][:extra], cc[mask][:extra]
    rows.extend([rr, cc])
    cols.extend([cc, rr])
    rows_all = np.concatenate(rows)
    cols_all = np.concatenate(cols)
    vals = rng.random(rows_all.size) + 0.5
    # symmetrize values by keying on the unordered pair
    lo = np.minimum(rows_all, cols_all)
    hi = np.maximum(rows_all, cols_all)
    pair_rng = np.random.default_rng(seed + 1)
    vals = (np.sin(lo * 7919.0 + hi * 104729.0) + 1.6) * 0.5  # deterministic symmetric
    vals[rows_all == cols_all] = 8.0  # dominant diagonal
    return CooMatrix.from_coo(rows_all, cols_all, vals, (n, n))


def power_law_rows(m: int, n: int, nnz_target: Optional[int] = None,
                   alpha: float = 1.3, seed: int = 0) -> CooMatrix:
    """Sparse matrix with power-law row lengths: a few very heavy rows and
    a long tail of near-empty ones (web graphs, social networks — the
    structure class where ELL collapses and row-balanced formats lose).

    Row lengths follow ``rank^-alpha`` scaled to ``nnz_target`` (default
    ``5 * m``), clipped to ``[1, n]``, and shuffled so row index and row
    length are uncorrelated; columns are uniform."""
    rng = np.random.default_rng(seed)
    if nnz_target is None:
        nnz_target = 5 * m
    ranks = np.arange(1, m + 1, dtype=np.float64)
    weights = ranks ** -alpha
    counts = np.round(weights / weights.sum() * nnz_target).astype(np.int64)
    counts = np.clip(counts, 1, n)
    counts = counts[rng.permutation(m)]
    # COO triples for from_coo: exchange width
    rows = np.repeat(np.arange(m, dtype=np.int64), counts)
    cols = rng.integers(0, n, size=int(counts.sum()))
    vals = rng.random(rows.size) + 0.5
    return CooMatrix.from_coo(rows, cols, vals, (m, n))


def block_structured(n: int, block_size: int = 4, blocks_per_row: int = 2,
                     seed: int = 0) -> CooMatrix:
    """Matrix of fully dense ``block_size x block_size`` tiles on a sparse
    block skeleton (FEM with vector unknowns — the BSR sweet spot): every
    block row gets its diagonal block plus ``blocks_per_row`` random ones.
    ``n`` is rounded down to a multiple of ``block_size``."""
    s = int(block_size)
    nb = max(1, n // s)
    rng = np.random.default_rng(seed)
    # COO triples for from_coo: exchange width
    rb = np.concatenate([np.repeat(np.arange(nb, dtype=np.int64),
                                   blocks_per_row),
                         np.arange(nb, dtype=np.int64)])
    cb = np.concatenate([rng.integers(0, nb, size=nb * blocks_per_row),
                         np.arange(nb, dtype=np.int64)])
    # expand each block coordinate to its dense s x s tile
    ri, ci = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    rows = (rb[:, None] * s + ri.ravel()[None, :]).ravel()
    cols = (cb[:, None] * s + ci.ravel()[None, :]).ravel()
    vals = rng.random(rows.size) + 0.5
    # strengthen the diagonal (duplicate blocks are summed by from_coo)
    vals[rows == cols] += float(s * (blocks_per_row + 1))
    return CooMatrix.from_coo(rows, cols, vals, (nb * s, nb * s))


def lower_triangular_of(mat: CooMatrix, unit_free_diag: bool = True) -> CooMatrix:
    """The lower-triangular part (including diagonal) of a matrix, with the
    diagonal forced non-zero so it can drive a triangular solve — exactly
    how the TS benchmark extracts L from can_1072."""
    rows, cols, vals = mat.to_coo_arrays()
    keep = rows >= cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    n = min(mat.shape)
    d = np.arange(n)
    rows = np.concatenate([rows, d])
    cols = np.concatenate([cols, d])
    vals = np.concatenate([vals, np.full(n, float(n) if unit_free_diag else 1.0)])
    out = CooMatrix.from_coo(rows, cols, vals, mat.shape)
    out.annotate_triangular("lower")
    return out


def upper_triangular_of(mat: CooMatrix) -> CooMatrix:
    """The upper-triangular part (including a strengthened diagonal)."""
    rows, cols, vals = mat.to_coo_arrays()
    keep = rows <= cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    n = min(mat.shape)
    d = np.arange(n)
    rows = np.concatenate([rows, d])
    cols = np.concatenate([cols, d])
    vals = np.concatenate([vals, np.full(n, float(n))])
    out = CooMatrix.from_coo(rows, cols, vals, mat.shape)
    out.annotate_triangular("upper")
    return out
