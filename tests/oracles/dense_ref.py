"""NumPy oracles: ground truth for every BLAS operation."""

from __future__ import annotations

import numpy as np


def mvm(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return A @ x


def mvm_t(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return A.T @ x


def mm(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    return A @ X


def mm_t(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    return A.T @ X


def spgemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C = A B with both operands dense — the structure-blind oracle the
    sparse×sparse tiers are differentially tested against."""
    return A @ B


def ts_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    import scipy.linalg as sla

    return sla.solve_triangular(L, b, lower=True)


def ts_upper(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    import scipy.linalg as sla

    return sla.solve_triangular(U, b, lower=False)
