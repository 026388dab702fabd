"""Dense complex matrix helpers for the floating-point constructions.

Thin validated wrappers around numpy: squareness checks, the entrywise
sup norm used by every residual report, and the principal square root of
a diagonal matrix.
"""

from __future__ import annotations

import numpy as np


def cmatrix(entries) -> np.ndarray:
    """Validated square complex matrix."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"dimension mismatch: expected a square matrix, got {a.shape}")
    return a


def ident(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def inf_norm(a: np.ndarray) -> float:
    """Largest entry magnitude."""
    return float(np.max(np.abs(a)))


def is_diagonal(a: np.ndarray, tol: float = 0.0) -> bool:
    off = a - np.diag(np.diag(a))
    return inf_norm(off) <= tol


def diag_sqrt(a: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Principal square root of a diagonal matrix, taken on the diagonal.

    Entries must have nonnegative real part; off-diagonal entries beyond
    tol reject the input.
    """
    a = cmatrix(a)
    if not is_diagonal(a, tol):
        raise ValueError("not diagonal")
    d = np.diag(a)
    if np.any(d.real < -abs(tol)):
        raise ValueError("diagonal entry with negative real part")
    return np.diag(np.sqrt(d))


def power_int(a: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.matrix_power(cmatrix(a), k)
