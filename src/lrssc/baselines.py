"""Closed-form low-rank representation (LRR) solutions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below max(n, N) * sigma_1 * this factor count as zero.
_RANK_TOL_FACTOR = 1e-12


@dataclass
class LrrSolution:
    """Closed-form representation C plus the retained singular-value indices."""

    C: np.ndarray
    active_set: np.ndarray


def _checked_svd(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
    if not np.any(X):
        raise ValueError("X must contain at least one nonzero entry")
    return np.linalg.svd(X, full_matrices=False)


def lrr_noiseless(X) -> LrrSolution:
    """Minimum-nuclear-norm solution of X = XC: the row-space projector V V^T."""
    _, s, Vt = _checked_svd(X)
    tol = max(np.asarray(X).shape) * s[0] * _RANK_TOL_FACTOR
    keep = np.flatnonzero(s > tol)
    V1 = Vt[keep].T
    return LrrSolution(C=V1 @ V1.T, active_set=keep)


def lrr_noisy(X, lam: float) -> LrrSolution:
    """Closed-form minimizer of (lam/2)*||X - XC||_F^2 + ||C||_*.

    Keeps singular values with s_i > 1/sqrt(lam) and shrinks the projector
    eigenvalues to 1 - 1/(lam * s_i^2); an empty active set gives C = 0.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _, s, Vt = _checked_svd(X)
    keep = np.flatnonzero(s > 1.0 / np.sqrt(lam))
    n_points = np.asarray(X).shape[1]
    if keep.size == 0:
        return LrrSolution(C=np.zeros((n_points, n_points)), active_set=keep)
    V1 = Vt[keep].T
    shrink = 1.0 - 1.0 / (lam * s[keep] ** 2)
    return LrrSolution(C=(V1 * shrink) @ V1.T, active_set=keep)
