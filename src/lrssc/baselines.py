"""Closed-form low-rank representation (LRR) solutions.

Both take the thin SVD of X from :class:`lrssc.solvers.GramSolver`, the one
thin SVD of X in the package, which runs it on numpy's BLAS held at one
thread.  Their product runs on scipy's BLAS at full width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prox import _gemm
# Bound here at import, so that perfbench's wrapper of solvers.GramSolver,
# the J step's span, does not count LRR's SVD.
from .solvers import GramSolver

# Singular values below max(n, N) * sigma_1 * this factor count as zero.
_RANK_TOL_FACTOR = 1e-12


@dataclass
class LrrSolution:
    """Closed-form representation C plus the retained singular-value indices."""

    C: np.ndarray
    active_set: np.ndarray


def _checked_svd(X) -> GramSolver:
    """The thin SVD of X (``s``, ``s2``, ``Vt``) of a finite, nonzero 2-d matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    if not np.any(X):
        raise ValueError("X must contain at least one nonzero entry")
    return GramSolver(X)


def lrr_noiseless(X) -> LrrSolution:
    """Minimum-nuclear-norm solution of X = XC: the row-space projector V V^T."""
    svd = _checked_svd(X)
    tol = max(np.asarray(X).shape) * svd.s[0] * _RANK_TOL_FACTOR
    keep = np.flatnonzero(svd.s > tol)
    V1 = svd.Vt[keep].T
    return LrrSolution(C=_gemm(V1, V1.T), active_set=keep)


def check_lrr_weight(lam) -> None:
    """ValueError unless LRR's weight ``lam`` is finite and positive."""
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")


def lrr_noisy(X, lam: float) -> LrrSolution:
    """Closed-form minimizer of (lam/2)*||X - XC||_F^2 + ||C||_*.

    Keeps singular values with s_i > 1/sqrt(lam) and shrinks the projector
    eigenvalues to 1 - 1/(lam * s_i^2); an empty active set gives C = 0.
    """
    check_lrr_weight(lam)
    svd = _checked_svd(X)
    keep = np.flatnonzero(svd.s > 1.0 / np.sqrt(lam))
    if keep.size == 0:
        n_points = svd.Vt.shape[1]
        return LrrSolution(C=np.zeros((n_points, n_points)), active_set=keep)
    V1 = svd.Vt[keep].T
    shrink = 1.0 - 1.0 / (lam * svd.s2[keep])
    return LrrSolution(C=_gemm(V1 * shrink, V1.T), active_set=keep)
