"""Closed-form low-rank representation (LRR) solutions.

Both take the thin SVD of X from :class:`lrssc.solvers.GramSolver`, the one
thin SVD of X in the package, which runs it on numpy's BLAS held at one
thread.  GramSolver is also where X is checked (a finite 2-d matrix with a
nonzero entry); LRR adds no rule of its own on X.  Both build C as one
symmetric product V1 diag(shrink) V1^T over the kept singular directions
(:func:`_projector`), on scipy's BLAS at full width.
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


def _projector(svd: GramSolver, keep, shrink=1.0) -> LrrSolution:
    """C = V1 diag(shrink) V1^T over the kept right singular vectors V1.

    An empty ``keep`` gives the C-ordered N x N zero matrix: the product's
    inner dimension is then 0, and dgemm writes +0.0 everywhere.
    """
    V1 = svd.Vt[keep].T
    return LrrSolution(C=_gemm(V1 * shrink, V1.T), active_set=keep)


def lrr_noiseless(X) -> LrrSolution:
    """Minimum-nuclear-norm solution of X = XC: the row-space projector V V^T."""
    svd = GramSolver(X)
    tol = max(np.shape(X)) * svd.s[0] * _RANK_TOL_FACTOR
    return _projector(svd, np.flatnonzero(svd.s > tol))


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
    svd = GramSolver(X)
    keep = np.flatnonzero(svd.s > 1.0 / np.sqrt(lam))
    return _projector(svd, keep, 1.0 - 1.0 / (lam * svd.s2[keep]))
