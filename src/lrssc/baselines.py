"""Closed-form low-rank representation (LRR) solutions.

Both take the thin SVD of X from :class:`lrssc.solvers.GramSolver`, the one
thin SVD of X in the package, which runs it on numpy's BLAS held at one
thread.  GramSolver is also where X is checked (a finite 2-d matrix with a
nonzero entry); LRR adds no rule of its own on X.  Both build C as one
symmetric product V1 diag(shrink) V1^T over the kept singular directions
(:func:`_projector`), one ``dsyrk`` on scipy's BLAS at full width, which
:func:`_projector` imports at its call (see :mod:`lrssc.parallel`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .spectral import _mirror_lower
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


def _projector(rows, keep) -> LrrSolution:
    """C = rows^T rows, for ``rows`` = diag(sqrt(shrink)) V1^T, one row per kept
    right singular vector: C = V1 diag(shrink) V1^T.

    One ``dsyrk``, half the flops of a general product, forms one triangle of
    C, which is then mirrored into the other one block pair at a time: C is
    C-ordered and bit-symmetric.  An empty ``keep`` gives the zero matrix:
    the inner dimension is then 0, and dsyrk writes +0.0 everywhere.
    """
    from scipy.linalg import blas

    # dsyrk's upper triangle, in Fortran order, is the lower one of the
    # C-ordered transpose
    C = blas.dsyrk(1.0, rows.T, lower=0).T
    _mirror_lower(C)
    return LrrSolution(C=C, active_set=keep)


def _rank_keep(s, shape) -> np.ndarray:
    """Indices of the singular values ``s``, descending, of a matrix of this
    shape that count as nonzero."""
    return np.flatnonzero(s > max(shape) * s[0] * _RANK_TOL_FACTOR)


def numerical_rank(X) -> int:
    """The rank of X that :func:`lrr_noiseless` keeps, without its N x N C."""
    return _rank_keep(GramSolver(X).s, np.shape(X)).size


def lrr_noiseless(X) -> LrrSolution:
    """Minimum-nuclear-norm solution of X = XC: the row-space projector V V^T."""
    svd = GramSolver(X)
    keep = _rank_keep(svd.s, np.shape(X))
    rows = svd.Vt[keep]
    del svd  # V^T dies before the N x N product
    return _projector(rows, keep)


def check_lrr_weight(lam) -> None:
    """ValueError unless LRR's weight ``lam`` is a finite, positive number
    (not a bool), in SolverConfig's words."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real):
        raise ValueError(f"lam must be a number, got {lam!r}")
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
    rows = svd.Vt[keep]
    rows *= np.sqrt(1.0 - 1.0 / (lam * svd.s2[keep]))[:, None]
    del svd  # V^T dies before the N x N product
    return _projector(rows, keep)
