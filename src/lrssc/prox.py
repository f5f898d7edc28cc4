"""Thresholding operators and sparsity penalties.

Scalar soft/firm/hard thresholding, their entrywise matrix versions, the
singular-value thresholding (SVT) variants built on them, and the scaled
minimax-concave (MC) penalty family that the firm operator is the prox of.
All operators accept scalars or arrays and broadcast entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NumericalError


@dataclass(frozen=True)
class ThresholdParams:
    """Firm-threshold parameters: dead zone below ``lam``, identity above ``a``."""

    lam: float
    a: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"threshold lam must be positive, got {self.lam}")
        if not self.a > self.lam:
            raise ValueError(f"firm threshold needs a > lam, got a={self.a}, lam={self.lam}")


@dataclass(frozen=True)
class GmcParams:
    """Scaled MC penalty parameters.

    ``b`` sets the concavity scale (b = 0 degenerates to the l1 norm) and
    ``gamma`` in [0, 1] is the nonconvexity level the solvers derive b from.
    """

    b: float
    gamma: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError(f"b must be nonnegative, got {self.b}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    @classmethod
    def for_subproblem(cls, weight: float, mu: float, gamma: float) -> "GmcParams":
        """Largest b keeping the mu-quadratic subproblem convex: b^2 = mu*gamma/weight."""
        if weight <= 0 or mu <= 0:
            raise ValueError("weight and mu must be positive")
        return cls(b=math.sqrt(mu * gamma / weight), gamma=gamma)


def soft_threshold(x, lam):
    """sign(x) * max(|x| - lam, 0)."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    return (np.sign(x) * np.maximum(np.abs(x) - lam, 0.0))[()]

def firm_threshold(x, params: ThresholdParams):
    """Zero below params.lam, identity above params.a, linear ramp between."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    ramp = params.a * (ax - params.lam) / (params.a - params.lam) * np.sign(x)
    return np.where(ax <= params.lam, 0.0, np.where(ax >= params.a, x, ramp))[()]

def hard_threshold(x, lam):
    """Keep x where |x| > sqrt(2*lam), zero elsewhere (boundary ties go to zero)."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) > math.sqrt(2.0 * lam), x, 0.0)[()]

def scaled_mc_penalty(y, b):
    """Scaled MC penalty: |y| - b^2*y^2/2 inside |y| <= 1/b^2, constant 1/(2 b^2) outside.

    b = 0 gives plain |y|.
    """
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    bsq = b * b
    if bsq == 0:  # covers b so small that b*b underflows
        return ay[()]
    return np.where(ay <= 1.0 / bsq, ay - 0.5 * bsq * y * y, 0.5 / bsq)[()]

def gmc_penalty_separable(z, b):
    """Sum of the scaled MC penalty over all entries of z (the B^T B diagonal case)."""
    return float(np.sum(scaled_mc_penalty(z, b)))


def entrywise_firm(M, params: ThresholdParams):
    """Firm threshold applied entrywise to a matrix."""
    return firm_threshold(np.asarray(M, dtype=float), params)

def entrywise_hard(M, lam):
    """Hard threshold applied entrywise to a matrix."""
    return hard_threshold(np.asarray(M, dtype=float), lam)


def _svd(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NumericalError("SVD input contains non-finite entries")
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd gives up on some ill-conditioned iterates; gesvd is slower
        # but far more robust, so retry before declaring failure.
        try:
            return scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as err:  # pragma: no cover - LAPACK dependent
            raise NumericalError(f"SVD did not converge: {err}") from err

def _svt(U, s, Vt, return_spectrum):
    mat = (U * s) @ Vt
    return (mat, s) if return_spectrum else mat

def svt_firm(M, params: ThresholdParams, *, return_spectrum=False):
    """Apply the firm threshold to the singular values of M.

    With ``return_spectrum`` it returns ``(matrix, s)``, where ``s`` holds the
    thresholded singular values, i.e. the singular values of the matrix (the
    same holds for :func:`svt_hard` and :func:`svt_soft`).
    """
    U, s, Vt = _svd(M)
    return _svt(U, firm_threshold(s, params), Vt, return_spectrum)

def svt_hard(M, lam, *, return_spectrum=False):
    """Apply the hard threshold to the singular values of M."""
    U, s, Vt = _svd(M)
    return _svt(U, hard_threshold(s, lam), Vt, return_spectrum)

def svt_soft(M, lam, *, return_spectrum=False):
    """Apply the soft threshold to the singular values of M."""
    U, s, Vt = _svd(M)
    return _svt(U, soft_threshold(s, lam), Vt, return_spectrum)
