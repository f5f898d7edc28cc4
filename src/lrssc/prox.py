"""Thresholding operators and sparsity penalties.

Scalar soft/firm/hard thresholding, their entrywise matrix versions, the
singular-value thresholding (SVT) variants built on them, and the scaled
minimax-concave (MC) penalty family that the firm operator is the prox of.
All operators accept scalars or arrays and broadcast entrywise.

An SVT of an m x n matrix M (m >= n) costs one n x n symmetric
eigendecomposition of M^T M instead of an SVD of M: that gives V and the
squared singular values, and the result is (M V) diag(f(s)/s) V^T over the
components f keeps.  When fewer components change (f(s) != s, or f(s) = 0)
than are kept (f(s) != 0), as late in a hard or gamma = 1 firm threshold, it
is the complement M - (M V_c) diag(1 - f(s_c)/s_c) V_c^T over the changed
ones, so the product always runs over the smaller side.  Squaring loses the
singular values below about sqrt(eps) * s_max, so when the threshold's dead
zone reaches down to 1e3 * sqrt(eps) * s_max, or the eigensolver fails, the
SVT runs on an SVD (gesdd, retried with gesvd) instead.
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


def soft_threshold(x, lam):
    """sign(x) * max(|x| - lam, 0)."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    out -= lam
    np.maximum(out, 0.0, out=out)
    # sign(0) * 0 is +0, so a zero input keeps the +0 of the maximum
    np.copysign(out, x, out=out, where=x != 0.0)
    return out[()]

def firm_threshold(x, params: ThresholdParams):
    """Zero below params.lam, identity above params.a, linear ramp between.

    NaN inputs land on the ramp and come out NaN.
    """
    lam, a = params.lam, params.a
    x = np.asarray(x, dtype=float)
    ax = np.abs(x, out=np.empty_like(x))
    big = ax >= a
    ramp = ~((ax <= lam) | big)
    r = ax[ramp]
    r -= lam
    r *= a
    r /= a - lam
    out = np.multiply(x, big, out=ax)
    out += 0.0  # the dead zone is +0, also for negative x
    out[ramp] = np.copysign(r, x[ramp])
    return out[()]

def hard_threshold(x, lam):
    """Keep x where |x| > sqrt(2*lam), zero elsewhere (boundary ties go to zero)."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    t = math.sqrt(2.0 * lam)
    return np.where((x > t) | (x < -t), x, 0.0)[()]

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
    out = np.multiply(ay, 0.5 * bsq, out=np.empty_like(y))
    out *= ay
    np.subtract(ay, out, out=out)
    np.putmask(out, ay > 1.0 / bsq, 0.5 / bsq)
    return out[()]

def gmc_penalty_separable(z, b):
    """Sum of the scaled MC penalty over all entries of z (the B^T B diagonal case)."""
    return float(np.sum(scaled_mc_penalty(z, b)))


def entrywise_firm(M, params: ThresholdParams):
    """Firm threshold applied entrywise to a matrix."""
    return firm_threshold(np.asarray(M, dtype=float), params)

def entrywise_hard(M, lam):
    """Hard threshold applied entrywise to a matrix."""
    return hard_threshold(np.asarray(M, dtype=float), lam)


# Below this multiple of sqrt(eps) * s_max a dead zone is left to the SVD.
_GRAM_CUT = 1e3 * math.sqrt(np.finfo(float).eps)


def _finite(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NumericalError("SVD input contains non-finite entries")
    return M

def _svd(M):
    M = _finite(M)
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd gives up on some ill-conditioned iterates; gesvd is slower
        # but far more robust, so retry before declaring failure.
        try:
            return scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as err:  # pragma: no cover - LAPACK dependent
            raise NumericalError(f"SVD did not converge: {err}") from err

def _svt_gesdd(M, shrink, return_spectrum):
    """SVT through a full SVD: the fallback of :func:`_svt` and its test oracle."""
    U, s, Vt = _svd(M)
    fs = shrink(s)
    mat = (U * fs) @ Vt
    return (mat, fs) if return_spectrum else mat

def _svt(M, shrink, dead_zone, return_spectrum):
    """SVT through the Gram eigendecomposition; see the module docstring.

    ``shrink`` maps singular values to thresholded ones and is zero on
    [0, dead_zone].  A wide M is handled as svt(M^T)^T.
    """
    M = _finite(M)
    wide = M.shape[0] < M.shape[1]
    A = M.T if wide else M
    try:
        w, V = np.linalg.eigh(A.T @ A)
    except np.linalg.LinAlgError:
        return _svt_gesdd(M, shrink, return_spectrum)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    if s.size and dead_zone < _GRAM_CUT * s[0]:
        return _svt_gesdd(M, shrink, return_spectrum)
    fs = shrink(s)
    V = V[:, ::-1]
    keep = fs != 0.0
    # Dead components count as changed even at s = 0: squaring rounded their
    # true singular values (up to sqrt(eps) * s_max) to zero.
    change = (fs != s) | ~keep
    if np.count_nonzero(change) < np.count_nonzero(keep):
        # A V diag(fs/s) V^T = A - A V_c diag(1 - fs_c/s_c) V_c^T over the changed
        # components only; a dead one gets factor 1 without dividing by its s.
        Vc, fc, sc = V[:, change], fs[change], s[change]
        factor = 1.0 - np.divide(fc, sc, out=np.zeros_like(fc), where=fc != 0.0)
        AV = A @ Vc
        AV *= factor
        mat = AV @ Vc.T
        np.subtract(A, mat, out=mat)
    else:
        Vk = V[:, keep]
        AV = A @ Vk
        AV *= fs[keep] / s[keep]
        mat = AV @ Vk.T
    if wide:
        mat = mat.T
    return (mat, fs) if return_spectrum else mat

def svt_firm(M, params: ThresholdParams, *, return_spectrum=False):
    """Apply the firm threshold to the singular values of M.

    With ``return_spectrum`` it returns ``(matrix, s)``, where ``s`` holds the
    thresholded singular values in descending order, i.e. the singular values
    of the matrix (the same holds for :func:`svt_hard` and :func:`svt_soft`).
    """
    return _svt(M, lambda s: firm_threshold(s, params), params.lam, return_spectrum)

def svt_hard(M, lam, *, return_spectrum=False):
    """Apply the hard threshold to the singular values of M."""
    # A nonpositive lam gets dead zone 0 here and is rejected by hard_threshold.
    return _svt(M, lambda s: hard_threshold(s, lam), math.sqrt(2.0 * max(lam, 0.0)),
                return_spectrum)

def svt_soft(M, lam, *, return_spectrum=False):
    """Apply the soft threshold to the singular values of M."""
    return _svt(M, lambda s: soft_threshold(s, lam), lam, return_spectrum)
