"""Thresholding operators and sparsity penalties.

Scalar soft/firm/hard thresholding, their entrywise matrix versions, the
singular-value thresholding (SVT) variants built on them, and the scaled
minimax-concave (MC) penalty family that the firm operator is the prox of.
All operators accept scalars or arrays and broadcast entrywise.

An SVT of an m x n matrix M (m >= n) decomposes the n x n Gram matrix
M^T M instead of taking an SVD of M: its eigenpairs are V and the squared
singular values, and the result is (M V) diag(f(s)/s) V^T over the
components f keeps.  When fewer components change (f(s) != s, or f(s) = 0)
than are kept (f(s) != 0), as late in a hard or gamma = 1 firm threshold, it
is the complement M - (M V_c) diag(1 - f(s_c)/s_c) V_c^T over the changed
ones, so the product always runs over the smaller side.  Every SVT computes
eigenvectors for that side only, from one kernel: one tridiagonal
reduction, all eigenvalues from it, and vectors for an index range (none
when nothing is kept or nothing changes), by MRRR for a few and divide and
conquer for many.  Squaring loses the singular values below about
sqrt(eps) * s_max, so when the threshold's dead zone stops short of
1e3 * sqrt(eps) * s_max, or an eigensolver fails, the SVT runs on an SVD
(gesdd, retried with gesvd) instead.

Every dense kernel here runs on scipy's BLAS and LAPACK: the Gram matrix's
lower triangle comes from one ``dsyrk`` (half the flops of M^T M), which is
all that ``dsytrd`` reads; the fallback SVD of M is scipy's; and the
products go through :func:`_gemm`, which :mod:`lrssc.solvers` and
:mod:`lrssc.baselines` use too.  scipy's BLAS runs them at its full thread
count; a solve holds numpy's at one thread meanwhile
(:func:`lrssc.parallel.numpy_blas_single_thread`).  (The thin SVD of the
data matrix is numpy's, taken once by :class:`lrssc.solvers.GramSolver` on
numpy's BLAS held at one thread.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

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
        if not math.isfinite(self.a):
            raise ValueError(f"firm threshold knee a must be finite, got a={self.a}")


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
    if not b >= 0:
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

def _gemm(a, b):
    """a @ b in C order, from scipy's dgemm, for 2-d float arrays.

    It forms (a @ b)^T = b^T a^T in the Fortran order BLAS works in.  An
    operand in Fortran order goes in as itself with a transpose flag, one in
    C order as its transpose, so a contiguous operand is never copied.
    """
    bt, trans_b = (b, 1) if b.flags.f_contiguous else (b.T, 0)
    at, trans_a = (a, 1) if a.flags.f_contiguous else (a.T, 0)
    return blas.dgemm(1.0, bt, at, trans_a=trans_b, trans_b=trans_a).T

def _gram(A):
    """The lower triangle of A^T A in Fortran order (dsyrk); the upper one is zero."""
    if A.flags.f_contiguous:
        return blas.dsyrk(1.0, A, trans=1, lower=1)
    return blas.dsyrk(1.0, A.T, lower=1)

def _svd(M):
    M = _finite(M)
    try:
        return scipy.linalg.svd(M, full_matrices=False, check_finite=False)
    except np.linalg.LinAlgError:
        # gesdd gives up on some ill-conditioned iterates; gesvd is slower
        # but far more robust, so retry before declaring failure.
        try:
            return scipy.linalg.svd(M, full_matrices=False, check_finite=False,
                                    lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as err:
            raise NumericalError(f"SVD did not converge: {err}") from err

def _svt_gesdd(M, shrink, return_spectrum):
    """SVT through a full SVD: the fallback of :func:`_svt` and its test oracle."""
    U, s, Vt = _svd(M)
    fs = shrink(s)
    mat = _gemm(U * fs, Vt)
    return (mat, fs) if return_spectrum else mat

def _lapack_ok(info):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK returned info={info}")

def _tridiagonal_eigenpairs(G):
    """The eigenpairs of the Gram matrix G from one tridiagonal reduction.

    Returns ``(s, vectors)``: the square roots of the eigenvalues in
    descending order, and ``vectors(lo, hi)``, the eigenvectors of
    ``s[lo:hi]`` as columns in the same order.  G = Q T Q^T by Householder
    reduction (dsytrd), then all eigenvalues of T without vectors (dsterf).
    ``vectors`` computes only the asked range: MRRR on T (dstemr), or divide
    and conquer on all of T (dstevd) for a range over a quarter of n, then Q
    times those (dormqr).  Only the lower triangle of G is read, and G is
    overwritten.  A nonzero ``info`` from any stage raises ``LinAlgError``.
    """
    n = G.shape[0]
    if n < 2:  # nothing to reduce, and dsterf takes no empty off-diagonal
        return np.sqrt(np.maximum(G.diagonal(), 0.0)), lambda lo, hi: np.eye(n)[:, lo:hi]
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _lapack_ok(info)
    refl, d, e, tau, info = lapack.dsytrd(G, lower=1, lwork=int(lwork), overwrite_a=1)
    _lapack_ok(info)
    w, info = lapack.dsterf(d, e)
    _lapack_ok(info)

    def vectors(lo, hi):
        # s[lo:hi] descending are the ascending eigenvalues n - hi .. n - lo - 1
        if 4 * (hi - lo) > n:
            # MRRR bisects for each eigenvalue of a subset; on a quarter
            # or more of them divide and conquer on all is cheaper.
            _, Z, info = lapack.dstevd(d, e)
            _lapack_ok(info)
            Z = Z[:, n - hi:n - lo]
        else:
            m, _, Z, info = lapack.dstemr(d, np.append(e, 0.0), 2, 0.0, 0.0,
                                          n - hi + 1, n - lo)
            _lapack_ok(info or m - (hi - lo))
            Z = Z[:, :m]
        # dstevd and dstemr both return an n x n Z: keep the asked columns,
        # descending, and let Z die before Q multiplies them.
        top, rest = Z[0, ::-1].copy(), np.array(Z[1:, ::-1], order="F")
        del Z
        # Q = diag(1, Q'), Q' made of the reflectors below the subdiagonal:
        # refl[1:, :-1] read in place as an n x (n-1) Fortran array from
        # refl[1, 0] with leading dimension n, of which dormqr reads the
        # first n - 1 rows.
        below = refl.ravel(order="F")[1:n * n - n + 1].reshape((n, n - 1), order="F")
        work, info = lapack.dormqr("L", "N", below, tau, rest, -1, overwrite_c=1)[1:]
        _lapack_ok(info)
        rest, _, info = lapack.dormqr("L", "N", below, tau, rest, int(work[0]), overwrite_c=1)
        _lapack_ok(info)
        V = np.empty((n, rest.shape[1]))
        V[0] = top
        V[1:] = rest
        return V

    return np.sqrt(np.maximum(w[::-1], 0.0)), vectors

def _svt(M, shrink, return_spectrum):
    """SVT through the eigenpairs of the Gram matrix; see the module docstring.

    ``shrink`` maps singular values to thresholded ones; it is nondecreasing
    and zero on a dead zone [0, t].  When it is not zero at _GRAM_CUT * s_max
    the dead zone stops short of the cut and the SVD takes over.  A wide M
    is handled as svt(M^T)^T.
    """
    M = _finite(M)
    wide = M.shape[0] < M.shape[1]
    A = M.T if wide else M
    n = A.shape[1]
    try:
        s, vectors = _tridiagonal_eigenpairs(_gram(A))
        if s.size and shrink(_GRAM_CUT * s[0]) != 0.0:
            return _svt_gesdd(M, shrink, return_spectrum)
        fs = shrink(s)
        # shrink is nondecreasing, so the kept components (fs != 0) lead and the
        # changed ones (fs != s) trail; an unchanged one among them gets factor
        # 0 below.  Dead components count as changed even at s = 0: squaring
        # rounded their true singular values (up to sqrt(eps) * s_max) to zero.
        nk = np.count_nonzero(fs)
        changed = (fs != s) | (fs == 0.0)
        nc = n - int(np.argmax(changed)) if changed.any() else 0
        if nk == 0:
            mat = np.zeros_like(A)
        elif nc == 0:
            mat = A.copy()
        else:
            # With fewer changed than kept components, A V diag(fs/s) V^T is
            # A - A V_c diag(1 - fs_c/s_c) V_c^T over the changed ones only; a
            # dead one gets factor 1 without dividing by its s.
            complement = nc < nk
            lo, hi = (n - nc, n) if complement else (0, nk)
            V, f, sv = vectors(lo, hi), fs[lo:hi], s[lo:hi]
            del vectors  # the reflectors die before the products
            if complement:
                factor = 1.0 - np.divide(f, sv, out=np.zeros_like(f), where=f != 0.0)
            else:
                factor = f / sv
            AV = _gemm(A, V)
            AV *= factor
            mat = _gemm(AV, V.T)
            if complement:
                np.subtract(A, mat, out=mat)
    except np.linalg.LinAlgError:
        return _svt_gesdd(M, shrink, return_spectrum)
    if wide:
        mat = mat.T
    return (mat, fs) if return_spectrum else mat

def svt_firm(M, params: ThresholdParams, *, return_spectrum=False):
    """Apply the firm threshold to the singular values of M.

    With ``return_spectrum`` it returns ``(matrix, s)``, where ``s`` holds the
    thresholded singular values in descending order, i.e. the singular values
    of the matrix (the same holds for :func:`svt_hard` and :func:`svt_soft`).
    """
    return _svt(M, lambda s: firm_threshold(s, params), return_spectrum)

def svt_hard(M, lam, *, return_spectrum=False):
    """Apply the hard threshold to the singular values of M."""
    return _svt(M, lambda s: hard_threshold(s, lam), return_spectrum)

def svt_soft(M, lam, *, return_spectrum=False):
    """Apply the soft threshold to the singular values of M."""
    return _svt(M, lambda s: soft_threshold(s, lam), return_spectrum)
