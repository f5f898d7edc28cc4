"""Affinity construction and spectral clustering on the normalized Laplacian.

The pipeline is the usual one: symmetrize |C| + |C|^T, take the eigenvectors
of the n_clusters smallest eigenvalues of I - D^{-1/2} W D^{-1/2}, which are
those of the n_clusters largest of M = D^{-1/2} W D^{-1/2}, normalize rows,
and run k-means.  The embedding never computes the full N x N eigenbasis.
Below _LANCZOS_MIN_N points it asks LAPACK's subset eigensolver for the
n_clusters eigenpairs, after an O(N^3) tridiagonal reduction.  From there on
it asks ARPACK's implicitly restarted Lanczos (``eigsh``), whose matvec with
M is one O(N^2) ``dsymv`` on W, started from a vector drawn from the call's
seed and stopped after a budget of N/2 matvecs, about the cost of one subset
eigh.  Its result is used only once certified:

* every Ritz residual ||M v - lambda v|| is at machine precision; and
* one Cholesky factorization (N^3/3 flops) of theta I - (M - V (Lambda + I) V^T),
  with theta = lambda_k - _CERTIFIED_GAP, succeeds.  Then every direction
  orthogonal to the Ritz vectors V has Rayleigh quotient below theta, so no
  eigenvalue at or above theta was missed, an eigenvalue repeated across
  disconnected components included.

Otherwise, when ARPACK does not converge within its budget, or when
n_clusters is N, the subset eigh runs as below the crossover.  At N=1500 on
2 vCPUs the certified path takes 64-160 ms where the subset eigh takes
240-290 ms; at N=450 it loses on some affinities, at N=150 on all.  Both
paths read the lower triangle of W and run on scipy's BLAS.  numpy's BLAS
is left as it is: no kernel of the embedding or of k-means runs on it
(per-thread CPU of its pool read 0.00 s over unpinned calls at N = 450,
540 and 1500), so pinning it would guard nothing.

From C to labels the stage holds at most two N x N arrays at once.
``build_affinity`` writes |C| into W and symmetrizes W in place, one block
pair at a time, so it holds C and W.  ``spectral_cluster`` holds W and one
more: the Laplacian, built in Fortran order so that the subset eigh
overwrites it instead of a copy and dropped before k-means, or the Lanczos
certificate.  A caller that drops C once W exists (the CLI and the tuner
do) never holds three.

k-means is kept in-package so its constants (k-means++ seeding, 20
replicates, 300 iterations, relative inertia tolerance 1e-9, ties to the
lowest replicate index) are pinned for reproducibility.  The replicates run
in lockstep, one Lloyd loop over all of them, and each gives the labels and
inertia it would give run alone.  A step visits one center at a time: it
adds that center's squared distances over the dimensions into one
(replicates, points) array and keeps a running minimum; the new centers'
sums come from one ``bincount`` per dimension.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .exceptions import DegenerateAffinityError

# Side of the square blocks build_affinity symmetrizes: a block pair (144 KB)
# stays in cache, and the temporaries of one pair are 0.07 array at N=600.
_AFFINITY_BLOCK = 96
_DEGREE_FLOOR = 1e-12
_ROW_NORM_FLOOR = 1e-12
# The smallest N at which the certified Lanczos embedding beat the subset
# eigh on gmc, s0l0 and lrr affinities at noise variance 0, 0.01 and 0.2
# (2 vCPU, OpenBLAS 0.3.31, medians of 11): at N=600 it won all nine (11-27
# against 26-30 ms), at N=450 it lost three.
_LANCZOS_MIN_N = 600
# ARPACK gives up after N/2 matvecs, which cost about one subset eigh at
# N=600-1500, so a run that falls back costs at most about two of them; but
# never before this many, a few Lanczos factorizations, which a small N
# needs and pays little for.
_LANCZOS_MIN_MATVECS = 100
# Largest Ritz residual accepted; M has 2-norm at most 1 for a nonnegative W.
_RITZ_RESIDUAL_TOL = 64 * np.finfo(float).eps
# The spectral gap below the n_clusters-th Ritz value that the Cholesky
# certificate proves; with the residuals above it bounds the sine of the
# embedding's angle to the exact one by about 1e-8.
_CERTIFIED_GAP = 1e-6
_KMEANS_REPLICATES = 20
_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-9


def build_affinity(C) -> np.ndarray:
    """Symmetric nonnegative affinity |C| + |C|^T, C-ordered; C is not changed.

    |C| goes into one new array, which is then symmetrized in place one block
    pair at a time: s = W_ij + W_ji^T is written to both blocks.  Addition
    commutes, so the result has the bits of ``A + A.T`` with A = |C|.  The
    call holds two N x N arrays, C and W, where ``A + A.T`` held three.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"representation matrix must be square, got shape {C.shape}")
    n, step = C.shape[0], _AFFINITY_BLOCK
    W = np.abs(C, out=np.empty((n, n)))
    for i in range(0, n, step):
        for j in range(i, n, step):
            upper, lower = W[i:i + step, j:j + step], W[j:j + step, i:i + step]
            upper += lower.T
            lower[...] = upper.T
    return W


def check_n_clusters(n_clusters: int, n_points: int) -> None:
    """ValueError unless 1 <= n_clusters <= n_points."""
    if not 1 <= n_clusters <= n_points:
        raise ValueError(f"n_clusters must lie in [1, {n_points}], got {n_clusters}")


def spectral_cluster(W, n_clusters: int, seed: int) -> np.ndarray:
    """Cluster the graph with affinity W into n_clusters groups.

    Embeds each vertex by the n_clusters eigenvectors of the normalized
    Laplacian with smallest eigenvalues, normalizes the rows to unit norm and
    labels them by seeded k-means.  A row of norm at most _ROW_NORM_FLOOR, a
    zero-degree vertex's, sits at the same distance from every center, so it
    is left out of k-means and takes label 0; an embedding of rank
    n_clusters keeps at least n_clusters rows for k-means.
    Below _LANCZOS_MIN_N (600) points the eigenvectors come from LAPACK's
    subset eigh; from there on from certified Lanczos, which falls back to
    the subset eigh when it does not converge within N/2 matvecs or fails
    its certificate (see the module docstring).  The seed also draws the
    Lanczos start vector, so repeated calls give identical labels.
    Returns integer labels in [0, n_clusters).  Raises ValueError for a
    non-square, non-finite or signed affinity (any negative entry), an
    out-of-range n_clusters or a negative seed, before any eigensolver runs,
    and DegenerateAffinityError for an all-zero affinity.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"affinity must be square, got shape {W.shape}")
    n = W.shape[0]
    check_n_clusters(n_clusters, n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not np.isfinite(W).all():
        raise ValueError("affinity has non-finite entries (NaN or inf)")
    if W.min() < 0:
        raise ValueError("affinity has negative entries")
    if not np.any(W):
        raise DegenerateAffinityError("affinity matrix is identically zero")

    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), _DEGREE_FLOOR))
    emb = None
    if n >= _LANCZOS_MIN_N and n_clusters < n:
        emb = _lanczos_embedding(W, inv_sqrt_deg, n_clusters, seed)
    if emb is None:
        # I - D^{-1/2} W D^{-1/2} in one array: 0 - x off the diagonal, then
        # 1 + (0 - x) = 1 - x on it, so the signs of zeros stay those of I - x.
        # Fortran order, so that eigh overwrites it instead of a copy.
        lap = np.multiply(inv_sqrt_deg[:, None], W, out=np.empty((n, n), order="F"))
        lap *= inv_sqrt_deg[None, :]
        np.subtract(0.0, lap, out=lap)
        lap[np.diag_indices(n)] += 1.0
        # finite, as W is: W_ij / sqrt(deg_i deg_j) <= sqrt(W_ij) / sqrt(_DEGREE_FLOOR)
        _, emb = scipy.linalg.eigh(lap, subset_by_index=[0, n_clusters - 1], overwrite_a=True,
                                   check_finite=False)
        del lap  # k-means runs beside W alone
    norms = np.linalg.norm(emb, axis=1)
    rows = norms > _ROW_NORM_FLOOR
    labels = np.zeros(n, dtype=int)
    # Fortran order, as the eigensolvers return it: see _lloyd on summation order
    labels[rows] = _kmeans(np.asfortranarray(emb[rows] / norms[rows, None]), n_clusters, seed)
    return labels


def _lanczos_embedding(W, inv_sqrt_deg, n_clusters, seed):
    """The n_clusters leading eigenvectors of M = D^{-1/2} W D^{-1/2}, or None.

    Columns come in descending eigenvalue order, the order of the Laplacian's
    ascending one.  Returns None, having changed nothing, unless ARPACK
    converges within its matvec budget and its result passes the certificate
    of the module docstring.
    """
    from scipy.sparse import linalg as sparse_linalg

    n = W.shape[0]
    # Fortran order, so that dsymv reads W in place; its upper triangle is
    # W's lower one, the triangle eigh reads of the Laplacian.
    w_t = np.ascontiguousarray(W).T
    budget = max(n // 2, _LANCZOS_MIN_MATVECS)
    calls = 0

    def apply(x):
        return inv_sqrt_deg * blas.dsymv(1.0, w_t, inv_sqrt_deg * x, lower=0)

    def matvec(x):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise sparse_linalg.ArpackNoConvergence(
                f"no convergence within {budget} matvecs", np.empty(0), np.empty((n, 0)))
        return apply(x)

    # ARPACK draws a fresh vector from rng whenever its Krylov space closes.
    rng = np.random.default_rng(seed)
    try:
        vals, vecs = sparse_linalg.eigsh(
            sparse_linalg.LinearOperator((n, n), matvec=matvec, dtype=float),
            k=n_clusters, which="LA", tol=0, v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except sparse_linalg.ArpackNoConvergence:
        return None
    residuals = np.column_stack([apply(v) for v in vecs.T]) - vecs * vals
    if not np.linalg.norm(residuals, axis=0).max() <= _RITZ_RESIDUAL_TOL:
        return None
    # theta I - M + V (Lambda + I) V^T, in M's transpose (Fortran order, lower
    # triangle of M in its upper one): the Ritz pairs deflated to -1 leave the
    # rest of the spectrum, whose top the factorization bounds by theta.
    cert = inv_sqrt_deg[:, None] * W
    cert *= inv_sqrt_deg[None, :]
    cert = blas.dgemm(1.0, vecs * (vals + 1.0), vecs, beta=-1.0, c=cert.T,
                      trans_b=1, overwrite_c=1)
    cert[np.diag_indices(n)] += vals[0] - _CERTIFIED_GAP
    if lapack.dpotrf(cert, lower=0, overwrite_a=1, clean=0)[1] != 0:
        return None
    # the Fortran order eigh returns, in which k-means runs twice as fast as
    # on the reversed view
    return np.asfortranarray(vecs[:, ::-1])


def _kmeanspp_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            # the draw of rng.choice(n, p=closest / total), without its checks of p
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans(points, k, seed):
    """Labels of the best of _KMEANS_REPLICATES k-means++-seeded Lloyd runs.

    The seeds of every replicate are drawn first, in replicate order, from
    one generator; Lloyd steps draw nothing, so each replicate runs as it
    would alone.  Ties in the final inertia go to the lowest replicate index.
    """
    rng = np.random.default_rng(seed)
    centers = np.stack([_kmeanspp_init(points, k, rng) for _ in range(_KMEANS_REPLICATES)])
    labels, inertia = _lloyd(points, centers)
    return labels[np.argmin(inertia)]


def _lloyd(points, centers):
    """Lloyd's iterations of every replicate in one lockstep loop.

    ``centers`` holds each replicate's initial centers, shape (r, k, dim),
    and may be overwritten.  A replicate stops at its own step, once its inertia
    falls by at most _KMEANS_REL_TOL of itself, and an emptied cluster is
    re-seated at its replicate's worst-fit point.  Returns each replicate's
    labels, shape (r, n), and final inertia, shape (r,).

    Squared distances are summed over the dimensions in index order.  That
    is the order of numpy's sum over the last axis of the difference array
    for the Fortran-ordered embeddings :func:`spectral_cluster` hands over;
    for a C-ordered one of 8 or more dimensions that sum runs pairwise.
    """
    n, dim = points.shape
    reps, k = centers.shape[:2]
    coords = np.ascontiguousarray(points.T)  # one row per dimension
    labels = np.empty((reps, n), dtype=int)
    inertia = np.full(reps, np.inf)
    live = np.arange(reps)  # the replicates still iterating

    def distances(center):
        # ||p - c||^2 of each (replicate, point) for one center per replicate,
        # shape (r, n), summed over the dimensions in index order
        total = np.square(coords[0] - center[:, 0, None])
        for i in range(1, dim):
            total += np.square(coords[i] - center[:, i, None])
        return total

    for step in range(_KMEANS_MAX_ITER):
        # one center at a time; a strict < keeps a tie at the lowest center,
        # as argmin does
        assigned = distances(centers[:, 0])
        step_labels = np.zeros(assigned.shape, dtype=int)
        for j in range(1, k):
            d2 = distances(centers[:, j])
            step_labels[d2 < assigned] = j
            np.minimum(assigned, d2, out=assigned)
        step_inertia = assigned.sum(axis=1)
        previous = inertia[live]
        labels[live], inertia[live] = step_labels, step_inertia
        if step:
            going = ~(previous - step_inertia <= _KMEANS_REL_TOL * previous)
            if not going.any():
                break
            live, step_labels, assigned, centers = (
                live[going], step_labels[going], assigned[going], centers[going])
        r = live.size
        # cluster j of replicate i is bin j + k*i; bincount adds a bin's points
        # in point order, the order points[mask].mean(axis=0) of one cluster
        # adds them in whenever dim > 1
        bins = (step_labels + k * np.arange(r)[:, None]).ravel()
        counts = np.bincount(bins, minlength=r * k).reshape(r, k)
        sums = np.stack([np.bincount(bins, weights=np.tile(row, r), minlength=r * k)
                         for row in coords], axis=1).reshape(r, k, dim)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled][:, None]
        # re-seat an emptied cluster at its replicate's worst-fit point
        emptied, cluster = np.nonzero(~filled)
        centers[emptied, cluster] = points[assigned[emptied].argmax(axis=1)]
    return labels, inertia
