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
540 and 1500), so pinning it would guard nothing.  scipy is imported by the
eigensolver paths at their call, not by this module (see :mod:`lrssc.parallel`).

From C to labels the stage holds one N x N array.  ``build_affinity(C,
out=C)`` writes |C| into C's own buffer and symmetrizes it in place, one
block pair at a time; the CLI and the tuner pass it so, since they drop C.
``spectral_cluster`` reads only W's lower triangle, its diagonal and its row
sums, and builds its second matrix, the Laplacian or the Lanczos
certificate, in W's upper triangle and diagonal: the lower triangle of the
Fortran view W^T, the triangle LAPACK reads.  It keeps W's diagonal as an
N-vector and puts the mirror of the lower triangle and the diagonal back
before it returns.

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

from .exceptions import DegenerateAffinityError

# Side of the square blocks the in-place passes over an N x N array take: a
# block pair (144 KB) stays in cache.
_AFFINITY_BLOCK = 96
# Where a diagonal block holds the strict upper triangle.
_STRICT_UPPER = np.triu(np.ones((_AFFINITY_BLOCK, _AFFINITY_BLOCK), dtype=bool), 1)
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


def build_affinity(C, out=None) -> np.ndarray:
    """Symmetric nonnegative affinity |C| + |C|^T, C-ordered, in ``out``.

    |C| goes into ``out``, by default one new array, which is then
    symmetrized in place one block pair at a time: s = W_ij + W_ji^T is
    written to both blocks.  Addition commutes, so the result has the bits
    of ``A + A.T`` with A = |C|.  By default C is not changed and the call
    holds two N x N arrays, C and W; with ``out=C`` the affinity takes C's
    buffer and the call holds C alone.  ``out`` must be a writeable
    C-contiguous float64 array of C's shape, or ValueError is raised before
    anything is written.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"representation matrix must be square, got shape {C.shape}")
    n = C.shape[0]
    if out is None:
        out = np.empty((n, n))
    elif not (isinstance(out, np.ndarray) and out.shape == C.shape and out.dtype == float
              and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array of shape "
                         f"{C.shape}")
    W = np.abs(C, out=out)
    for rows, cols, scratch in _block_pairs(n):
        upper, lower = W[rows, cols], W[cols, rows]
        scratch[...] = lower.T
        scratch += upper
        upper[...] = scratch
        lower[...] = scratch.T
    return W


def _block_pairs(n):
    """Slices (rows, cols) of the _AFFINITY_BLOCK square blocks on and above
    the diagonal of an N x N array, each with a C-ordered scratch array of its
    shape, one buffer for all.

    Passes over a block pair go through the scratch array: an assignment
    between blocks allocates nothing, where a ufunc on a strided block or on
    the transpose of one that overlaps its output allocates a copy or
    numpy's iteration buffers.  The scratch and one buffer are 0.05 array at
    N=600.
    """
    step = _AFFINITY_BLOCK
    buffer = np.empty(min(n, step) ** 2)
    for i in range(0, n, step):
        for j in range(i, n, step):
            rows, cols = slice(i, min(i + step, n)), slice(j, min(j + step, n))
            shape = (rows.stop - i, cols.stop - j)
            yield rows, cols, buffer[:shape[0] * shape[1]].reshape(shape)


def _mirror_lower(W, scale=None) -> None:
    """Write W's strict lower triangle, transposed, into its strict upper one.

    With ``scale`` (a vector d), W_ba gets 0 - (d_a W_ab) d_b for a > b
    instead of W_ab: the off-diagonal entries of -D W D.  One block pair at
    a time; the lower triangle and the diagonal are not written.
    """
    for rows, cols, scratch in _block_pairs(W.shape[0]):
        mirror = W[cols, rows].T
        if scale is not None or rows == cols:
            # a diagonal block overlaps its mirror, which numpy would copy
            scratch[...] = mirror
            mirror = scratch
        if scale is not None:
            mirror *= scale[None, cols]
            mirror *= scale[rows, None]
            np.subtract(0.0, mirror, out=mirror)
        if rows == cols:
            m = mirror.shape[0]
            np.copyto(W[rows, cols], mirror, where=_STRICT_UPPER[:m, :m])
        else:
            W[rows, cols] = mirror


def _minus_m(W, diag, inv_sqrt_deg) -> np.ndarray:
    """-M = -D^{-1/2} W D^{-1/2} in W's upper triangle and diagonal, the lower
    triangle of the Fortran view W^T, which is returned.

    Read from W's lower triangle and from ``diag``, W's diagonal; each entry
    is 0 - (d_a W_ab) d_b, so the signs of zeros are those of 0 - x.
    """
    _mirror_lower(W, inv_sqrt_deg)
    np.fill_diagonal(W, 0.0 - (inv_sqrt_deg * diag) * inv_sqrt_deg)
    return W.T


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
    The embedding reads only W's lower triangle and diagonal (and the
    degrees, W's row sums) and builds its second N x N matrix in W's upper
    triangle and diagonal.  W comes back with its diagonal as it was and its
    upper triangle the mirror of its lower one, which changes only a W that
    is not bit-symmetric; W may not be read by another thread meanwhile.  A
    W that is not a writeable C-contiguous float64 array is copied first.
    Returns integer labels in [0, n_clusters).  Raises ValueError for a
    non-square, non-finite or signed affinity (any negative entry), an
    out-of-range n_clusters or a negative seed, before any eigensolver runs,
    and DegenerateAffinityError for an all-zero affinity.
    """
    W = np.require(W, dtype=float, requirements=["C", "W"])
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"affinity must be square, got shape {W.shape}")
    n = W.shape[0]
    check_n_clusters(n_clusters, n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    deg = W.sum(axis=1)
    # a non-finite entry makes its row sum non-finite; a finite W whose row
    # sum overflows passes
    if not np.isfinite(deg).all() and not np.isfinite(W).all():
        raise ValueError("affinity has non-finite entries (NaN or inf)")
    if W.min() < 0:
        raise ValueError("affinity has negative entries")
    if not deg.max() > 0:
        raise DegenerateAffinityError("affinity matrix is identically zero")

    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(deg, _DEGREE_FLOOR))
    diag = W.diagonal().copy()
    try:
        emb = None
        if n >= _LANCZOS_MIN_N and n_clusters < n:
            emb = _lanczos_embedding(W, diag, inv_sqrt_deg, n_clusters, seed)
        if emb is None:
            # I - D^{-1/2} W D^{-1/2}: 0 - x off the diagonal, then 1 + (0 - x)
            # on it, so the signs of zeros stay those of I - x; eigh overwrites
            # the triangle it reads instead of a copy.
            lap = _minus_m(W, diag, inv_sqrt_deg)
            np.fill_diagonal(lap, lap.diagonal() + 1.0)
            import scipy.linalg

            # finite, as W is: W_ij / sqrt(deg_i deg_j) <= sqrt(W_ij) / sqrt(_DEGREE_FLOOR)
            _, emb = scipy.linalg.eigh(lap, subset_by_index=[0, n_clusters - 1],
                                       overwrite_a=True, check_finite=False)
    finally:
        _mirror_lower(W)
        np.fill_diagonal(W, diag)
    norms = np.linalg.norm(emb, axis=1)
    rows = norms > _ROW_NORM_FLOOR
    labels = np.zeros(n, dtype=int)
    # Fortran order, as the eigensolvers return it: see _lloyd on summation order
    points = np.asfortranarray(emb[rows] / norms[rows, None])
    del emb
    labels[rows] = _kmeans(points, n_clusters, seed)
    return labels


def _lanczos_embedding(W, diag, inv_sqrt_deg, n_clusters, seed):
    """The n_clusters leading eigenvectors of M = D^{-1/2} W D^{-1/2}, or None.

    W is C-ordered with its diagonal in ``diag``.  Columns come in
    descending eigenvalue order, the order of the Laplacian's ascending one.
    Returns None unless ARPACK converges within its matvec budget and its
    result passes the certificate of the module docstring.  The certificate,
    once built, is left in W's upper triangle and diagonal.
    """
    from scipy.linalg import blas, lapack
    from scipy.sparse import linalg as sparse_linalg

    n = W.shape[0]
    # Fortran order, so that dsymv reads W in place; its upper triangle is
    # W's lower one, the triangle every path reads.
    w_t = W.T
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
    # theta I - M + V (Lambda + I) V^T in the lower triangle of W^T: the Ritz
    # pairs deflated to -1 leave the rest of the spectrum, whose top the
    # factorization bounds by theta.  A Ritz value below -1 puts theta + 1
    # below 0, which fails the factorization with or without its term.
    cert = blas.dsyrk(1.0, vecs * np.sqrt(np.maximum(vals + 1.0, 0.0)), beta=1.0,
                      c=_minus_m(W, diag, inv_sqrt_deg), lower=1, overwrite_c=1)
    np.fill_diagonal(cert, cert.diagonal() + (vals[0] - _CERTIFIED_GAP))
    if lapack.dpotrf(cert, lower=1, overwrite_a=1, clean=0)[1] != 0:
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
    return labels[np.argmin(inertia)].astype(int)


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
    # int32 holds every label and bin index below 2^31 / _KMEANS_REPLICATES
    # points, in half the memory
    labels = np.empty((reps, n), dtype=np.int32)
    inertia = np.full(reps, np.inf)
    live = np.arange(reps)  # the replicates still iterating

    def distances(center):
        # ||p - c||^2 of each (replicate, point) for one center per replicate,
        # shape (r, n), summed over the dimensions in index order, beside one
        # more (r, n) array; p - c is formed in place from a copy of p, which
        # leaves numpy one iteration buffer, not two
        total = np.empty((center.shape[0], n))
        total[...] = coords[0]
        total -= center[:, 0, None]
        np.square(total, out=total)
        term = np.empty_like(total)
        for i in range(1, dim):
            term[...] = coords[i]
            term -= center[:, i, None]
            total += np.square(term, out=term)
        return total

    # Each (r, n) array of a step dies before the next one of its kind is
    # formed: the Lloyd loop holds at most five (labels, the assignment, its
    # distances, one center's distances and their term).
    for step in range(_KMEANS_MAX_ITER):
        # one center at a time; a strict < keeps a tie at the lowest center,
        # as argmin does
        assigned = distances(centers[:, 0])
        step_labels = np.zeros(assigned.shape, dtype=np.int32)
        for j in range(1, k):
            d2 = distances(centers[:, j])
            step_labels[d2 < assigned] = j
            np.minimum(assigned, d2, out=assigned)
            del d2
        step_inertia = assigned.sum(axis=1)
        previous = inertia[live]
        labels[live], inertia[live] = step_labels, step_inertia
        if step:
            going = ~(previous - step_inertia <= _KMEANS_REL_TOL * previous)
            if not going.any():
                break
            live, centers = live[going], centers[going]
            step_labels = step_labels[going]
            assigned = assigned[going]
        r = live.size
        # cluster j of replicate i is bin j + k*i, formed in step_labels' own
        # buffer; bincount adds a bin's points in point order, the order
        # points[mask].mean(axis=0) of one cluster adds them in whenever dim > 1
        step_labels += np.arange(0, k * r, k, dtype=np.int32)[:, None]
        bins = step_labels.ravel()
        counts = np.bincount(bins, minlength=r * k).reshape(r, k)
        sums = np.stack([np.bincount(bins, weights=np.tile(row, r), minlength=r * k)
                         for row in coords], axis=1).reshape(r, k, dim)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled][:, None]
        # re-seat an emptied cluster at its replicate's worst-fit point
        emptied, cluster = np.nonzero(~filled)
        centers[emptied, cluster] = points[assigned[emptied].argmax(axis=1)]
        del assigned, step_labels, bins
    return labels, inertia
