"""Affinity construction and spectral clustering on the normalized Laplacian.

The pipeline is the usual one: symmetrize |C| + |C|^T, form
I - D^{-1/2} W D^{-1/2}, embed each point by the eigenvectors of the
n_clusters smallest eigenvalues, normalize rows, and run k-means.  The
embedding asks LAPACK's subset eigensolver for those n_clusters eigenpairs
only, never for the full N x N eigenbasis.  k-means is kept in-package so
its constants (k-means++ seeding, 20 replicates, 300 iterations, relative
inertia tolerance 1e-9, ties to the lowest replicate index) are pinned for
reproducibility.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .exceptions import DegenerateAffinityError

_DEGREE_FLOOR = 1e-12
_ROW_NORM_FLOOR = 1e-12
_KMEANS_REPLICATES = 20
_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-9


def build_affinity(C) -> np.ndarray:
    """Symmetric nonnegative affinity |C| + |C|^T."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"representation matrix must be square, got shape {C.shape}")
    A = np.abs(C)
    return A + A.T


def spectral_cluster(W, n_clusters: int, seed: int) -> np.ndarray:
    """Cluster the graph with affinity W into n_clusters groups.

    Embeds each vertex by the n_clusters eigenvectors of the normalized
    Laplacian with smallest eigenvalues (rows normalized to unit norm,
    all-zero rows left alone), then labels the rows by seeded k-means.
    Returns integer labels in [0, n_clusters).  Raises ValueError for a
    non-square or non-finite affinity or an out-of-range n_clusters, and
    DegenerateAffinityError for an all-zero affinity.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"affinity must be square, got shape {W.shape}")
    n = W.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must lie in [1, {n}], got {n_clusters}")
    if not np.isfinite(W).all():
        raise ValueError("affinity has non-finite entries (NaN or inf)")
    if not np.any(W):
        raise DegenerateAffinityError("affinity matrix is identically zero")

    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), _DEGREE_FLOOR))
    lap = np.eye(n) - (inv_sqrt_deg[:, None] * W) * inv_sqrt_deg[None, :]
    _, emb = scipy.linalg.eigh(lap, subset_by_index=[0, n_clusters - 1], overwrite_a=True)
    norms = np.linalg.norm(emb, axis=1)
    rows = norms > _ROW_NORM_FLOOR
    emb[rows] /= norms[rows, None]
    return _kmeans(emb, n_clusters, seed)


def _sqdist(points, centers):
    # ||p - c||^2 for every (point, center) pair, shape (n, k)
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _kmeanspp_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans_single(points, k, rng):
    n = points.shape[0]
    centers = _kmeanspp_init(points, k, rng)
    labels, inertia = None, np.inf
    for _ in range(_KMEANS_MAX_ITER):
        d2 = _sqdist(points, centers)
        new_labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), new_labels]
        new_inertia = float(assigned.sum())
        done = labels is not None and inertia - new_inertia <= _KMEANS_REL_TOL * inertia
        labels, inertia = new_labels, new_inertia
        if done:
            break
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                # re-seat an emptied cluster at the worst-fit point
                centers[j] = points[int(np.argmax(assigned))]
    return labels, inertia


def _kmeans(points, k, seed):
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_REPLICATES):
        labels, inertia = _kmeans_single(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return np.asarray(best_labels, dtype=int)
