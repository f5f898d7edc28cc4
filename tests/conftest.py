"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own code paths: prox outputs
are checked against brute-force objective minimization, clustering error
against explicit permutation search, the closed-form low-rank solution
against a proximal-gradient iteration run to stationarity, the subset
eigensolver of the spectral embedding against a full eigendecomposition, and
the thin-SVD J step against a solve through the eigendecomposition of X^T X.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lrssc import SolverConfig, SyntheticSpec, generate_synthetic, parallel, spectral
from lrssc.solvers import State


def brute_force_prox_objective(y, penalty, candidates):
    """Smallest value of 0.5*(y - x)^2 + penalty(x) over the candidate set."""
    obj = 0.5 * (y - candidates) ** 2 + penalty(candidates)
    return float(obj.min())


def prox_candidates(y, span, n=10_000):
    """Dense grid covering the prox search range, plus the exact endpoints."""
    grid = np.linspace(-span, span, n)
    return np.concatenate([grid, [0.0, y]])


def l1_penalty(lam):
    return lambda x: lam * np.abs(x)


def l0_penalty(lam):
    """lam per nonzero entry (the objective hard thresholding minimizes)."""
    return lambda x: lam * (x != 0.0)


def firm_penalty(lam, a):
    """Concave ramp penalty whose prox is the firm threshold with knee a."""
    def pen(x):
        ax = np.abs(x)
        inner = lam * (ax - ax**2 / (2.0 * a))
        return np.where(ax <= a, inner, 0.5 * lam * a)
    return pen


def brute_force_ce(pred, truth):
    """Exact minimum misassignment fraction over all label permutations."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n_labels = int(max(pred.max(), truth.max())) + 1
    best = pred.size
    for perm in itertools.permutations(range(n_labels)):
        relabeled = np.asarray(perm)[pred]
        best = min(best, int(np.count_nonzero(relabeled != truth)))
    return best / pred.size


def ista_low_rank(X, lam, tol=1e-10, max_iters=500_000):
    """Proximal-gradient minimizer of 0.5*||X - XC||_F^2 + (1/lam)*||C||_*.

    Same minimizer as the closed form under test (objectives differ by the
    constant factor lam).  Step 1/||X||_2^2; stops when the iterate moves
    less than tol in Frobenius norm.
    """
    X = np.asarray(X, dtype=float)
    gram = X.T @ X
    step = 1.0 / np.linalg.norm(X, 2) ** 2
    C = np.zeros((X.shape[1], X.shape[1]))
    for _ in range(max_iters):
        U, s, Vt = np.linalg.svd(C - step * (gram @ C - gram), full_matrices=False)
        C_next = (U * np.maximum(s - step / lam, 0.0)) @ Vt
        delta = np.linalg.norm(C_next - C)
        C = C_next
        if delta <= tol:
            return C
    raise AssertionError("proximal-gradient oracle did not reach stationarity")


def block_affinity(block_sizes, off_block=0.0, seed=0):
    """Block-diagonal affinity with positive in-block weights.

    Returns (W, truth).  In-block entries are drawn uniform in [0.5, 1.5]
    and symmetrized; off-block entries are the constant ``off_block``.
    """
    n = int(sum(block_sizes))
    rng = np.random.default_rng(seed)
    W = np.full((n, n), float(off_block))
    truth = np.empty(n, dtype=int)
    start = 0
    for label, size in enumerate(block_sizes):
        stop = start + size
        block = rng.uniform(0.5, 1.5, size=(size, size))
        W[start:stop, start:stop] = block + block.T
        truth[start:stop] = label
        start = stop
    np.fill_diagonal(W, 0.0)
    return W, truth


def full_eigh_spectral_labels(W, n_clusters, seed):
    """spectral_cluster with the embedding taken from the full eigenbasis.

    Runs np.linalg.eigh on the whole normalized Laplacian and keeps the first
    n_clusters eigenvectors; the floors, row normalization, label 0 for rows
    at or below the row-norm floor and k-means are the library's, so only the
    eigensolver differs from spectral_cluster.
    """
    W = np.asarray(W, dtype=float)
    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), spectral._DEGREE_FLOOR))
    lap = np.eye(W.shape[0]) - (inv_sqrt_deg[:, None] * W) * inv_sqrt_deg[None, :]
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :n_clusters].copy()
    norms = np.linalg.norm(emb, axis=1)
    rows = norms > spectral._ROW_NORM_FLOOR
    labels = np.zeros(W.shape[0], dtype=int)
    labels[rows] = spectral._kmeans(emb[rows] / norms[rows, None], n_clusters, seed)
    return labels


def eigh_gram_j_update(X, state, gram=None):
    """The J step solved through eigh(X^T X): the solve j_update replaced.

    J = (X^T X + sum_k mu_k I)^-1 (X^T X + sum_k mu_k C_k - sum_k Lambda_k),
    with the splits read from ``state.splits``; ``gram`` is ignored, so the
    function can stand in for ``solvers.j_update``.
    """
    X = np.asarray(X, dtype=float)
    splits = state.splits
    gram_matrix = X.T @ X
    evals, evecs = np.linalg.eigh(gram_matrix)
    rhs = gram_matrix + sum(s.mu * s.C for s in splits) - sum(s.Lambda for s in splits)
    shift = sum(s.mu for s in splits)
    return evecs @ ((evecs.T @ rhs) / (evals + shift)[:, None])


def replaced_state(state, J=None, split=None, C=None):
    """A new State: ``state`` with J, or the C of split number ``split``,
    replaced.  Every Split is new, so states built from one another never
    alias (``dataclasses.replace`` alone would share the splits list)."""
    splits = [replace(s) for s in state.splits]
    if split is not None:
        splits[split].C = C
    return State(J=state.J if J is None else J, splits=splits)


def peak_arrays(call, n):
    """The tracemalloc peak of ``call()`` above the memory traced before it,
    in N x N float arrays (units of 8 n^2 bytes)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * n * n)
    finally:
        if not tracing:
            tracemalloc.stop()


SMALL_SPEC = SyntheticSpec(ambient_dim=30, subspace_dim=3, num_subspaces=3,
                           points_per_subspace=15, union_rank=6, seed=5)


@pytest.fixture(scope="session")
def small_dataset():
    """30-dim, 3 overlapping 3-dim subspaces, 45 points; noiseless."""
    return generate_synthetic(SMALL_SPEC)


@pytest.fixture(scope="session")
def bench_dataset():
    """The full benchmark construction: 100-dim, 3x5-dim, rank 10, 150 points."""
    return generate_synthetic(SyntheticSpec(seed=2024))


@pytest.fixture
def numpy_threads():
    """Getter of numpy's BLAS thread count, with the count set to 2 for the
    test; None where the package does not pin numpy's BLAS."""
    controls = parallel._find_numpy_blas()
    if controls is None:
        yield None
        return
    get, put = controls
    saved = get()
    put(2)
    yield get
    put(saved)


@pytest.fixture()
def fast_config():
    """Solver settings sized for unit tests (small iteration budget)."""
    return SolverConfig(max_iters=40)
