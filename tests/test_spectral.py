"""Affinity construction and the Laplacian-embedding clustering pipeline."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import lrssc.spectral as spectral_module
from lrssc import (
    DegenerateAffinityError,
    SyntheticSpec,
    build_affinity,
    clustering_error,
    generate_synthetic,
    lrr_noisy,
    spectral_cluster,
)
from conftest import block_affinity, full_eigh_spectral_labels, peak_arrays


class TestBuildAffinity:
    def test_zero_passthrough(self):
        np.testing.assert_array_equal(build_affinity(np.zeros((4, 4))),
                                      np.zeros((4, 4)))

    def test_absolute_symmetrization(self):
        C = np.array([[0.0, -2.0], [1.0, 0.0]])
        np.testing.assert_array_equal(build_affinity(C),
                                      np.array([[0.0, 3.0], [3.0, 0.0]]))

    def test_exactly_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(0)
        C = rng.standard_normal((7, 7))
        W = build_affinity(C)
        np.testing.assert_array_equal(W, W.T)
        assert W.min() >= 0.0

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, spectral_module._AFFINITY_BLOCK - 1,
                                   spectral_module._AFFINITY_BLOCK,
                                   spectral_module._AFFINITY_BLOCK + 1, 600])
    def test_bits_of_the_sum_of_abs_and_its_transpose(self, n, order):
        """Symmetrized in place one block pair at a time, W has the bits of
        |C| + |C|^T for a non-symmetric C with +0.0 and -0.0 entries, in either
        order; it is C-ordered, so the Lanczos path reads it without a copy,
        and C is left as it was."""
        rng = np.random.default_rng(n)
        C = rng.standard_normal((n, n))
        C[rng.random((n, n)) < 0.2] = 0.0
        C[rng.random((n, n)) < 0.2] = -0.0
        C = np.asarray(C, order=order)
        before = C.copy(order="K")
        W = build_affinity(C)
        expected = np.abs(C) + np.abs(C).T
        np.testing.assert_array_equal(W.view(np.int64), expected.view(np.int64))
        assert W.flags.c_contiguous and np.shares_memory(np.ascontiguousarray(W), W)
        np.testing.assert_array_equal(C.view(np.int64), before.view(np.int64))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            build_affinity(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            build_affinity(np.zeros(5))

    @pytest.mark.parametrize("n", [1, spectral_module._AFFINITY_BLOCK - 1,
                                   spectral_module._AFFINITY_BLOCK + 1, 600])
    def test_out_c_gives_the_same_bits_in_cs_buffer(self, n):
        """With out=C the affinity is C's own array, with the bits of
        |C| + |C|^T, +0.0 and -0.0 entries included."""
        rng = np.random.default_rng(n)
        C = rng.standard_normal((n, n))
        C[rng.random((n, n)) < 0.2] = 0.0
        C[rng.random((n, n)) < 0.2] = -0.0
        expected = np.abs(C) + np.abs(C).T
        assert build_affinity(C, out=C) is C
        np.testing.assert_array_equal(C.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("make_out", [
        pytest.param(lambda C: np.empty((5, 5)), id="wrong-shape"),
        pytest.param(lambda C: np.empty((6, 6), dtype=np.float32), id="wrong-dtype"),
        pytest.param(lambda C: np.asfortranarray(C), id="fortran-order"),
        pytest.param(lambda C: np.empty((6, 12))[:, ::2], id="strided"),
        pytest.param(lambda C: C.copy().tolist(), id="not-an-array"),
        pytest.param(lambda C: C, id="read-only"),
    ])
    def test_rejects_bad_out_before_writing(self, make_out):
        C = np.random.default_rng(1).standard_normal((6, 6))
        out = make_out(C)
        if out is C:
            C.flags.writeable = False
        before, out_before = C.copy(), np.array(out, copy=True)
        with pytest.raises(ValueError, match="^out must be a writeable C-contiguous float64"):
            build_affinity(C, out=out)
        np.testing.assert_array_equal(C.view(np.int64), before.view(np.int64))
        np.testing.assert_array_equal(np.asarray(out), out_before)


class TestSpectralCluster:
    def test_two_ideal_blocks_recovered(self):
        W, truth = block_affinity([6, 9], seed=1)
        labels = spectral_cluster(W, 2, seed=0)
        assert clustering_error(labels, truth).ce == 0.0

    def test_single_cluster_all_zero_labels(self):
        W, _ = block_affinity([8], seed=2)
        np.testing.assert_array_equal(spectral_cluster(W, 1, seed=0),
                                      np.zeros(8, dtype=int))

    def test_three_blocks_with_weak_offblock_noise(self):
        W, truth = block_affinity([10, 10, 10], off_block=1e-6, seed=3)
        labels = spectral_cluster(W, 3, seed=0)
        assert clustering_error(labels, truth).ce == 0.0

    @pytest.mark.parametrize("sizes", [[5, 7], [4, 6, 8], [3, 4, 5, 6, 7]])
    def test_ideal_blocks_any_count(self, sizes):
        W, truth = block_affinity(sizes, seed=4)
        labels = spectral_cluster(W, len(sizes), seed=1)
        assert clustering_error(labels, truth).ce == 0.0

    def test_labels_in_range(self):
        W, _ = block_affinity([5, 5, 5], seed=5)
        labels = spectral_cluster(W, 3, seed=2)
        assert labels.shape == (15,)
        assert labels.min() >= 0
        assert labels.max() < 3

    def test_seed_determinism(self):
        W, _ = block_affinity([6, 6], off_block=0.3, seed=6)
        a = spectral_cluster(W, 2, seed=9)
        b = spectral_cluster(W, 2, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_seed_equivalence_on_ideal_affinity(self):
        """Different k-means seeds can permute labels but not split blocks."""
        W, _ = block_affinity([8, 8, 8], seed=7)
        a = spectral_cluster(W, 3, seed=0)
        b = spectral_cluster(W, 3, seed=12345)
        assert clustering_error(a, b).ce == 0.0

    def test_isolated_vertex_handled(self):
        W, _ = block_affinity([5, 5], seed=8)
        n = W.shape[0] + 1
        padded = np.zeros((n, n))
        padded[:-1, :-1] = W  # last vertex has zero degree
        labels = spectral_cluster(padded, 2, seed=0)
        assert labels.shape == (n,)
        assert set(labels) <= {0, 1}

    def test_rejects_bad_cluster_counts(self):
        W, _ = block_affinity([4, 4], seed=9)
        with pytest.raises(ValueError):
            spectral_cluster(W, 0, seed=0)
        with pytest.raises(ValueError):
            spectral_cluster(W, 9, seed=0)

    def test_rejects_all_zero_affinity(self):
        with pytest.raises(DegenerateAffinityError):
            spectral_cluster(np.zeros((6, 6)), 2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_affinity_by_name(self, bad):
        W, _ = block_affinity([4, 4], seed=11)
        W[0, 5] = W[5, 0] = bad
        with pytest.raises(ValueError, match="affinity has non-finite entries"):
            spectral_cluster(W, 2, seed=0)

    @pytest.mark.parametrize("n", [60, 600], ids=["subset-eigh", "lanczos"])
    def test_rejects_signed_affinity_before_the_embedding(self, monkeypatch, n):
        """A symmetric Gaussian W is finite but signed: no normalized Laplacian
        of it is the one the embedding assumes, so it is rejected by name."""
        forbid_embedding(monkeypatch)
        G = np.random.default_rng(12).standard_normal((n, n))
        W = G + G.T
        assert W.min() < 0
        with pytest.raises(ValueError, match="^affinity has negative entries$"):
            spectral_cluster(W, 3, seed=0)

    def test_rejects_huge_negative_entry_without_overflow(self, monkeypatch):
        """-1.7e308 is finite; it is rejected before the Laplacian is formed,
        where it overflowed."""
        forbid_embedding(monkeypatch)
        W, _ = block_affinity([4, 4], seed=11)
        W[0, 5] = W[5, 0] = -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^affinity has negative entries$"):
                spectral_cluster(W, 2, seed=0)

    def test_rejects_negative_seed_before_the_embedding(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the embedding ran")
        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
        W, _ = block_affinity([4, 4], seed=9)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            spectral_cluster(W, 2, seed=-1)

    def test_rejects_non_square_affinity(self):
        with pytest.raises(ValueError):
            spectral_cluster(np.zeros((3, 5)), 2, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_row_sum_of_a_finite_affinity_is_accepted(self):
        """The exact finiteness check runs only on a non-finite row sum; a
        finite W whose row sums overflow to inf passes it and is clustered."""
        W, _ = block_affinity([4, 4], off_block=0.5, seed=11)
        W *= 1e308 / W.max()
        assert np.isfinite(W).all() and not np.isfinite(W.sum(axis=1)).any()
        labels = spectral_cluster(W, 2, seed=0)
        assert labels.shape == (8,) and set(labels) <= {0, 1}

    def test_embedding_rows_unit_norm(self, monkeypatch):
        """The k-means stage receives row-normalized eigenvector embeddings."""
        captured = {}
        real = spectral_module._kmeans

        def capture(points, k, seed):
            captured["points"] = points.copy()
            return real(points, k, seed)

        monkeypatch.setattr(spectral_module, "_kmeans", capture)
        W, _ = block_affinity([6, 6, 6], off_block=0.2, seed=10)
        spectral_cluster(W, 3, seed=0)
        norms = np.linalg.norm(captured["points"], axis=1)
        nonzero = norms > 1e-12
        np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-10)
        assert captured["points"].shape == (18, 3)


class TestSubsetEmbeddingMatchesFullEigh:
    """The n_clusters-eigenpair embedding labels like the full eigendecomposition."""

    @pytest.mark.parametrize("sizes", [[8], [5, 7], [4, 6, 8], [3, 4, 5, 6], [3, 4, 5, 6, 7]])
    @pytest.mark.parametrize("off_block", [0.0, 1e-6, 0.2])
    def test_block_fixtures(self, sizes, off_block):
        W, _ = block_affinity(sizes, off_block=off_block, seed=len(sizes))
        for seed in (0, 1, 12345):
            np.testing.assert_array_equal(spectral_cluster(W, len(sizes), seed),
                                          full_eigh_spectral_labels(W, len(sizes), seed))

    @staticmethod
    def isolated_vertex_affinity():
        W = np.zeros((11, 11))
        W[:-1, :-1] = block_affinity([5, 5], seed=8)[0]  # last vertex has zero degree
        return W

    def test_isolated_vertex(self):
        W = self.isolated_vertex_affinity()
        np.testing.assert_array_equal(spectral_cluster(W, 2, seed=0),
                                      full_eigh_spectral_labels(W, 2, seed=0))

    @pytest.mark.parametrize("n_clusters", [1, 12])
    def test_cluster_count_extremes(self, n_clusters):
        W, _ = block_affinity([6, 6], off_block=0.3, seed=6)
        np.testing.assert_array_equal(spectral_cluster(W, n_clusters, seed=3),
                                      full_eigh_spectral_labels(W, n_clusters, seed=3))

    def test_lrr_affinity_of_the_benchmark_dataset(self, bench_dataset):
        W = build_affinity(lrr_noisy(bench_dataset.X, 2.0).C)
        for seed in (0, 7, 2024):
            np.testing.assert_array_equal(spectral_cluster(W, 3, seed),
                                          full_eigh_spectral_labels(W, 3, seed))


class TestLanczosEmbeddingMatchesFullEigh(TestSubsetEmbeddingMatchesFullEigh):
    """Every test above, on the certified Lanczos path: the crossover is
    moved to 0, and each Lanczos embedding must pass its certificate."""

    @pytest.fixture(autouse=True)
    def lanczos_path(self, monkeypatch):
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        real = spectral_module._lanczos_embedding
        results = []

        def recording(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(spectral_module, "_lanczos_embedding", recording)
        yield
        # empty when n_clusters is the number of points, which ARPACK cannot take
        assert all(emb is not None for emb in results)


def forbid_embedding(monkeypatch):
    """Make both eigensolver paths of spectral_cluster fail the test if they run."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the embedding ran")
    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
    monkeypatch.setattr(spectral_module, "_lanczos_embedding", forbidden)


def subset_eigh_calls(monkeypatch):
    """Counts spectral_cluster's calls of scipy's eigh, which only its subset path makes."""
    calls = []
    real = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


@pytest.fixture(scope="module")
def lrr_affinities():
    """LRR affinities of noisy three-subspace data at N=150 and 450, below
    the Lanczos crossover, and N=600, at it."""
    return {n: build_affinity(lrr_noisy(generate_synthetic(SyntheticSpec(
        points_per_subspace=n // 3, noise_variance=0.01, seed=7)).X, 2.0).C)
        for n in (150, 450, 600)}


class TestWorkingSet:
    """From C to labels the stage holds one N x N array (tracemalloc peaks
    in units of 8 N^2 bytes): the affinity takes C's buffer, and the
    embedding builds its second matrix in W's upper triangle.  What is left
    are block scratch arrays, numpy's iteration buffers and k-means's
    (replicates x N) arrays, which weigh more at a smaller N."""

    def test_affinity(self):
        C = np.random.default_rng(3).standard_normal((600, 600))
        assert peak_arrays(lambda: build_affinity(C), 600) <= 1.05

    def test_affinity_in_cs_buffer(self):
        C = np.random.default_rng(3).standard_normal((600, 600))
        assert peak_arrays(lambda: build_affinity(C, out=C), 600) <= 0.05

    @pytest.mark.parametrize("n, budget, subset_eighs", [
        pytest.param(450, 0.25, 1, id="subset-eigh"), pytest.param(600, 0.18, 0, id="lanczos")])
    def test_embedding_leaves_w_unchanged(self, monkeypatch, lrr_affinities, n, budget,
                                          subset_eighs):
        """The subset eigh overwrites the Laplacian, and Cholesky the Lanczos
        certificate, in the lower triangle of W's Fortran view, W's upper
        one, which is then mirrored back from the lower.  The first call,
        which on the Lanczos path imports scipy.sparse.linalg, warms up."""
        W = lrr_affinities[n]
        before = W.copy()
        spectral_cluster(W, 3, 0)
        calls = subset_eigh_calls(monkeypatch)
        assert peak_arrays(lambda: spectral_cluster(W, 3, 0), n) <= budget
        assert len(calls) == subset_eighs
        np.testing.assert_array_equal(W.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("n", [450, 600], ids=["subset-eigh", "lanczos"])
    def test_upper_triangle_comes_back_as_the_mirror_of_the_lower(self, lrr_affinities, n):
        """A W that is not bit-symmetric keeps its lower triangle and its
        diagonal; its upper triangle is replaced by the mirror of the lower."""
        W = lrr_affinities[n].copy()
        W[np.triu_indices(n, 1)] *= 1.0 + 1e-9
        lower = np.tril(W)
        spectral_cluster(W, 3, 0)
        np.testing.assert_array_equal(W, lower + np.tril(lower, -1).T)


def kmeans_inputs(monkeypatch):
    """Records the points every spectral_cluster call hands to k-means."""
    points = []
    real = spectral_module._kmeans

    def capture(emb, k, seed):
        points.append(emb.copy())
        return real(emb, k, seed)

    monkeypatch.setattr(spectral_module, "_kmeans", capture)
    return points


def separate_laplacian(W):
    """The Laplacian in an array of its own, in Fortran order, as
    spectral_cluster built it before it took W's upper triangle."""
    n = W.shape[0]
    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), spectral_module._DEGREE_FLOOR))
    lap = np.multiply(inv_sqrt_deg[:, None], W, out=np.empty((n, n), order="F"))
    lap *= inv_sqrt_deg[None, :]
    np.subtract(0.0, lap, out=lap)
    lap[np.diag_indices(n)] += 1.0
    return lap


def separate_laplacian_points(W, n_clusters):
    """The k-means input of the subset eigh path on :func:`separate_laplacian`."""
    _, emb = scipy.linalg.eigh(separate_laplacian(W), subset_by_index=[0, n_clusters - 1],
                               overwrite_a=True, check_finite=False)
    norms = np.linalg.norm(emb, axis=1)
    rows = norms > spectral_module._ROW_NORM_FLOOR
    return np.asfortranarray(emb[rows] / norms[rows, None])


@pytest.mark.parametrize("case", ["lrr-150", "lrr-450", "lrr-600", "zero-blocks"])
def test_laplacian_in_ws_upper_triangle_gives_the_same_bits(monkeypatch, lrr_affinities, case):
    """The Laplacian built in W's upper triangle holds, in the triangle eigh
    reads, the bits of the one built in a separate array, the signs of zeros
    included, and the subset eigh gives the same embedding."""
    if case == "zero-blocks":
        W = block_affinity([30, 40, 50], seed=3)[0]
    else:
        W = lrr_affinities[int(case.split("-")[1])]
    n = W.shape[0]
    monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", n + 1)
    triangles = []
    real_eigh = scipy.linalg.eigh

    def recording_eigh(a, **kwargs):
        triangles.append(np.tril(a))
        return real_eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    points = kmeans_inputs(monkeypatch)
    spectral_cluster(W, 3, 0)
    np.testing.assert_array_equal(triangles.pop().view(np.int64),
                                  np.tril(separate_laplacian(W)).view(np.int64))
    monkeypatch.setattr(scipy.linalg, "eigh", real_eigh)
    np.testing.assert_array_equal(points.pop().view(np.int64),
                                  separate_laplacian_points(W, 3).view(np.int64))


def subset_eigh_labels(monkeypatch, W, n_clusters, seed):
    """spectral_cluster with the crossover above W's size: the subset eigh path."""
    with monkeypatch.context() as mp:
        mp.setattr(spectral_module, "_LANCZOS_MIN_N", W.shape[0] + 1)
        return spectral_cluster(W, n_clusters, seed)


class TestLanczosFallsBackToSubsetEigh:
    """Where the Lanczos result cannot be used, the subset eigh gives the
    embedding it gives below the crossover, bit for bit."""

    def test_missed_multiplicity_fails_the_certificate(self, monkeypatch):
        # four equal components: lambda_3 = lambda_4 = 1, so no 3 vectors
        # hold every eigenvector of eigenvalue 1 and the certificate must fail
        W = np.kron(np.eye(4), block_affinity([6], seed=3)[0])
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        factorizations = []
        real_potrf = scipy.linalg.lapack.dpotrf

        def recording_potrf(*args, **kwargs):
            out = real_potrf(*args, **kwargs)
            factorizations.append(out[1])
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", recording_potrf)
        calls = subset_eigh_calls(monkeypatch)
        points = kmeans_inputs(monkeypatch)
        # the eigenspace of eigenvalue 1 has dimension 4 > n_clusters, so any 3
        # of its vectors are a valid embedding: the oracle is the subset eigh
        # below the crossover, which the full eigh agrees with only by chance
        for seed in (0, 1, 2):
            labels = spectral_cluster(W, 3, seed)
            fallback = points.pop()
            np.testing.assert_array_equal(labels, subset_eigh_labels(monkeypatch, W, 3, seed))
            np.testing.assert_array_equal(fallback, points.pop())
        assert len(factorizations) == 3 and all(info > 0 for info in factorizations)
        assert calls == [[0, 2]] * 6

    def test_failed_factorization_leaves_w_unchanged(self, monkeypatch, lrr_affinities):
        """A certificate that dpotrf rejects (info = 1) after writing its
        triangle: W is put back bit for bit before the subset eigh builds
        the Laplacian in the same triangle, which gives the labels of the
        subset eigh path."""
        W = lrr_affinities[600]
        before = W.copy()
        expected = subset_eigh_labels(monkeypatch, W, 3, 0)
        real_potrf = scipy.linalg.lapack.dpotrf
        factorizations = []

        def failing_potrf(*args, **kwargs):
            factorizations.append(kwargs.get("lower"))
            return real_potrf(*args, **kwargs)[0], 1

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", failing_potrf)
        calls = subset_eigh_calls(monkeypatch)
        points = kmeans_inputs(monkeypatch)
        np.testing.assert_array_equal(spectral_cluster(W, 3, 0), expected)
        assert factorizations == [1] and calls == [[0, 2]]
        np.testing.assert_array_equal(W.view(np.int64), before.view(np.int64))
        # the embedding is the subset eigh's of a Laplacian in its own array
        np.testing.assert_array_equal(points.pop(), separate_laplacian_points(W, 3))

    def test_no_convergence_falls_back(self, monkeypatch):
        from scipy.sparse import linalg as sparse_linalg

        def no_convergence(A, k, **kwargs):
            raise sparse_linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                    np.empty((A.shape[0], 0)))

        monkeypatch.setattr(sparse_linalg, "eigsh", no_convergence)
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        calls = subset_eigh_calls(monkeypatch)
        points = kmeans_inputs(monkeypatch)
        W, _ = block_affinity([4, 6, 8], off_block=0.2, seed=3)
        for seed in (0, 1):
            labels = spectral_cluster(W, 3, seed)
            fallback = points.pop()
            np.testing.assert_array_equal(labels, subset_eigh_labels(monkeypatch, W, 3, seed))
            np.testing.assert_array_equal(fallback, points.pop())
            np.testing.assert_array_equal(labels, full_eigh_spectral_labels(W, 3, seed))
        assert calls == [[0, 2]] * 4

    def test_ritz_residual_above_tolerance_falls_back(self, monkeypatch):
        # every Ritz residual exceeds a negative tolerance, so none is certified
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        monkeypatch.setattr(spectral_module, "_RITZ_RESIDUAL_TOL", -1.0)

        def never(*args, **kwargs):
            raise AssertionError("the certificate ran on a rejected Ritz pair")

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", never)
        calls = subset_eigh_calls(monkeypatch)
        points = kmeans_inputs(monkeypatch)
        W, _ = block_affinity([4, 6, 8], off_block=0.2, seed=3)
        for seed in (0, 1):
            labels = spectral_cluster(W, 3, seed)
            fallback = points.pop()
            np.testing.assert_array_equal(labels, subset_eigh_labels(monkeypatch, W, 3, seed))
            np.testing.assert_array_equal(fallback, points.pop())
        assert calls == [[0, 2]] * 4

    def test_slow_convergence_stops_at_the_matvec_budget(self, monkeypatch):
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_MATVECS", 5)
        matvecs = []
        real_dsymv = scipy.linalg.blas.dsymv

        def counting_dsymv(*args, **kwargs):
            matvecs.append(1)
            return real_dsymv(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.blas, "dsymv", counting_dsymv)
        calls = subset_eigh_calls(monkeypatch)
        W, _ = block_affinity([4, 6, 8], off_block=0.2, seed=3)  # 18 points: budget 9
        np.testing.assert_array_equal(spectral_cluster(W, 3, 0),
                                      subset_eigh_labels(monkeypatch, W, 3, 0))
        assert len(matvecs) == 9 and calls == [[0, 2]] * 2


def test_lanczos_embedding_repeats_at_the_benchmark_size(monkeypatch):
    """At N=1500, above the crossover, repeated calls hand k-means identical
    points, certified without the subset eigh; they are the subset eigh's
    up to column signs, and label as that eigh's do."""
    X = generate_synthetic(SyntheticSpec(points_per_subspace=500, noise_variance=0.01,
                                         seed=1809)).X
    W = build_affinity(lrr_noisy(X, 2.0).C)
    assert W.shape[0] >= spectral_module._LANCZOS_MIN_N
    calls = subset_eigh_calls(monkeypatch)
    points = kmeans_inputs(monkeypatch)
    for seed in (7, 2024):
        first, again = spectral_cluster(W, 3, seed), spectral_cluster(W, 3, seed)
        assert calls == []
        np.testing.assert_array_equal(points[0], points[1])
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(first, subset_eigh_labels(monkeypatch, W, 3, seed))
        assert len(calls) == 1
        np.testing.assert_allclose(np.abs(points[0]), np.abs(points[2]), rtol=0, atol=1e-9)
        calls.clear()
        points.clear()


@pytest.mark.parametrize("sizes, n_clusters", [([8], 1), ([4, 6, 8], 3), ([3, 3], 6)])
def test_embedding_asks_for_n_clusters_eigenpairs_only(monkeypatch, sizes, n_clusters):
    W = block_affinity(sizes, off_block=0.1, seed=2)[0]
    requested, shapes = [], []
    real = scipy.linalg.eigh

    def counting(a, *args, **kwargs):
        requested.append(kwargs.get("subset_by_index"))
        vals, vecs = real(a, *args, **kwargs)
        shapes.append(vecs.shape)
        return vals, vecs

    def forbidden(*args, **kwargs):
        raise AssertionError("spectral_cluster reached the full np.linalg.eigh")

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    spectral_cluster(W, n_clusters, seed=0)
    assert requested == [[0, n_clusters - 1]]
    assert shapes == [(W.shape[0], n_clusters)]


def choice_kmeanspp_init(points, k, rng):
    """k-means++ seeding that draws each center by rng.choice: the reference
    for _kmeanspp_init, which draws the same index from one rng.random()."""
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


class TestKmeansppMatchesChoiceOracle:
    """_kmeanspp_init picks the centers rng.choice would and leaves the
    generator in the same state, so later draws are unchanged too."""

    @staticmethod
    def assert_same_draws(points, k, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(spectral_module._kmeanspp_init(points, k, rng),
                                      choice_kmeanspp_init(points, k, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_random_points(self):
        """1,500 weighted draws: 300 seeds of 6 centers among 40 points."""
        points = np.random.default_rng(0).standard_normal((40, 3))
        for seed in range(300):
            self.assert_same_draws(points, 6, seed)

    def test_embedding_of_the_benchmark_dataset(self, bench_dataset):
        points = embedded_points(build_affinity(lrr_noisy(bench_dataset.X, 2.0).C), 3)
        for seed in range(50):
            self.assert_same_draws(points, 3, seed)

    def test_zero_total_draws_a_uniform_index(self):
        """Once every point sits on a center, the next center is rng.integers(n)."""
        points = np.repeat(np.eye(2), [3, 4], axis=0)
        for seed in range(20):
            self.assert_same_draws(points, 4, seed)


def serial_lloyd(points, k, seed):
    """The replicates of _kmeans one after another, each in its own Lloyd loop.

    The per-replicate loop the lockstep one replaced, kept as its reference:
    same seeds (drawn by choice_kmeanspp_init), same constants, centers as
    points[mask].mean(axis=0).
    Returns every replicate's (labels, inertia) and how many clusters were
    re-seated.
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    runs, reseats = [], 0
    for _ in range(spectral_module._KMEANS_REPLICATES):
        centers = choice_kmeanspp_init(points, k, rng)
        labels, inertia = None, np.inf
        for _ in range(spectral_module._KMEANS_MAX_ITER):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            assigned = d2[np.arange(n), new_labels]
            new_inertia = float(assigned.sum())
            done = (labels is not None
                    and inertia - new_inertia <= spectral_module._KMEANS_REL_TOL * inertia)
            labels, inertia = new_labels, new_inertia
            if done:
                break
            for j in range(k):
                mask = labels == j
                if mask.any():
                    centers[j] = points[mask].mean(axis=0)
                else:
                    centers[j] = points[int(np.argmax(assigned))]
                    reseats += 1
        runs.append((labels, inertia))
    return runs, reseats


def embedded_points(W, n_clusters):
    """The rows spectral_cluster hands to k-means for the affinity W."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral_module, "_kmeans",
                   lambda points, k, seed: captured.append(points) or np.zeros(len(points), int))
        spectral_cluster(W, n_clusters, seed=0)
    return captured[0]


class TestLockstepKmeansMatchesSerialOracle:
    """The lockstep Lloyd loop gives every replicate the labels and inertia
    of the serial loop, bit for bit, and _kmeans the labels of its first
    best replicate."""

    @staticmethod
    def assert_matches_oracle(points, k, seed):
        runs, reseats = serial_lloyd(points, k, seed)
        rng = np.random.default_rng(seed)
        centers = np.stack([spectral_module._kmeanspp_init(points, k, rng)
                            for _ in range(spectral_module._KMEANS_REPLICATES)])
        labels, inertia = spectral_module._lloyd(points, centers)
        for r, (run_labels, run_inertia) in enumerate(runs):
            np.testing.assert_array_equal(labels[r], run_labels)
            assert inertia[r] == run_inertia
        best = min(range(len(runs)), key=lambda r: runs[r][1])  # first minimum
        got = spectral_module._kmeans(points, k, seed)
        assert got.dtype == np.asarray(runs[best][0], dtype=int).dtype
        np.testing.assert_array_equal(got, runs[best][0])
        return reseats

    @pytest.mark.parametrize("sizes, off_block", [([6, 9], 0.3), ([4, 6, 8], 0.2),
                                                  ([3, 4, 5, 6, 7], 0.5), ([10, 10, 10], 0.9)])
    def test_block_affinities(self, sizes, off_block):
        W, _ = block_affinity(sizes, off_block=off_block, seed=len(sizes))
        points = embedded_points(W, len(sizes))
        for seed in (0, 1, 7, 12345):
            self.assert_matches_oracle(points, len(sizes), seed)

    def test_lrr_embedding_of_the_benchmark_dataset(self, bench_dataset):
        points = embedded_points(build_affinity(lrr_noisy(bench_dataset.X, 2.0).C), 3)
        for seed in (0, 2024):
            self.assert_matches_oracle(points, 3, seed)

    @pytest.mark.parametrize("points, k", [
        # a cluster empties after some steps and is re-seated at a point with a
        # nonzero distance, which changes that replicate's later steps
        (np.array([[0, 2], [4, 0], [4, 4], [2, 5], [1, 3], [1, 2], [1, 4], [5, 0]], float), 4),
        # three distinct points: k-means++ seeds the fourth and fifth centers on
        # copies of the first three, whose clusters empty at the first step
        (np.repeat(np.eye(3), [4, 5, 6], axis=0), 5),
    ])
    def test_emptied_cluster_is_reseated(self, points, k):
        assert sum(self.assert_matches_oracle(points, k, seed) for seed in (0, 3)) > 0

    def test_one_cluster(self):
        W, _ = block_affinity([6, 6], off_block=0.3, seed=6)
        points = embedded_points(W, 1)
        for seed in (0, 5):
            self.assert_matches_oracle(points, 1, seed)

    def test_one_cluster_per_point(self):
        W, _ = block_affinity([6, 6], off_block=0.3, seed=6)
        points = embedded_points(W, 12)
        for seed in (0, 5):
            self.assert_matches_oracle(points, 12, seed)

    def test_beyond_the_old_difference_array_limit(self):
        """Replicates x points x centers x dimensions above 2**20, the size at
        which the (r, n, k, dim) difference array used to be formed in blocks."""
        W, _ = block_affinity([60] * 10, off_block=0.9, seed=10)
        points = embedded_points(W, 10)
        assert spectral_module._KMEANS_REPLICATES * points.size * 10 > 1 << 20
        self.assert_matches_oracle(points, 10, 0)

    @pytest.mark.parametrize("k", [8, 9, 17])
    def test_eight_or_more_dimensions(self, k):
        """From 8 terms numpy's sum over a contiguous axis runs pairwise.  The
        embedding is Fortran-ordered, so the oracle's difference array is not
        contiguous along its dimensions, and both add them in index order."""
        sizes = [20 + 3 * i for i in range(k)]
        W, _ = block_affinity(sizes, off_block=0.9, seed=k)
        points = embedded_points(W, k)
        assert points.flags.f_contiguous and not points.flags.c_contiguous
        for seed in (0, 1):
            self.assert_matches_oracle(points, k, seed)
