"""Affinity construction and the Laplacian-embedding clustering pipeline."""

import numpy as np
import pytest
import scipy.linalg

import lrssc.spectral as spectral_module
from lrssc import (
    DegenerateAffinityError,
    build_affinity,
    clustering_error,
    lrr_noisy,
    spectral_cluster,
)
from conftest import block_affinity, full_eigh_spectral_labels


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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            build_affinity(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            build_affinity(np.zeros(5))


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

    def test_rejects_non_square_affinity(self):
        with pytest.raises(ValueError):
            spectral_cluster(np.zeros((3, 5)), 2, seed=0)

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

    def test_isolated_vertex(self):
        W = np.zeros((11, 11))
        W[:-1, :-1] = block_affinity([5, 5], seed=8)[0]  # last vertex has zero degree
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
