"""Clustering-error scoring and the hyperparameter grid search."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrssc import (
    GridSpec,
    SolverConfig,
    SyntheticSpec,
    build_affinity,
    clustering_error,
    generate_synthetic,
    grid_search,
    parallel,
    spectral_cluster,
)
from lrssc import evaluation, solvers
from lrssc.solvers import ALGORITHMS
from conftest import brute_force_ce


class TestClusteringError:
    def test_identical_labelings(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = clustering_error(labels, labels)
        assert report.ce == 0.0
        assert report.n_points == 6
        assert report.missing_clusters == ()

    def test_permutation_invariance(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_error(pred, truth).ce == 0.0

    def test_quarter_error_pair(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        assert clustering_error(pred, truth).ce == pytest.approx(0.25)

    def test_symmetry_with_equal_label_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 3, size=30)
            b = rng.integers(0, 3, size=30)
            assert clustering_error(a, b).ce == pytest.approx(
                clustering_error(b, a).ce)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            L = int(rng.integers(2, 6))
            a = rng.integers(0, L, size=40)
            b = rng.integers(0, L, size=40)
            assert 0.0 <= clustering_error(a, b).ce <= 1.0

    @pytest.mark.parametrize("n_labels", [2, 3, 4, 5, 6])
    def test_matches_brute_force_permutation_search(self, n_labels):
        rng = np.random.default_rng(n_labels)
        for _ in range(40):
            size = int(rng.integers(5, 60))
            pred = rng.integers(0, n_labels, size=size)
            truth = rng.integers(0, n_labels, size=size)
            assert clustering_error(pred, truth).ce == pytest.approx(
                brute_force_ce(pred, truth), abs=1e-12)

    def test_degenerate_prediction_reports_missing_clusters(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.zeros(6, dtype=int)
        report = clustering_error(pred, truth)
        assert report.missing_clusters == (1, 2)
        assert report.ce == pytest.approx(2 / 3)

    def test_matching_realizes_reported_error(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 4, size=50)
        truth = rng.integers(0, 4, size=50)
        report = clustering_error(pred, truth)
        mapping = dict(report.matching)
        relabeled = np.array([mapping[p] for p in pred])
        assert np.count_nonzero(relabeled != truth) / 50 == pytest.approx(report.ce)

    def test_relabeling_both_sides_preserves_error(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 3, size=30)
        base = clustering_error(pred, truth).ce
        perm = np.array([2, 0, 1])
        assert clustering_error(perm[pred], truth).ce == pytest.approx(base)
        assert clustering_error(pred, perm[truth]).ce == pytest.approx(base)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clustering_error([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            clustering_error([], [])
        with pytest.raises(ValueError):
            clustering_error([0, -1], [0, 1])
        with pytest.raises(ValueError):
            clustering_error(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_hungarian_equals_brute_force_random(self, data):
        L = data.draw(st.integers(2, 5))
        size = data.draw(st.integers(4, 30))
        pred = np.array(data.draw(st.lists(
            st.integers(0, L - 1), min_size=size, max_size=size)))
        truth = np.array(data.draw(st.lists(
            st.integers(0, L - 1), min_size=size, max_size=size)))
        assert clustering_error(pred, truth).ce == pytest.approx(
            brute_force_ce(pred, truth), abs=1e-12)


class TestGridSpecs:
    """The grid each ALGORITHMS record holds is the one ``lrssc tune`` searches."""

    MU_INITS = (1.0, 3.0, 5.0, 10.0, 20.0)
    DECADE_LAMBDAS = [1.0 / (1.0 + 10.0**k) for k in range(-3, 4)]

    def test_gmc_grid_lambda_values(self):
        grid = ALGORITHMS["gmc"].grid
        assert list(grid.lambdas) == pytest.approx(self.DECADE_LAMBDAS)
        assert list(grid.gammas) == pytest.approx([0.1 * k for k in range(1, 11)])
        assert grid.mu_inits == self.MU_INITS

    def test_convex_grid_values(self):
        grid = ALGORITHMS["lrssc-convex"].grid
        assert list(grid.lambdas) == pytest.approx(self.DECADE_LAMBDAS)
        assert (grid.gammas, grid.mu_inits) == ((0.6,), self.MU_INITS)

    def test_s0l0_grid_lambda_values(self):
        grid = ALGORITHMS["s0l0"].grid
        assert list(grid.lambdas) == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        assert (grid.gammas, grid.mu_inits) == ((0.6,), self.MU_INITS)

    def test_one_grid_spec_under_every_public_name(self):
        assert GridSpec is evaluation.GridSpec is solvers.GridSpec


# independent subspaces: easy instances where good settings reach CE 0
IDEAL_SPEC = SyntheticSpec(ambient_dim=30, subspace_dim=3, num_subspaces=3,
                           points_per_subspace=10, union_rank=9)
# overlapping subspaces under heavy noise: errors vary from trial to trial
NOISY_SPEC = replace(IDEAL_SPEC, union_rank=6, noise_variance=0.3)


class TestGridSearch:

    def test_single_point_grid(self):
        grid = GridSpec(lambdas=(0.5,), mu_inits=(3.0,))
        result = grid_search(IDEAL_SPEC, "gmc", grid,
                             base_config=SolverConfig(gamma=0.6, max_iters=30))
        # one cell per phase, both at the same setting
        assert [(p.lam, p.mu2_init) for p in result.table] == [(0.5, 3.0)] * 2
        assert result.best_config.lam == 0.5
        assert result.best_config.mu2_init == 3.0
        assert result.best_median_ce == result.table[-1].median_ce

    def test_perfect_config_selected(self):
        grid = GridSpec(lambdas=(0.5, 0.9), mu_inits=(3.0,))
        result = grid_search(IDEAL_SPEC, "gmc", grid,
                             base_config=SolverConfig(gamma=0.6, max_iters=30))
        assert result.best_median_ce == 0.0

    def test_two_phase_evaluation_count(self):
        grid = GridSpec(lambdas=ALGORITHMS["gmc"].grid.lambdas)
        result = grid_search(IDEAL_SPEC, "gmc", grid,
                             base_config=SolverConfig(gamma=0.6, max_iters=10))
        # 7 lambdas at the base mu, then 5 mu values at the winning lambda
        assert len(result.table) == 12
        assert {p.mu2_init for p in result.table[:7]} == {3.0}
        assert {p.lam for p in result.table[7:]} == {result.best_config.lam}

    def test_gamma_axis_included_when_given(self):
        grid = GridSpec(lambdas=(0.5,), mu_inits=(5.0,), gammas=(0.3, 0.8))
        result = grid_search(IDEAL_SPEC, "gmc", grid,
                             base_config=SolverConfig(max_iters=10))
        assert [p.gamma for p in result.table[:2]] == [0.3, 0.8]
        assert result.table[2].gamma == result.best_config.gamma
        assert result.best_config.gamma in (0.3, 0.8)

    def test_ties_keep_first_grid_cell(self):
        def first_minimum(points):
            return next(p for p in points
                        if p.median_ce == min(q.median_ce for q in points))

        grid = GridSpec(lambdas=(0.5, 0.9, 0.1), mu_inits=(1.0, 5.0, 20.0))
        for spec in (IDEAL_SPEC, NOISY_SPEC):
            result = grid_search(spec, "gmc", grid, trials=2, seed=4,
                                 base_config=SolverConfig(max_iters=10))
            phase1, phase2 = result.table[:3], result.table[3:]
            assert {p.lam for p in phase2} == {first_minimum(phase1).lam}
            winner = first_minimum(phase2)
            assert result.best_config.lam == winner.lam
            assert result.best_config.mu2_init == winner.mu2_init
            assert result.best_median_ce == winner.median_ce

    def test_trials_rerun_spectral_stage(self):
        grid = GridSpec(lambdas=(0.5,), mu_inits=(5.0,))
        result = grid_search(NOISY_SPEC, "gmc", grid, trials=3,
                             seed=4, base_config=SolverConfig(max_iters=10))
        for point in result.table:
            assert len(point.ces) == 3
            assert point.median_ce == pytest.approx(np.median(point.ces))

    def test_trial_t_draws_data_and_kmeans_seeds_from_its_seed_sequence(self):
        base = SolverConfig(lam=0.5, gamma=0.6, max_iters=10)
        grid = GridSpec(lambdas=(0.5,), mu_inits=(3.0,))
        result = grid_search(NOISY_SPEC, "gmc", grid, trials=3, seed=9, base_config=base)
        expected = []
        for t in range(3):
            data_seed, kmeans_seed = (int(s.generate_state(1)[0])
                                      for s in np.random.SeedSequence([9, t]).spawn(2))
            data = generate_synthetic(replace(NOISY_SPEC, seed=data_seed))
            C, _ = ALGORITHMS["gmc"].solve(data.X, base)
            labels = spectral_cluster(build_affinity(C), 3, kmeans_seed)
            expected.append(clustering_error(labels, data.truth).ce)
        assert result.table[0].ces == tuple(expected)

    def test_deterministic_given_seed(self):
        grid = GridSpec(lambdas=(0.4, 0.6), mu_inits=(5.0,))
        kwargs = dict(trials=2, seed=11, base_config=SolverConfig(max_iters=8))
        a = grid_search(NOISY_SPEC, "s0l0", grid, **kwargs)
        b = grid_search(NOISY_SPEC, "s0l0", grid, **kwargs)
        assert [p.ces for p in a.table] == [p.ces for p in b.table]
        assert a.best_config == b.best_config

    def test_parallel_jobs_match_serial(self, monkeypatch):
        # force real workers even on a one-core machine
        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
        grid = GridSpec(lambdas=(0.5, 0.9), mu_inits=(1.0, 5.0))
        kwargs = dict(trials=2, seed=3, base_config=SolverConfig(max_iters=10))
        serial = grid_search(NOISY_SPEC, "gmc", grid, jobs=1, **kwargs)
        pooled = grid_search(NOISY_SPEC, "gmc", grid, jobs=2, **kwargs)
        assert pooled.table == serial.table
        assert pooled.best_config == serial.best_config

    def test_tau_follows_lambda_in_best_config(self):
        grid = GridSpec(lambdas=(0.3,), mu_inits=(5.0,))
        result = grid_search(IDEAL_SPEC, "s0l0", grid,
                             base_config=SolverConfig(max_iters=10))
        assert result.best_config.tau == pytest.approx(0.7)

    def test_default_base_is_the_registry_defaults(self):
        # s0l0 ships mu2_init 5.0; phase 1 must score at that, not at the
        # SolverConfig() value 3.0
        grid = GridSpec(lambdas=(0.5,), mu_inits=(5.0,))
        result = grid_search(IDEAL_SPEC, "s0l0", grid)
        assert [p.mu2_init for p in result.table] == [5.0, 5.0]

    @pytest.mark.parametrize("algorithm, grid, message", [
        # lam 1.0 leaves gmc no sparsity weight (tau = 0)
        ("gmc", GridSpec(lambdas=(0.5, 1.0), mu_inits=(5.0,)),
         "needs lam > 0 and tau > 0, got lam=1.0, tau=0.0"),
        ("gmc", GridSpec(lambdas=(0.5,), mu_inits=(5.0,), gammas=(0.5, 0.0)),
         "gamma must lie in (0, 1] for firm-threshold updates, got 0.0"),
        ("lrssc-convex", GridSpec(lambdas=(0.0, 0.5), mu_inits=(5.0,)),
         "needs lam > 0 and tau > 0, got lam=0.0, tau=1.0"),
        ("gmc", GridSpec(lambdas=(0.5,), mu_inits=(5.0, -1.0)),
         "mu1_init and mu2_init must be positive"),
        ("gmc", GridSpec(lambdas=(0.5,), mu_inits=(3.0, 2e6), gammas=(0.5,)),
         "mu_max must be at least the initial mu values"),
    ], ids=["gmc-lam", "gmc-gamma", "convex-lam", "mu", "mu-max"])
    def test_bad_cell_fails_before_data_or_workers(self, monkeypatch, algorithm, grid,
                                                   message):
        """Every cell of both phases is checked before any trial runs: a bad
        phase-two mu fails before phase one starts."""
        calls = []

        def counting_map(fn, tasks, jobs):
            calls.append(len(tasks))
            return [0.0] * len(tasks)

        def forbidden(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(evaluation, "map_tasks", counting_map)
        monkeypatch.setattr(evaluation, "_trial_ce", forbidden)
        monkeypatch.setattr(evaluation, "generate_synthetic", forbidden)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_search(IDEAL_SPEC, algorithm, grid, trials=2, jobs=2,
                        base_config=SolverConfig(max_iters=10))
        assert calls == []

    def test_input_validation(self):
        grid = GridSpec(lambdas=(0.5,))
        with pytest.raises(ValueError):
            grid_search(IDEAL_SPEC, "nonsense", grid)
        with pytest.raises(ValueError):
            grid_search(IDEAL_SPEC, "gmc", grid, trials=0)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            grid_search(IDEAL_SPEC, "gmc", grid, jobs=0)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            grid_search(IDEAL_SPEC, "gmc", grid, seed=-1)
        for axis in ("lambdas", "mu_inits"):
            with pytest.raises(ValueError, match=f"^grid {axis} must not be empty$"):
                grid_search(IDEAL_SPEC, "gmc", GridSpec(**{"lambdas": (0.5,), axis: ()}))
