"""Closed-form low-rank representations and the soft-threshold solver baseline."""

import re

import numpy as np
import pytest

from lrssc import (
    SolverConfig,
    convex_lrssc,
    gmc_lrssc_solve,
    lrr_noiseless,
    lrr_noisy,
    s0l0_lrssc_solve,
)
from lrssc.solvers import ALGORITHMS, CONVEX, GramSolver, State, j_update
from conftest import ista_low_rank


def low_rank_matrix(rows, cols, rank, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


@pytest.mark.parametrize("case", ["inf", "nan", "1-d", "zero", "no-rows"])
@pytest.mark.parametrize("solve", [
    lrr_noiseless, lambda X: lrr_noisy(X, 2.0), GramSolver,
    lambda X: j_update(X, State.zeros(10, [1.0, 1.0])),
    gmc_lrssc_solve, s0l0_lrssc_solve, convex_lrssc,
], ids=["noiseless", "noisy", "GramSolver", "j_update", "gmc", "s0l0", "lrssc-convex"])
def test_rejects_non_finite_input_before_the_svd(monkeypatch, solve, case):
    """X enters every solve, the J step without a prebuilt GramSolver and
    both LRRs through one door, GramSolver, which rejects a non-finite or
    non-2-d X, or one with no nonzero entry (all zeros, or no rows), by one
    message before its SVD."""
    def unreachable(*args, **kw):
        raise AssertionError("SVD reached with a rejected input")

    X = low_rank_matrix(6, 10, 3)
    if case in ("inf", "nan"):
        X[2, 4] = float(case)
    nonzero = "X must contain at least one nonzero entry"
    X, message = {
        "1-d": (X[0], "X must be a 2-d matrix, got shape (10,)"),
        "zero": (np.zeros((6, 10)), nonzero),
        "no-rows": (np.zeros((0, 10)), nonzero),
    }.get(case, (X, "X contains non-finite entries"))
    monkeypatch.setattr(np.linalg, "svd", unreachable)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(X)


class TestNoiseless:
    def test_identity_input_gives_identity(self):
        sol = lrr_noiseless(np.eye(3))
        np.testing.assert_allclose(sol.C, np.eye(3), atol=1e-12)
        assert sol.active_set.tolist() == [0, 1, 2]

    def test_result_is_orthogonal_projector(self):
        X = low_rank_matrix(10, 20, 4, seed=1)
        C = lrr_noiseless(X).C
        np.testing.assert_allclose(C @ C, C, atol=1e-10)
        np.testing.assert_allclose(C, C.T, atol=1e-12)

    def test_self_expression_residual(self):
        X = low_rank_matrix(10, 20, 4, seed=2)
        C = lrr_noiseless(X).C
        rel = np.linalg.norm(X - X @ C) / np.linalg.norm(X)
        assert rel <= 1e-8

    def test_active_set_size_equals_rank(self):
        X = low_rank_matrix(12, 30, 5, seed=3)
        assert lrr_noiseless(X).active_set.size == 5

    def test_rejects_zero_matrix(self):
        """The door's nonzero rule, checked after the shape and finiteness
        rules, reaches both closed forms."""
        for solve in (lrr_noiseless, lambda X: lrr_noisy(X, 2.0)):
            with pytest.raises(ValueError, match="^X must contain at least one nonzero entry$"):
                solve(np.zeros((4, 6)))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            lrr_noiseless(np.ones(5))


class TestNoisy:
    def test_small_spectrum_gives_zero(self):
        """No singular value above 1/sqrt(lam) (0.1 <= 1 in the first case):
        C is the C-ordered N x N product over an empty inner dimension, +0.0
        in every entry."""
        for X, lam in ((0.1 * np.eye(3), 1.0), (low_rank_matrix(6, 10, 3), 1e-9)):
            sol = lrr_noisy(X, lam)
            n_points = X.shape[1]
            np.testing.assert_array_equal(sol.C, np.zeros((n_points, n_points)))
            assert sol.C.flags.c_contiguous and not np.any(np.signbit(sol.C))
            assert sol.active_set.size == 0

    def test_single_direction_shrinkage(self):
        X = np.zeros((2, 2))
        X[0, 0] = 2.0
        sol = lrr_noisy(X, 1.0)
        expect = np.zeros((2, 2))
        expect[0, 0] = 0.75  # 1 - 1/(lam * sigma^2) = 1 - 1/4
        np.testing.assert_allclose(sol.C, expect, atol=1e-12)

    def test_rejects_nonpositive_lam(self):
        X = np.eye(2)
        with pytest.raises(ValueError):
            lrr_noisy(X, 0.0)
        with pytest.raises(ValueError):
            lrr_noisy(X, -2.0)
        # an infinite weight would keep every singular value, rounding noise too
        with pytest.raises(ValueError, match="lam must be finite, got inf"):
            lrr_noisy(X, np.inf)

    def test_result_symmetric(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 15))
        C = lrr_noisy(X, 5.0).C
        np.testing.assert_allclose(C, C.T, atol=1e-12)

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 25))
        C = lrr_noisy(X, 8.0).C
        eigs = np.linalg.eigvalsh(C)
        assert eigs.min() >= -1e-12
        assert eigs.max() < 1.0

    def test_matches_proximal_gradient_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 40))
        C_closed = lrr_noisy(X, 10.0).C
        C_oracle = ista_low_rank(X, 10.0)
        rel = np.linalg.norm(C_closed - C_oracle) / np.linalg.norm(C_oracle)
        assert rel <= 1e-4

    def test_shrinks_toward_projector_as_lam_grows(self):
        X = low_rank_matrix(10, 20, 4, seed=8)
        projector = lrr_noiseless(X).C
        gap_small = np.linalg.norm(lrr_noisy(X, 1e2).C - projector)
        gap_large = np.linalg.norm(lrr_noisy(X, 1e6).C - projector)
        assert gap_large < gap_small


class TestConvexSolverBaseline:
    def test_trace_contract_and_near_hollow_diagonal(self, small_dataset):
        cfg = SolverConfig()
        C, trace = convex_lrssc(small_dataset.X, cfg)
        assert trace.variant == "lrssc-convex"
        assert len(trace.r_jc) == 2
        assert np.all(np.isfinite(trace.r_jc))
        assert np.all(np.isfinite(trace.r_jj))
        assert np.all(np.isfinite(trace.lagrangian))
        # at exit |diag| <= ||J - C1||inf + ||J - C2||inf (C2 is exactly hollow)
        assert trace.termination == "converged"
        assert np.abs(np.diag(C)).max() <= 2 * cfg.epsilon

    def test_gamma_is_ignored(self, small_dataset):
        base = dict(lam=0.6, mu2_init=2.0, max_iters=15)
        C_a, _ = convex_lrssc(small_dataset.X, SolverConfig(gamma=0.2, **base))
        C_b, _ = convex_lrssc(small_dataset.X, SolverConfig(gamma=0.9, **base))
        np.testing.assert_array_equal(C_a, C_b)

    def test_rejects_degenerate_weights(self, small_dataset):
        with pytest.raises(ValueError):
            convex_lrssc(small_dataset.X, SolverConfig(lam=1.0))  # tau = 0
        with pytest.raises(ValueError):
            convex_lrssc(small_dataset.X, SolverConfig(lam=0.0))

    def test_default_config_used_when_omitted(self, small_dataset):
        """Without a config the solve runs at lrssc-convex's own defaults, the
        ones the command line uses, not at SolverConfig's (gmc's)."""
        C_default, _ = convex_lrssc(small_dataset.X)
        C_explicit, _ = convex_lrssc(small_dataset.X,
                                     SolverConfig(**ALGORITHMS[CONVEX].defaults))
        np.testing.assert_array_equal(C_default, C_explicit)
        C_gmc_defaults, _ = convex_lrssc(small_dataset.X, SolverConfig())
        assert not np.array_equal(C_default, C_gmc_defaults)

    def test_large_rank_weight_drops_rank(self, small_dataset):
        """Heavier nuclear-norm weight must not raise the spectral rank."""
        X = small_dataset.X
        # effective weights (lam, tau) * mu2_init = (0.2, 0.8) and (0.999, 0.001)
        cfg_light = SolverConfig(lam=0.2 / 3.0, tau=0.8 / 3.0, mu2_init=3.0, max_iters=30)
        cfg_heavy = SolverConfig(lam=0.999 / 3.0, tau=0.001 / 3.0, mu2_init=3.0, max_iters=30)
        C_light, _ = convex_lrssc(X, cfg_light)
        C_heavy, trace = convex_lrssc(X, cfg_heavy)
        assert np.all(np.isfinite(C_heavy))
        assert trace.n_iters >= 1

        def spectral_count(M):
            s = np.linalg.svd(M, compute_uv=False)
            return int(np.count_nonzero(s > 1e-8 * s[0])) if s[0] > 0 else 0

        assert spectral_count(C_heavy) <= spectral_count(C_light)
