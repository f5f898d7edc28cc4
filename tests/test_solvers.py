"""ADMM solver pieces and full runs: update steps, traces, and diagnostics.

Several tests re-drive the iteration loop out of the exported update
functions and check the result against the packaged solvers bit for bit;
that pins the update order (J, then the C blocks, then the multipliers,
then mu) as part of the public contract.
"""

from dataclasses import replace

import numpy as np
import pytest

from lrssc import (
    NumericalError,
    S0L0State,
    SolverConfig,
    SolverState,
    build_affinity,
    convex_lrssc,
    dual_update,
    effective_weights,
    entrywise_hard,
    gmc_c1_update,
    gmc_c2_update,
    gmc_lrssc_solve,
    j_update,
    kkt_residuals,
    lagrangian_value,
    mu_update,
    normalize_columns,
    s0l0_c_update,
    s0l0_lrssc_solve,
    spectral_cluster,
    stopping_check,
    svt_hard,
)
from lrssc.solvers import CONVEX, GMC, S0L0, GramSolver


class TestConfigValidation:
    def test_tau_defaults_to_complement(self):
        cfg = SolverConfig(lam=0.3)
        assert cfg.tau == pytest.approx(0.7)

    def test_explicit_tau_kept(self):
        assert SolverConfig(lam=0.3, tau=0.5).tau == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(lam=1.5),
        dict(lam=-0.1),
        dict(tau=-0.2),
        dict(gamma=1.0001),
        dict(gamma=-0.5),
        dict(rho=1.0),
        dict(mu1_init=0.0),
        dict(mu2_init=-1.0),
        dict(mu_max=0.01),  # below the initial mu values
        dict(epsilon=0.0),
        dict(max_iters=0),
    ])
    def test_rejects_invalid_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_effective_weights_scaling(self):
        cfg = SolverConfig(lam=0.25, mu2_init=4.0, scale_by_mu=True)
        assert effective_weights(cfg) == (pytest.approx(1.0), pytest.approx(3.0))
        cfg_off = SolverConfig(lam=0.25, mu2_init=4.0, scale_by_mu=False)
        assert effective_weights(cfg_off) == (pytest.approx(0.25), pytest.approx(0.75))


class TestJUpdate:
    def test_zero_data_returns_average_of_blocks(self):
        cfg = SolverConfig(mu1_init=2.0, mu2_init=3.0)
        state = SolverState.zeros(4, cfg)
        A = np.arange(16.0).reshape(4, 4)
        state.C1 = A.copy()
        state.C2 = A.copy()
        J = j_update(np.zeros((3, 4)), state)
        np.testing.assert_allclose(J, A, atol=1e-12)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 9))
        cfg = SolverConfig(mu1_init=0.7, mu2_init=2.3)
        state = SolverState.zeros(9, cfg)
        state.C1 = rng.standard_normal((9, 9))
        state.C2 = rng.standard_normal((9, 9))
        state.Lambda1 = rng.standard_normal((9, 9))
        state.Lambda2 = rng.standard_normal((9, 9))
        J = j_update(X, state)
        gram = X.T @ X
        rhs = (gram + state.mu1 * state.C1 + state.mu2 * state.C2
               - state.Lambda1 - state.Lambda2)
        lhs = (gram + (state.mu1 + state.mu2) * np.eye(9)) @ J
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_large_mu_pins_j_to_consensus(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 7))
        C = rng.standard_normal((7, 7))
        state = SolverState(J=np.zeros((7, 7)), C1=C, C2=C,
                            Lambda1=np.zeros((7, 7)), Lambda2=np.zeros((7, 7)),
                            mu1=1e8, mu2=1e8)
        J = j_update(X, state)
        assert np.abs(J - C).max() <= 1e-6

    def test_two_block_form(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        state = S0L0State(J=np.zeros((6, 6)), C=rng.standard_normal((6, 6)),
                          Lambda=rng.standard_normal((6, 6)), mu=1.7)
        J = j_update(X, state)
        gram = X.T @ X
        rhs = gram + state.mu * state.C - state.Lambda
        lhs = (gram + state.mu * np.eye(6)) @ J
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_rejects_nonpositive_mu(self):
        state = S0L0State(J=np.zeros((2, 2)), C=np.zeros((2, 2)),
                          Lambda=np.zeros((2, 2)), mu=0.0)
        with pytest.raises(ValueError):
            j_update(np.eye(2), state)

    def test_gram_solver_reuse_matches_fresh_solve(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 8))
        gram = GramSolver(X)
        cfg = SolverConfig()
        state = SolverState.zeros(8, cfg)
        state.C1 = rng.standard_normal((8, 8))
        np.testing.assert_array_equal(j_update(X, state, gram), j_update(X, state))


class TestNormalizeColumns:
    def test_scales_to_unit_norm(self):
        J = np.array([[3.0], [4.0]])
        np.testing.assert_allclose(normalize_columns(J), [[0.6], [0.8]])

    def test_zero_column_untouched(self):
        J = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = normalize_columns(J)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert np.linalg.norm(out[:, 1]) == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        J = rng.standard_normal((6, 6))
        once = normalize_columns(J)
        np.testing.assert_allclose(normalize_columns(once), once, atol=1e-15)

    def test_does_not_mutate_input(self):
        J = np.array([[3.0], [4.0]])
        normalize_columns(J)
        np.testing.assert_array_equal(J, [[3.0], [4.0]])


def make_three_block_state(J, cfg, Lambda1=None, Lambda2=None):
    n = J.shape[0]
    state = SolverState.zeros(n, cfg)
    state.J = np.asarray(J, dtype=float)
    if Lambda1 is not None:
        state.Lambda1 = np.asarray(Lambda1, dtype=float)
    if Lambda2 is not None:
        state.Lambda2 = np.asarray(Lambda2, dtype=float)
    state.mu1 = cfg.mu1_init
    state.mu2 = cfg.mu2_init
    return state


class TestCUpdates:
    def test_gmc_c1_firm_spectrum(self):
        # threshold lam_eff/mu1 = 1 and knee lam/(gamma*mu1) = 2
        cfg = SolverConfig(lam=1.0, tau=0.5, gamma=0.5, mu1_init=1.0,
                           mu2_init=1.0, scale_by_mu=False)
        state = make_three_block_state(np.diag([1.5, 0.5]), cfg)
        np.testing.assert_allclose(gmc_c1_update(state, cfg),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_gmc_c1_zero_state(self):
        cfg = SolverConfig(gamma=0.5)
        state = SolverState.zeros(3, cfg)
        np.testing.assert_array_equal(gmc_c1_update(state, cfg), np.zeros((3, 3)))

    def test_gmc_c2_firm_entries_and_hollow_diagonal(self):
        cfg = SolverConfig(lam=0.5, tau=1.0, gamma=0.5, mu1_init=1.0,
                           mu2_init=1.0, scale_by_mu=False)
        state = make_three_block_state(np.array([[0.0, 1.5], [5.0, 0.0]]), cfg)
        np.testing.assert_allclose(gmc_c2_update(state, cfg),
                                   np.array([[0.0, 1.0], [5.0, 0.0]]), atol=1e-12)

    def test_gmc_c2_small_entries_vanish(self):
        cfg = SolverConfig(lam=0.5, tau=1.0, gamma=0.5, mu1_init=1.0,
                           mu2_init=1.0, scale_by_mu=False)
        state = make_three_block_state(np.full((3, 3), 0.9), cfg)
        np.testing.assert_array_equal(gmc_c2_update(state, cfg), np.zeros((3, 3)))

    def test_gmc_c2_diagonal_always_zero(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig(gamma=0.6)
        state = make_three_block_state(rng.standard_normal((5, 5)) * 3, cfg,
                                       Lambda2=rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(np.diag(gmc_c2_update(state, cfg)), 0.0)

    def test_gmc_updates_reject_zero_gamma(self):
        # gamma = 0 is a legal penalty-evaluation setting but not a firm prox
        bad = SolverConfig(gamma=0.0)
        state = SolverState.zeros(3, bad)
        with pytest.raises(ValueError):
            gmc_c1_update(state, bad)
        with pytest.raises(ValueError):
            gmc_c2_update(state, bad)


def make_two_block_state(V, cfg):
    n = V.shape[0]
    state = S0L0State.zeros(n, cfg)
    state.J = np.asarray(V, dtype=float)
    return state


class TestS0L0Update:
    def test_pure_rank_degenerates_to_svt(self):
        cfg = SolverConfig(lam=1.0, tau=0.0, mu2_init=1.0, scale_by_mu=False)
        rng = np.random.default_rng(6)
        V = rng.standard_normal((5, 5))
        state = make_two_block_state(V, cfg)
        np.testing.assert_array_equal(s0l0_c_update(state, cfg),
                                      svt_hard(V, 1.0))

    def test_pure_sparsity_degenerates_to_hollow_hard(self):
        cfg = SolverConfig(lam=0.0, tau=1.0, mu2_init=1.0, scale_by_mu=False)
        rng = np.random.default_rng(7)
        V = rng.standard_normal((5, 5)) * 2
        state = make_two_block_state(V, cfg)
        expect = entrywise_hard(V, 1.0)
        np.fill_diagonal(expect, 0.0)
        np.testing.assert_array_equal(s0l0_c_update(state, cfg), expect)

    def test_average_matches_recombination(self):
        cfg = SolverConfig(lam=0.5, mu2_init=2.0, scale_by_mu=False)
        rng = np.random.default_rng(8)
        V = rng.standard_normal((6, 6))
        state = make_two_block_state(V, cfg)
        rank_part = svt_hard(V, 0.5 / 2.0)
        sparse_part = entrywise_hard(V, 0.5 / 2.0)
        np.fill_diagonal(sparse_part, 0.0)
        np.testing.assert_allclose(s0l0_c_update(state, cfg),
                                   0.5 * rank_part + 0.5 * sparse_part,
                                   atol=1e-14)

    def test_rejects_unbalanced_weights(self):
        cfg = SolverConfig(lam=0.5, tau=0.6)
        state = S0L0State.zeros(3, cfg)
        with pytest.raises(ValueError):
            s0l0_c_update(state, cfg)


class TestDualAndSchedule:
    def test_dual_unchanged_at_consensus(self):
        cfg = SolverConfig()
        state = S0L0State.zeros(4, cfg)
        state.J = state.C = np.ones((4, 4))
        np.testing.assert_array_equal(dual_update(state), np.zeros((4, 4)))

    def test_dual_step_is_scaled_gap(self):
        M = np.arange(9.0).reshape(3, 3)
        state = S0L0State(J=M, C=np.zeros((3, 3)), Lambda=np.zeros((3, 3)), mu=2.0)
        np.testing.assert_array_equal(dual_update(state), 2.0 * M)

    def test_dual_three_block_pair(self):
        cfg = SolverConfig(mu1_init=0.5, mu2_init=4.0)
        state = SolverState.zeros(3, cfg)
        state.J = np.ones((3, 3))
        L1, L2 = dual_update(state)
        np.testing.assert_array_equal(L1, 0.5 * np.ones((3, 3)))
        np.testing.assert_array_equal(L2, 4.0 * np.ones((3, 3)))

    def test_mu_schedule(self):
        cfg = SolverConfig(rho=3.0, mu_max=1e6)
        assert mu_update(1.0, cfg) == 3.0
        assert mu_update(5e5, cfg) == 1e6
        assert mu_update(1e6, cfg) == 1e6

    def test_stopping_check_boundaries(self):
        cfg = SolverConfig(epsilon=1e-4)
        assert stopping_check((0.0, 0.0, 0.0), cfg)
        assert stopping_check((1e-4, 1e-4), cfg)  # non-strict inequality
        assert not stopping_check((2e-4, 0.0), cfg)


class TestLagrangianValue:
    def test_zero_state_zero_data(self):
        cfg = SolverConfig()
        X = np.zeros((3, 4))
        assert lagrangian_value(X, SolverState.zeros(4, cfg), cfg, GMC) == 0.0
        assert lagrangian_value(X, SolverState.zeros(4, cfg), cfg, "convex") == 0.0
        assert lagrangian_value(X, S0L0State.zeros(4, cfg), cfg, S0L0) == 0.0

    def test_convex_penalty_is_weighted_norms(self):
        cfg = SolverConfig(lam=0.4, mu2_init=2.0, scale_by_mu=True)
        lam_eff, tau_eff = effective_weights(cfg)
        rng = np.random.default_rng(9)
        C = rng.standard_normal((5, 5))
        np.fill_diagonal(C, 0.0)
        state = SolverState.zeros(5, cfg)
        state.J = state.C1 = state.C2 = C  # consensus, hollow: quadratic terms vanish
        value = lagrangian_value(np.zeros((3, 5)), state, cfg, "convex")
        nuclear = np.linalg.svd(C, compute_uv=False).sum()
        expect = lam_eff * nuclear + tau_eff * np.abs(C).sum()
        assert value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("fn", [lagrangian_value, kkt_residuals],
                             ids=["lagrangian_value", "kkt_residuals"])
    @pytest.mark.parametrize("state_cls, variant", [
        (S0L0State, GMC), (SolverState, "bogus"), (SolverState, S0L0)])
    def test_variant_state_mismatch_rejected(self, fn, state_cls, variant):
        cfg = SolverConfig()
        with pytest.raises(ValueError):
            fn(np.zeros((2, 3)), state_cls.zeros(3, cfg), cfg, variant)

    def test_two_block_state_rejects_c1_spectrum(self):
        cfg = SolverConfig()
        with pytest.raises(ValueError, match="no C1 spectrum"):
            lagrangian_value(np.zeros((2, 3)), S0L0State.zeros(3, cfg), cfg, S0L0,
                             c1_spectrum=np.zeros(3))


class TestKktResiduals:
    def test_zero_point_is_stationary(self):
        cfg = SolverConfig(gamma=0.5)
        X = np.zeros((3, 4))
        for state, variant in ((SolverState.zeros(4, cfg), GMC),
                               (SolverState.zeros(4, cfg), "convex"),
                               (S0L0State.zeros(4, cfg), S0L0)):
            kkt = kkt_residuals(X, state, cfg, variant)
            assert kkt.max_residual() == 0.0

    def test_random_state_not_stationary(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 6))
        cfg = SolverConfig(gamma=0.5)
        state = SolverState.zeros(6, cfg)
        state.J = rng.standard_normal((6, 6))
        state.C1 = rng.standard_normal((6, 6))
        state.C2 = rng.standard_normal((6, 6))
        kkt = kkt_residuals(X, state, cfg, GMC)
        assert min(kkt.r1, kkt.r2, kkt.r3, kkt.r4, kkt.r5) > 0.0

    def test_two_block_leaves_unused_slots_none(self, small_dataset):
        _, trace = s0l0_lrssc_solve(small_dataset.X, SolverConfig(max_iters=5))
        assert trace.kkt.r2 is None
        assert trace.kkt.r5 is None
        assert trace.kkt.max_residual() >= 0.0


class TestSolverRuns:
    def test_one_iteration_cap(self, small_dataset):
        for solve in (gmc_lrssc_solve, s0l0_lrssc_solve, convex_lrssc):
            C, trace = solve(small_dataset.X, SolverConfig(max_iters=1))
            assert trace.n_iters == 1
            assert trace.termination == "max_iters"
            assert trace.kkt is not None

    def test_deterministic_reruns(self, small_dataset):
        cfg = SolverConfig(max_iters=12)
        for solve in (gmc_lrssc_solve, s0l0_lrssc_solve, convex_lrssc):
            C_a, t_a = solve(small_dataset.X, cfg)
            C_b, t_b = solve(small_dataset.X, cfg)
            np.testing.assert_array_equal(C_a, C_b)
            assert t_a.r_jc1 == t_b.r_jc1
            assert t_a.r_jj == t_b.r_jj
            assert t_a.lagrangian == t_b.lagrangian

    def test_mu_sequence_is_capped_geometric(self, small_dataset):
        cfg = SolverConfig(mu1_init=0.1, mu2_init=5.0, rho=3.0, mu_max=100.0,
                           max_iters=10, epsilon=1e-300)

        def expected(init, n):
            out, mu = [], init
            for _ in range(n):
                out.append(mu)
                mu = min(3.0 * mu, 100.0)
            return out

        _, trace = gmc_lrssc_solve(small_dataset.X, cfg)
        assert trace.mu1 == expected(0.1, trace.n_iters)
        assert trace.mu2 == expected(5.0, trace.n_iters)
        _, trace2 = s0l0_lrssc_solve(small_dataset.X, cfg)
        assert trace2.mu2 == expected(5.0, trace2.n_iters)
        assert trace2.mu1 is None

    def test_trace_lengths_consistent(self, small_dataset):
        _, trace = gmc_lrssc_solve(small_dataset.X, SolverConfig(max_iters=7,
                                                                 epsilon=1e-300))
        n = trace.n_iters
        assert n == 7
        assert len(trace.r_jc1) == len(trace.r_jc2) == len(trace.r_jj) == n
        assert len(trace.lagrangian) == len(trace.mu1) == len(trace.mu2) == n

    @pytest.mark.parametrize("variant", [GMC, CONVEX])
    def test_three_block_loop_matches_manual_redrive(self, small_dataset, variant):
        """Re-driving the update steps reproduces the solver exactly."""
        from lrssc.solvers import _convex_c1_step, _convex_c2_update
        X = small_dataset.X
        cfg = SolverConfig(max_iters=6, epsilon=1e-300)
        if variant == GMC:
            C_solver, trace = gmc_lrssc_solve(X, cfg)
            c1_update, c2_update = gmc_c1_update, gmc_c2_update
        else:
            C_solver, trace = convex_lrssc(X, cfg)
            c1_update = lambda s, c: _convex_c1_step(s, c)[0]
            c2_update = _convex_c2_update

        gram = GramSolver(X)
        state = SolverState.zeros(X.shape[1], cfg)
        for _ in range(cfg.max_iters):
            state.J = j_update(X, state, gram)
            if cfg.normalize_j:
                state.J = normalize_columns(state.J)
            state.C1 = c1_update(state, cfg)
            state.C2 = c2_update(state, cfg)
            state.Lambda1, state.Lambda2 = dual_update(state)
            state.mu1 = mu_update(state.mu1, cfg)
            state.mu2 = mu_update(state.mu2, cfg)
        np.testing.assert_array_equal(C_solver, state.C1)
        assert trace.n_iters == cfg.max_iters

    def test_two_block_loop_matches_manual_redrive(self, small_dataset):
        X = small_dataset.X
        cfg = SolverConfig(lam=0.5, max_iters=6, epsilon=1e-300)
        C_solver, _ = s0l0_lrssc_solve(X, cfg)

        gram = GramSolver(X)
        state = S0L0State.zeros(X.shape[1], cfg)
        for _ in range(cfg.max_iters):
            state.J = j_update(X, state, gram)
            if cfg.normalize_j:
                state.J = normalize_columns(state.J)
            state.C = s0l0_c_update(state, cfg)
            state.Lambda = dual_update(state)
            state.mu = mu_update(state.mu, cfg)
        np.testing.assert_array_equal(C_solver, state.C)

    @pytest.mark.parametrize("variant", [GMC, CONVEX])
    def test_trace_lagrangian_matches_svd_oracle(self, small_dataset, variant):
        """The loop's Lagrangian, built from the C1 step's spectrum, matches the
        value lagrangian_value computes from its own SVD of C1."""
        from lrssc.solvers import _convex_c1_step, _convex_c2_update
        X = small_dataset.X
        cfg = SolverConfig(max_iters=6, epsilon=1e-300)
        if variant == GMC:
            _, trace = gmc_lrssc_solve(X, cfg)
            c1_update, c2_update = gmc_c1_update, gmc_c2_update
        else:
            _, trace = convex_lrssc(X, cfg)
            c1_update = lambda s, c: _convex_c1_step(s, c)[0]
            c2_update = _convex_c2_update
        assert trace.n_iters == cfg.max_iters

        gram = GramSolver(X)
        state = SolverState.zeros(X.shape[1], cfg)
        for k in range(cfg.max_iters):
            state.J = j_update(X, state, gram)
            if cfg.normalize_j:
                state.J = normalize_columns(state.J)
            state.C1 = c1_update(state, cfg)
            state.C2 = c2_update(state, cfg)
            state.Lambda1, state.Lambda2 = dual_update(state)
            oracle = lagrangian_value(X, state, cfg, variant)
            assert trace.lagrangian[k] == pytest.approx(oracle, rel=1e-12)
            state.mu1 = mu_update(state.mu1, cfg)
            state.mu2 = mu_update(state.mu2, cfg)

    @pytest.mark.parametrize("solve, svds_per_iter", [
        (gmc_lrssc_solve, 0), (convex_lrssc, 0), (s0l0_lrssc_solve, 1)])
    def test_svd_count(self, small_dataset, monkeypatch, solve, svds_per_iter):
        """Every run does k + 2 symmetric eigendecompositions: X^T X, the SVT
        of each iteration (through the Gram matrix) and the SVT in the C map
        of the exit KKT.  Two-block runs also pay one SVD per iteration, for
        the Lagrangian's rank count."""
        calls = {"svd": 0, "eigh": 0}

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        k = 4
        _, trace = solve(small_dataset.X, SolverConfig(max_iters=k, epsilon=1e-300))
        assert trace.n_iters == k
        assert calls == {"svd": svds_per_iter * k, "eigh": k + 2}

    @pytest.mark.parametrize("dataset", ["small_dataset", "bench_dataset"])
    @pytest.mark.parametrize("solve", [gmc_lrssc_solve, convex_lrssc, s0l0_lrssc_solve])
    def test_gram_svt_matches_svd_path(self, request, monkeypatch, dataset, solve):
        """Whole solves agree with solves whose every SVT runs on the SVD."""
        import lrssc.prox as prox_module
        ds = request.getfixturevalue(dataset)
        n_clusters = int(ds.truth.max()) + 1
        runs = []
        for _ in range(2):
            C, trace = solve(ds.X, SolverConfig())
            labels = spectral_cluster(build_affinity(C), n_clusters=n_clusters, seed=0)
            runs.append((C, trace, labels))
            monkeypatch.setattr(
                prox_module, "_svt",
                lambda M, shrink, dead_zone, return_spectrum:
                    prox_module._svt_gesdd(M, shrink, return_spectrum))
        (C, trace, labels), (C_ref, trace_ref, labels_ref) = runs
        assert np.linalg.norm(C - C_ref) <= 1e-10 * np.linalg.norm(C_ref)
        np.testing.assert_array_equal(labels, labels_ref)
        assert trace.n_iters == trace_ref.n_iters
        assert trace.termination == trace_ref.termination
        assert trace.mu1 == trace_ref.mu1
        assert trace.mu2 == trace_ref.mu2

    def test_hollow_diagonal_every_iteration(self, small_dataset):
        """The sparse block keeps an exactly zero diagonal at every step."""
        X = small_dataset.X
        cfg = SolverConfig(max_iters=8, epsilon=1e-300)
        gram = GramSolver(X)
        state = SolverState.zeros(X.shape[1], cfg)
        for _ in range(cfg.max_iters):
            state.J = normalize_columns(j_update(X, state, gram))
            state.C1 = gmc_c1_update(state, cfg)
            state.C2 = gmc_c2_update(state, cfg)
            np.testing.assert_array_equal(np.diag(state.C2), 0.0)
            state.Lambda1, state.Lambda2 = dual_update(state)
            state.mu1 = mu_update(state.mu1, cfg)
            state.mu2 = mu_update(state.mu2, cfg)

    def test_sparse_dual_entries_bounded_by_weight(self, small_dataset):
        """Off-diagonal entries of the sparse-block multiplier never exceed
        the effective sparsity weight (the penalty's slope bound)."""
        X = small_dataset.X
        cfg = SolverConfig(max_iters=12, epsilon=1e-300)
        _, tau_eff = effective_weights(cfg)
        gram = GramSolver(X)
        state = SolverState.zeros(X.shape[1], cfg)
        off_diag = ~np.eye(X.shape[1], dtype=bool)
        for _ in range(cfg.max_iters):
            state.J = normalize_columns(j_update(X, state, gram))
            state.C1 = gmc_c1_update(state, cfg)
            state.C2 = gmc_c2_update(state, cfg)
            state.Lambda1, state.Lambda2 = dual_update(state)
            assert np.abs(state.Lambda2[off_diag]).max() <= tau_eff * (1 + 1e-8)
            state.mu1 = mu_update(state.mu1, cfg)
            state.mu2 = mu_update(state.mu2, cfg)

    def test_dual_step_small_after_convergence(self, small_dataset):
        """A converged run's final multiplier step is bounded by mu_max * eps."""
        X = small_dataset.X
        cfg = SolverConfig(lam=0.5)
        C, trace = s0l0_lrssc_solve(X, cfg)
        assert trace.termination == "converged"
        # the last consensus gap is what the final dual step scales
        assert trace.mu2[-1] * trace.r_jc1[-1] <= cfg.mu_max * cfg.epsilon

    def test_gamma_one_substitution_flagged(self, small_dataset):
        _, trace = gmc_lrssc_solve(small_dataset.X,
                                   SolverConfig(gamma=1.0, max_iters=3))
        assert trace.gamma_substituted
        _, trace2 = gmc_lrssc_solve(small_dataset.X,
                                    SolverConfig(gamma=0.5, max_iters=3))
        assert not trace2.gamma_substituted

    def test_pure_rank_two_block_runs(self, small_dataset):
        C, trace = s0l0_lrssc_solve(small_dataset.X,
                                    SolverConfig(lam=1.0, tau=0.0, max_iters=20))
        assert np.all(np.isfinite(C))
        assert trace.n_iters >= 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gmc_lrssc_solve(np.ones((3, 1)), SolverConfig())  # one column
        with pytest.raises(ValueError):
            gmc_lrssc_solve(np.ones(5), SolverConfig())  # not a matrix
        bad = np.ones((3, 4))
        bad[1, 2] = np.inf
        with pytest.raises(ValueError):
            s0l0_lrssc_solve(bad, SolverConfig(lam=0.5))

    def test_s0l0_rejects_unbalanced_weights(self, small_dataset):
        with pytest.raises(ValueError):
            s0l0_lrssc_solve(small_dataset.X, SolverConfig(lam=0.5, tau=0.6))

    def test_gmc_rejects_degenerate_weights(self, small_dataset):
        with pytest.raises(ValueError):
            gmc_lrssc_solve(small_dataset.X, SolverConfig(lam=1.0))  # tau = 0

    def test_partial_trace_preserved_on_numerical_failure(self, small_dataset,
                                                          monkeypatch):
        import lrssc.prox as prox_module
        real = prox_module.svt_firm
        calls = {"n": 0}

        def failing(M, params, **kw):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericalError("synthetic failure")
            return real(M, params, **kw)

        monkeypatch.setattr(prox_module, "svt_firm", failing)
        with pytest.raises(NumericalError) as excinfo:
            gmc_lrssc_solve(small_dataset.X, SolverConfig(max_iters=10))
        assert excinfo.value.trace is not None
        assert excinfo.value.trace.n_iters == 2  # two completed iterations

    def test_per_iteration_cost_grows_with_problem_size(self):
        import time
        rng = np.random.default_rng(11)
        times = []
        for n_points in (40, 160):
            X = rng.standard_normal((20, n_points))
            cfg = SolverConfig(max_iters=3, epsilon=1e-300)
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                gmc_lrssc_solve(X, cfg)
                best = min(best, time.perf_counter() - start)
            times.append(best)
        assert times[1] > times[0]


class TestDescentChain:
    def test_block_updates_never_increase_frozen_lagrangian(self, small_dataset):
        """With multipliers and mu frozen, each block update is a descent step."""
        from lrssc.solvers import _gmc_c1_update, _gmc_c2_update

        X = small_dataset.X
        cfg = SolverConfig(gamma=0.6, normalize_j=False, epsilon=1e-300)
        gram = GramSolver(X)
        state = SolverState.zeros(X.shape[1], cfg)
        for _ in range(10):
            L_start = lagrangian_value(X, state, cfg, GMC)
            state_j = replace(state, J=j_update(X, state, gram))
            L_j = lagrangian_value(X, state_j, cfg, GMC)
            C1_new, _ = _gmc_c1_update(state_j, cfg)
            state_c1 = replace(state_j, C1=C1_new)
            L_c1 = lagrangian_value(X, state_c1, cfg, GMC)
            C2_new, _ = _gmc_c2_update(state_c1, cfg)
            state = replace(state_c1, C2=C2_new)
            L_c2 = lagrangian_value(X, state, cfg, GMC)

            scale = max(abs(L_start), abs(L_j), abs(L_c1), abs(L_c2), 1.0)
            assert L_j <= L_start + 1e-8 * scale
            assert L_c1 <= L_j + 1e-8 * scale
            assert L_c2 <= L_c1 + 1e-8 * scale

            state.Lambda1, state.Lambda2 = dual_update(state)
            state.mu1 = mu_update(state.mu1, cfg)
            state.mu2 = mu_update(state.mu2, cfg)
