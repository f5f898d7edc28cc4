"""ADMM solver pieces and full runs: update steps, traces, and diagnostics.

Several tests re-drive the iteration loop out of the J, dual and mu steps
of ``lrssc.solvers`` and each algorithm's one C step, the per-split
``c_map`` of each of its ``ALGORITHMS`` record's ``splits``, and check the
result against the packaged solvers bit for bit; that pins the update order
(J, then the C blocks, then the multipliers, then mu).
"""

import itertools
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

from lrssc import (
    NumericalError,
    SolverConfig,
    SyntheticSpec,
    build_affinity,
    convex_lrssc,
    generate_synthetic,
    gmc_lrssc_solve,
    prox,
    s0l0_lrssc_solve,
    solvers,
    spectral_cluster,
    svt_hard,
)
from lrssc.prox import entrywise_hard
from lrssc.solvers import (
    ALGORITHMS,
    CONVEX,
    GMC,
    S0L0,
    GramSolver,
    Split,
    State,
    dual_update,
    effective_weights,
    j_update,
    kkt_residuals,
    lagrangian_value,
    mu_update,
    normalize_columns,
    stopping_check,
)

from conftest import eigh_gram_j_update, peak_arrays, replaced_state

def redrive(X, name, cfg):
    """Re-drive the loop of ALGORITHMS[name] from the exported pieces and its
    record's C maps; after each dual step, before mu grows, yield the state
    and the stats of each split's C map (the C1 spectrum and None, or
    s0l0's counts)."""
    algorithm = ALGORITHMS[name]
    gram = GramSolver(X)
    state = zero_state(name, X.shape[1], cfg)
    for _ in range(cfg.max_iters):
        state.J = j_update(X, state, gram)
        if cfg.normalize_j:
            state.J = normalize_columns(state.J)
        c_stats = []
        for split, (_, c_map) in zip(state.splits, algorithm.splits, strict=True):
            split.C, stats = c_map(state.J, split, cfg)
            c_stats.append(stats)
        for split, Lambda in zip(state.splits, dual_update(state), strict=True):
            split.Lambda = Lambda
        yield state, c_stats
        for split in state.splits:
            split.mu = mu_update(split.mu, cfg)


def c_blocks(name, state, cfg):
    """The new C of each split, in update order, from ALGORITHMS[name]'s C maps."""
    return [c_map(state.J, split, cfg)[0]
            for split, (_, c_map) in zip(state.splits, ALGORITHMS[name].splits, strict=True)]


def zero_state(name, n, cfg):
    """The all-zero State that ALGORITHMS[name]'s loop starts from."""
    return State.zeros(n, [getattr(cfg, field) for field, _ in ALGORITHMS[name].splits])


def random_state(mus, n, seed):
    """A State with one split per mu in ``mus`` and Gaussian J, blocks and multipliers."""
    rng = np.random.default_rng(seed)
    block = lambda: rng.standard_normal((n, n))
    return State(J=block(), splits=[Split(C=block(), Lambda=block(), mu=mu) for mu in mus])


def step_duals(state, cfg):
    """The loop's dual step, then its mu step, on every split of ``state``."""
    for split, Lambda in zip(state.splits, dual_update(state), strict=True):
        split.Lambda = Lambda
        split.mu = mu_update(split.mu, cfg)


# the mu values of random_state's two-split and one-split states
TWO_SPLITS, ONE_SPLIT = (0.7, 2.3), (1.7,)
# test ids of a state by its split count: the names of the three-block and
# two-block state classes that State replaced, so that test ids stay stable
STATE_IDS = {2: "SolverState", 1: "S0L0State"}


def registry_config(name, **overrides):
    """SolverConfig of ALGORITHMS[name]'s tuned defaults plus overrides."""
    return SolverConfig(**{**ALGORITHMS[name].defaults, **overrides})


def full_residual_lagrangian(X, state, penalty):
    """1/2 ||X - XJ||^2 + penalty + sum_k (mu_k/2 ||J - C_k||^2 + <Lambda_k, J - C_k>),
    every residual J - C_k whole, its diagonal included."""
    value = 0.5 * np.linalg.norm(X - X @ state.J) ** 2 + penalty
    for split in state.splits:
        R = state.J - split.C
        value += 0.5 * split.mu * np.sum(R * R) + np.sum(split.Lambda * R)
    return value


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
        dict(max_iters=2.5),
        dict(max_iters=3.0),
        dict(max_iters=True),
        dict(normalize_j=2),
        dict(normalize_j="no"),
        dict(lam="0.5"),
    ])
    def test_rejects_invalid_settings(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", [f.name for f in fields(SolverConfig)
                                      if f.name != "normalize_j"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            SolverConfig(**{name: value})

    def test_every_tune_cell_passes_its_settings_rule(self):
        """Each record's grid, from the base config ``lrssc tune`` starts at,
        gives only configs that record's own check accepts."""
        base = SolverConfig(mu2_init=5.0)
        cells = 0
        for name, algorithm in ALGORITHMS.items():
            grid = algorithm.grid
            for lam, gamma, mu in itertools.product(grid.lambdas, grid.gammas or (base.gamma,),
                                                    grid.mu_inits):
                algorithm.check(replace(base, lam=lam, tau=1.0 - lam, gamma=gamma,
                                        mu2_init=mu))
                cells += 1
        assert cells == 7 * 10 * 5 + 7 * 5 + 9 * 5  # gmc, lrssc-convex, s0l0

    def test_effective_weights_scaling(self):
        cfg = SolverConfig(lam=0.25, mu2_init=4.0)
        assert effective_weights(cfg) == (pytest.approx(1.0), pytest.approx(3.0))


class TestJUpdate:
    def test_zero_data_returns_average_of_blocks(self):
        """Zero data as the solve sees it: GramSolver rejects an all-zero X,
        so X is 1e-200 everywhere, whose squared singular values and X^T X
        underflow to 0.0."""
        cfg = SolverConfig(mu1_init=2.0, mu2_init=3.0)
        state = zero_state(GMC, 4, cfg)
        A = np.arange(16.0).reshape(4, 4)
        for split in state.splits:
            split.C = A.copy()
        X = 1e-200 * np.ones((3, 4))
        assert not np.any(GramSolver(X).s2)
        J = j_update(X, state)
        np.testing.assert_allclose(J, A, atol=1e-12)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 9))
        cfg = SolverConfig(mu1_init=0.7, mu2_init=2.3)
        state = zero_state(GMC, 9, cfg)
        for split in state.splits:
            split.C = rng.standard_normal((9, 9))
            split.Lambda = rng.standard_normal((9, 9))
        J = j_update(X, state)
        gram = X.T @ X
        (C1, L1, mu1), (C2, L2, mu2) = [(s.C, s.Lambda, s.mu) for s in state.splits]
        rhs = gram + mu1 * C1 + mu2 * C2 - L1 - L2
        lhs = (gram + (mu1 + mu2) * np.eye(9)) @ J
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_large_mu_pins_j_to_consensus(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 7))
        C = rng.standard_normal((7, 7))
        state = State(J=np.zeros((7, 7)), splits=[
            Split(C=C, Lambda=np.zeros((7, 7)), mu=1e8) for _ in range(2)])
        J = j_update(X, state)
        assert np.abs(J - C).max() <= 1e-6

    def test_two_block_form(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        split = Split(C=rng.standard_normal((6, 6)), Lambda=rng.standard_normal((6, 6)), mu=1.7)
        state = State(J=np.zeros((6, 6)), splits=[split])
        J = j_update(X, state)
        gram = X.T @ X
        rhs = gram + split.mu * split.C - split.Lambda
        lhs = (gram + split.mu * np.eye(6)) @ J
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_rejects_nonpositive_mu(self):
        state = State.zeros(2, [0.0])
        with pytest.raises(ValueError):
            j_update(np.eye(2), state)

    def test_gram_solver_reuse_matches_fresh_solve(self):
        rng = np.random.default_rng(3)
        for shape in ((5, 8), (8, 8), (12, 8)):  # wide, square, tall
            X = rng.standard_normal(shape)
            gram = GramSolver(X)
            for mus in (TWO_SPLITS, ONE_SPLIT):
                for seed in range(3):
                    state = random_state(mus, 8, seed)
                    np.testing.assert_array_equal(j_update(X, state, gram), j_update(X, state))

    @pytest.mark.parametrize("mus", [TWO_SPLITS, ONE_SPLIT], ids=lambda mus: STATE_IDS[len(mus)])
    @pytest.mark.parametrize("case", ["wide", "square", "tall", "rank_deficient", "zero"])
    def test_matches_eigh_of_gram_oracle(self, bench_dataset, mus, case):
        """The thin-SVD solve agrees with the solve through eigh(X^T X) on every
        shape of X, including a noiseless rank-10 X and a rank-1 X of 1e-200
        entries, whose X^T X underflows to zero (GramSolver rejects an
        all-zero X)."""
        rng = np.random.default_rng(5)
        X = {"wide": lambda: rng.standard_normal((20, 50)),
             "square": lambda: rng.standard_normal((50, 50)),
             "tall": lambda: rng.standard_normal((80, 50)),
             "rank_deficient": lambda: bench_dataset.X[:, ::3],
             "zero": lambda: 1e-200 * np.ones((20, 50))}[case]()
        rank = {"rank_deficient": 10, "zero": 1}.get(case, min(X.shape))
        assert np.linalg.matrix_rank(X) == rank
        assert np.any(X.T @ X) == (case != "zero")
        for seed in range(3):
            state = random_state(mus, 50, seed)
            J = j_update(X, state)
            oracle = eigh_gram_j_update(X, state)
            assert np.linalg.norm(J - oracle) <= 1e-12 * np.linalg.norm(oracle)


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


def make_three_block_state(J, cfg, Lambda2=None):
    state = zero_state(GMC, J.shape[0], cfg)
    state.J = np.asarray(J, dtype=float)
    if Lambda2 is not None:
        state.splits[1].Lambda = np.asarray(Lambda2, dtype=float)
    return state


class TestCUpdates:
    def test_gmc_c1_firm_spectrum(self):
        # threshold lam_eff/mu1 = 1 and knee lam/(gamma*mu1) = 2
        cfg = SolverConfig(lam=1.0, tau=0.5, gamma=0.5, mu1_init=1.0, mu2_init=1.0)
        state = make_three_block_state(np.diag([1.5, 0.5]), cfg)
        np.testing.assert_allclose(c_blocks(GMC, state, cfg)[0],
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_gmc_c1_zero_state(self):
        cfg = SolverConfig(gamma=0.5)
        state = zero_state(GMC, 3, cfg)
        np.testing.assert_array_equal(c_blocks(GMC, state, cfg)[0], np.zeros((3, 3)))

    def test_gmc_c2_firm_entries_and_hollow_diagonal(self):
        cfg = SolverConfig(lam=0.5, tau=1.0, gamma=0.5, mu1_init=1.0, mu2_init=1.0)
        state = make_three_block_state(np.array([[0.0, 1.5], [5.0, 0.0]]), cfg)
        np.testing.assert_allclose(c_blocks(GMC, state, cfg)[1],
                                   np.array([[0.0, 1.0], [5.0, 0.0]]), atol=1e-12)

    def test_gmc_c2_small_entries_vanish(self):
        cfg = SolverConfig(lam=0.5, tau=1.0, gamma=0.5, mu1_init=1.0, mu2_init=1.0)
        state = make_three_block_state(np.full((3, 3), 0.9), cfg)
        np.testing.assert_array_equal(c_blocks(GMC, state, cfg)[1], np.zeros((3, 3)))

    def test_gmc_c2_diagonal_always_zero(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig(gamma=0.6)
        state = make_three_block_state(rng.standard_normal((5, 5)) * 3, cfg,
                                       Lambda2=rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(np.diag(c_blocks(GMC, state, cfg)[1]), 0.0)

    def test_gmc_updates_reject_zero_gamma(self):
        # gamma = 0 is a legal setting (lrssc-convex ignores gamma) but not a
        # firm prox: gmc's settings rule rejects it before any C map runs
        bad = SolverConfig(gamma=0.0)
        state = zero_state(GMC, 3, bad)
        with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\] for firm-threshold"):
            kkt_residuals(np.zeros((2, 3)), state, bad, GMC)


def make_two_block_state(V, cfg):
    state = zero_state(S0L0, V.shape[0], cfg)
    state.J = np.asarray(V, dtype=float)
    return state


class TestS0L0Update:
    def test_pure_rank_degenerates_to_svt(self):
        cfg = SolverConfig(lam=1.0, tau=0.0, mu2_init=1.0)
        rng = np.random.default_rng(6)
        V = rng.standard_normal((5, 5))
        state = make_two_block_state(V, cfg)
        np.testing.assert_array_equal(c_blocks(S0L0, state, cfg)[0],
                                      svt_hard(V, 1.0))

    def test_pure_sparsity_degenerates_to_hollow_hard(self):
        cfg = SolverConfig(lam=0.0, tau=1.0, mu2_init=1.0)
        rng = np.random.default_rng(7)
        V = rng.standard_normal((5, 5)) * 2
        state = make_two_block_state(V, cfg)
        expect = entrywise_hard(V, 1.0)
        np.fill_diagonal(expect, 0.0)
        np.testing.assert_array_equal(c_blocks(S0L0, state, cfg)[0], expect)

    def test_average_matches_recombination(self):
        cfg = SolverConfig(lam=0.5, mu2_init=2.0)
        rng = np.random.default_rng(8)
        V = rng.standard_normal((6, 6))
        state = make_two_block_state(V, cfg)
        # each threshold is (weight * mu2_init) / mu = 0.5 * 2 / 2
        rank_part = svt_hard(V, 0.5)
        sparse_part = entrywise_hard(V, 0.5)
        np.fill_diagonal(sparse_part, 0.0)
        np.testing.assert_allclose(c_blocks(S0L0, state, cfg)[0],
                                   0.5 * rank_part + 0.5 * sparse_part,
                                   atol=1e-14)

    def test_rejects_unbalanced_weights(self):
        # the proximal average's rule, lam + tau = 1, is checked before its C map runs
        cfg = SolverConfig(lam=0.5, tau=0.6)
        state = zero_state(S0L0, 3, cfg)
        with pytest.raises(ValueError, match=r"^needs lam \+ tau = 1"):
            kkt_residuals(np.zeros((2, 3)), state, cfg, S0L0)


class TestDualAndSchedule:
    def test_dual_unchanged_at_consensus(self):
        cfg = SolverConfig()
        state = zero_state(S0L0, 4, cfg)
        state.J = state.splits[0].C = np.ones((4, 4))
        np.testing.assert_array_equal(dual_update(state), [np.zeros((4, 4))])

    def test_dual_step_is_scaled_gap(self):
        M = np.arange(9.0).reshape(3, 3)
        state = State.zeros(3, [2.0])
        state.J = M
        np.testing.assert_array_equal(dual_update(state), [2.0 * M])

    def test_dual_three_block_pair(self):
        cfg = SolverConfig(mu1_init=0.5, mu2_init=4.0)
        state = zero_state(GMC, 3, cfg)
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
        for name in ALGORITHMS:
            # s0l0 needs its C step's counts: rank 0 and nnz 0 at C = 0
            c_stats = ((0, 0),) if name == S0L0 else None
            assert lagrangian_value(X, zero_state(name, 4, cfg), cfg, name,
                                    c_stats=c_stats) == 0.0

    def test_convex_penalty_is_weighted_norms(self):
        cfg = SolverConfig(lam=0.4, mu2_init=2.0)
        lam_eff, tau_eff = effective_weights(cfg)
        rng = np.random.default_rng(9)
        C = rng.standard_normal((5, 5))
        np.fill_diagonal(C, 0.0)
        state = zero_state(CONVEX, 5, cfg)
        state.J = C
        for split in state.splits:
            split.C = C  # consensus, hollow: quadratic terms vanish
        value = lagrangian_value(np.zeros((3, 5)), state, cfg, CONVEX)
        nuclear = np.linalg.svd(C, compute_uv=False).sum()
        expect = lam_eff * nuclear + tau_eff * np.abs(C).sum()
        assert value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("fn", [lagrangian_value, kkt_residuals],
                             ids=["lagrangian_value", "kkt_residuals"])
    @pytest.mark.parametrize("n_splits, variant", [
        pytest.param(n_splits, variant, id=f"{STATE_IDS[n_splits]}-{variant}")
        for n_splits, variant in [(3 - len(algorithm.splits), name)
                                  for name, algorithm in ALGORITHMS.items()]
        + [(2, "bogus"), (2, "convex")]])
    def test_variant_state_mismatch_rejected(self, fn, n_splits, variant):
        """A state whose split count is not the variant's is rejected by name."""
        cfg = SolverConfig()
        expect = (re.escape(f"variant '{variant}' needs a state with "
                            f"{len(ALGORITHMS[variant].splits)} split(s), got {n_splits}")
                  if variant in ALGORITHMS else f"unknown variant '{variant}'")
        with pytest.raises(ValueError, match=expect):
            fn(np.zeros((2, 3)), State.zeros(3, [1.0] * n_splits), cfg, variant)

    def test_two_block_state_rejects_c1_spectrum(self):
        """s0l0's penalty needs its C step's (rank, nnz): neither a missing
        value nor a C1 spectrum stands in for them."""
        cfg = SolverConfig()
        state = zero_state(S0L0, 3, cfg)
        with pytest.raises(ValueError, match=r"needs the \(rank, nnz\) counts"):
            lagrangian_value(np.zeros((2, 3)), state, cfg, S0L0)
        with pytest.raises(ValueError):
            lagrangian_value(np.zeros((2, 3)), state, cfg, S0L0, c_stats=np.zeros(3))

    def test_gmc_terms_take_the_whole_residual_of_every_split(self):
        """A C2 with a nonzero diagonal keeps it in J - C2: the value is the
        formula with the scaled MC penalty, b_k = sqrt(mu_k gamma / weight_k),
        and each split's residual whole."""
        cfg = SolverConfig(gamma=0.6)
        X = np.random.default_rng(3).standard_normal((4, 6))
        state = random_state(TWO_SPLITS, 6, seed=11)
        low_rank, sparse = state.splits
        assert np.all(np.diag(sparse.C) != 0.0)
        penalty = sum(
            weight * np.sum(prox.scaled_mc_penalty(z, math.sqrt(split.mu * cfg.gamma / weight)))
            for weight, z, split in zip(
                effective_weights(cfg),
                (np.linalg.svd(low_rank.C, compute_uv=False), sparse.C), state.splits))
        assert lagrangian_value(X, state, cfg, GMC) == pytest.approx(
            full_residual_lagrangian(X, state, penalty), rel=1e-12)


# A config each record's settings rule rejects.
REJECTED = {GMC: dict(gamma=0.0), S0L0: dict(lam=0.3, tau=0.3), CONVEX: dict(lam=0.0)}


class TestGate:
    """lagrangian_value and kkt_residuals enter a record's steps through one
    gate, which applies that record's own settings rule and a positive mu."""

    @pytest.mark.parametrize("probe", [lagrangian_value, kkt_residuals],
                             ids=["lagrangian_value", "kkt_residuals"])
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_probes_apply_the_record_rule_and_a_positive_mu(self, probe, name):
        bad = SolverConfig(**REJECTED[name])
        with pytest.raises(ValueError) as rule:
            ALGORITHMS[name].check(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(rule.value))}$"):
            probe(np.zeros((2, 8)), zero_state(name, 8, bad), bad, name)
        cfg = registry_config(name)
        for k in range(len(ALGORITHMS[name].splits)):
            state = zero_state(name, 3, cfg)
            state.splits[k].mu = 0.0
            with pytest.raises(ValueError, match="^every mu must be positive$"):
                probe(np.zeros((2, 3)), state, cfg, name)


def _record_prox_calls(monkeypatch, name, pick, log):
    """Wrap prox.<name> so that each call appends pick(*args) to log."""
    real = getattr(prox, name)

    def recorded(*args, **kwargs):
        log.append(pick(*args))
        return real(*args, **kwargs)
    monkeypatch.setattr(prox, name, recorded)


class TestMcShape:
    """The firm knees of the gmc steps and the b of the gmc penalty follow mu by
    one rule, so each split's knee * b^2 is 1 (1 + the knee nudge at gamma = 1)."""

    @pytest.mark.parametrize("gamma, product", [(0.3, 1.0), (0.5, 1.0), (1.0, 1.0 + 1e-9)])
    @pytest.mark.parametrize("mu", [0.1, 3.0, 81.0, 1e6])
    def test_knee_times_b_squared(self, monkeypatch, gamma, product, mu):
        cfg = SolverConfig(lam=0.4, gamma=gamma, mu2_init=3.0)
        state = State.zeros(4, [mu, 2.0 * mu])
        knees, bs = [], []
        _record_prox_calls(monkeypatch, "svt_firm", lambda M, params: params.a, knees)
        _record_prox_calls(monkeypatch, "entrywise_firm", lambda M, params: params.a, knees)
        _record_prox_calls(monkeypatch, "gmc_penalty_separable", lambda z, b: b, bs)
        c_blocks(GMC, state, cfg)
        lagrangian_value(np.zeros((2, 4)), state, cfg, GMC)
        assert len(knees) == len(bs) == 2
        for knee, b in zip(knees, bs):
            assert knee * b * b == pytest.approx(product, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kwargs", [dict(lam=1.0), dict(lam=0.0), dict(gamma=0.0)])
    def test_gmc_penalty_rejects_zero_weight_or_gamma(self, kwargs):
        """gmc's b needs both weights positive and gamma in (0, 1]: its settings
        rule rejects the rest at the gate.  lrssc-convex's rule needs the
        weights positive too, but its b = 0 penalty takes any gamma."""
        cfg = SolverConfig(**kwargs)
        X = np.zeros((2, 3))
        weights = r"^needs lam > 0 and tau > 0"
        with pytest.raises(ValueError,
                           match=r"^gamma must lie in \(0, 1\]" if "gamma" in kwargs else weights):
            lagrangian_value(X, zero_state(GMC, 3, cfg), cfg, GMC)
        if "gamma" in kwargs:
            assert lagrangian_value(X, zero_state(CONVEX, 3, cfg), cfg, CONVEX) == 0.0
        else:
            with pytest.raises(ValueError, match=weights):
                lagrangian_value(X, zero_state(CONVEX, 3, cfg), cfg, CONVEX)


class TestKktResiduals:
    def test_zero_point_is_stationary(self):
        cfg = SolverConfig(gamma=0.5)
        X = np.zeros((3, 4))
        for name in ALGORITHMS:
            kkt = kkt_residuals(X, zero_state(name, 4, cfg), cfg, name)
            assert kkt.max_residual() == 0.0

    def test_random_state_not_stationary(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 6))
        cfg = SolverConfig(gamma=0.5)
        state = zero_state(GMC, 6, cfg)
        state.J = rng.standard_normal((6, 6))
        for split in state.splits:
            split.C = rng.standard_normal((6, 6))
        kkt = kkt_residuals(X, state, cfg, GMC)
        assert len(kkt.gaps) == len(kkt.fixed) == 2
        assert min(*kkt.gaps, kkt.grad, *kkt.fixed) > 0.0

    def test_two_block_has_one_residual_per_split(self, small_dataset):
        """s0l0 has one split: one gap, one fixed-point residual, one mu series."""
        _, trace = s0l0_lrssc_solve(small_dataset.X, SolverConfig(lam=0.5, max_iters=5))
        assert len(trace.kkt.gaps) == len(trace.kkt.fixed) == 1
        assert len(trace.mu) == len(trace.r_jc) == 1
        assert len(trace.mu[0]) == len(trace.r_jc[0]) == trace.n_iters == 5
        assert trace.kkt.max_residual() == max(*trace.kkt.gaps, trace.kkt.grad,
                                               *trace.kkt.fixed)


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
            assert t_a.r_jc == t_b.r_jc
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
        assert trace.mu == [expected(0.1, trace.n_iters), expected(5.0, trace.n_iters)]
        _, trace2 = s0l0_lrssc_solve(small_dataset.X, cfg)
        assert trace2.mu == [expected(5.0, trace2.n_iters)]

    def test_trace_lengths_consistent(self, small_dataset):
        _, trace = gmc_lrssc_solve(small_dataset.X, SolverConfig(max_iters=7,
                                                                 epsilon=1e-300))
        n = trace.n_iters
        assert n == 7
        assert len(trace.r_jc) == len(trace.mu) == 2
        assert all(len(series) == n for series in trace.r_jc + trace.mu)
        assert len(trace.r_jj) == len(trace.lagrangian) == n

    @pytest.mark.parametrize("name, overrides", [
        *[pytest.param(name, {}, id=name) for name in ALGORITHMS],
        pytest.param(S0L0, {"mu2_init": 3.0}, id="s0l0-mu2_init3")])
    def test_loop_matches_manual_redrive(self, small_dataset, name, overrides):
        """Re-driving a record's C maps between the exported J, dual and mu
        steps reproduces its solver exactly, at its tuned defaults and, for
        s0l0, also at SolverConfig(lam=0.5), whose mu2_init is 3."""
        X = small_dataset.X
        cfg = registry_config(name, **overrides, max_iters=6, epsilon=1e-300)
        C_solver, trace = ALGORITHMS[name].solve(X, cfg)
        for state, _ in redrive(X, name, cfg):
            pass
        np.testing.assert_array_equal(C_solver, state.splits[0].C)
        assert trace.n_iters == cfg.max_iters

    @pytest.mark.parametrize("variant", list(ALGORITHMS))
    def test_trace_lagrangian_matches_svd_oracle(self, small_dataset, variant):
        """The loop's Lagrangian, built from the C1 step's spectrum where it has
        one, matches the value lagrangian_value computes from its own SVD;
        s0l0's is lagrangian_value at the counts its C step reported (the
        counts themselves are checked by test_s0l0_counts_match_svd_oracle)."""
        X = small_dataset.X
        cfg = registry_config(variant, max_iters=6, epsilon=1e-300)
        _, trace = ALGORITHMS[variant].solve(X, cfg)
        assert trace.n_iters == cfg.max_iters
        for k, (state, c_stats) in enumerate(redrive(X, variant, cfg)):
            oracle = lagrangian_value(X, state, cfg, variant,
                                      c_stats=c_stats if variant == S0L0 else None)
            assert trace.lagrangian[k] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("var", [0.0, 0.2])
    def test_s0l0_trace_lagrangian_takes_the_whole_residual(self, var):
        """On criterion 6's trial-0 data, at s0l0's shipped defaults, every
        iteration's Lagrangian is the formula with the whole residual J - C,
        the one the J and dual steps use, at the counts the C step reported."""
        data_seed = int(np.random.SeedSequence([2024, 0]).spawn(2)[0].generate_state(1)[0])
        X = generate_synthetic(SyntheticSpec(noise_variance=var, seed=data_seed)).X
        cfg = registry_config(S0L0)
        _, trace = s0l0_lrssc_solve(X, cfg)
        lam_eff, tau_eff = effective_weights(cfg)
        for value, (state, ((rank, nnz),)) in zip(trace.lagrangian, redrive(X, S0L0, cfg)):
            assert value == pytest.approx(
                full_residual_lagrangian(X, state, lam_eff * rank + tau_eff * nnz), rel=1e-12)

    @pytest.mark.parametrize("dataset, lam", [("small_dataset", 0.5), ("small_dataset", 0.8),
                                              ("bench_dataset", 0.5)])
    def test_s0l0_counts_match_svd_oracle(self, request, dataset, lam):
        """The rank s0l0's C step reports is the number of singular values of
        V = J + Lambda/mu (gesdd) above sqrt(2 lam_eff/mu), and its nnz the
        nonzero entries of the hard-thresholded V with its diagonal zeroed."""
        X = request.getfixturevalue(dataset).X
        cfg = registry_config(S0L0, lam=lam, max_iters=8, epsilon=1e-300)
        lam_eff, tau_eff = effective_weights(cfg)
        Lambda = np.zeros((X.shape[1], X.shape[1]))  # the multiplier the C step saw
        ranks = []
        for state, ((rank, nnz),) in redrive(X, S0L0, cfg):
            (split,) = state.splits
            V = Lambda / split.mu + state.J
            s = np.linalg.svd(V, compute_uv=False)
            assert rank == np.count_nonzero(s > math.sqrt(2.0 * lam_eff / split.mu))
            hard = np.where(np.abs(V) > math.sqrt(2.0 * tau_eff / split.mu), V, 0.0)
            np.fill_diagonal(hard, 0.0)
            assert nnz == np.count_nonzero(hard)
            ranks.append(rank)
            Lambda = split.Lambda.copy()
        assert 0 < min(ranks) and max(ranks) < X.shape[1]  # the count is not trivial

    @pytest.mark.parametrize("lam, left_out", [(1.0, 1), (0.0, 0)])
    def test_s0l0_counts_zero_for_a_map_left_out(self, small_dataset, lam, left_out):
        """Pure-rank s0l0 (tau = 0) reports nnz 0, pure-sparsity (lam = 0) rank 0."""
        cfg = registry_config(S0L0, lam=lam, tau=1.0 - lam, max_iters=6, epsilon=1e-300)
        counts = [stats for _, (stats,) in redrive(small_dataset.X, S0L0, cfg)]
        assert all(c[left_out] == 0 for c in counts)
        assert max(c[1 - left_out] for c in counts) > 0

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_trace_variant_is_the_registry_key(self, small_dataset, name):
        _, trace = ALGORITHMS[name].solve(small_dataset.X, registry_config(name, max_iters=1))
        assert trace.variant == name

    @pytest.mark.parametrize("solve", [gmc_lrssc_solve, convex_lrssc, s0l0_lrssc_solve])
    def test_svd_count(self, small_dataset, monkeypatch, numpy_threads, solve):
        """Every run does one SVD, the thin SVD of X (the J step's
        factorization), and k + 1 SVTs through the Gram matrix: one per
        iteration and the one in the C map of the exit KKT.  Each SVT forms
        its Gram matrix by one dsyrk and decomposes it by one tridiagonal
        reduction, whether it is soft (lrssc-convex), firm (gmc) or hard
        (s0l0).  The Lagrangian takes its penalty from the C step, never from
        an SVD.  The SVD of X is numpy's and runs with numpy's BLAS held at
        one thread; the rest are scipy's, and no eigh is ever called."""
        calls = {"svd": 0, "eigh": 0, "dsyrk": 0, "dsytrd": 0,
                 "numpy svd": 0, "numpy eigh": 0}
        svd_threads = []

        def counting(module, name, key=None):
            real = getattr(module, name)

            def wrapper(*args, **kw):
                calls[key or name] += 1
                if key == "numpy svd" and numpy_threads is not None:
                    svd_threads.append(numpy_threads())
                return real(*args, **kw)
            monkeypatch.setattr(module, name, wrapper)

        counting(scipy.linalg, "svd")
        counting(scipy.linalg, "eigh")
        counting(blas, "dsyrk")
        counting(lapack, "dsytrd")
        counting(np.linalg, "svd", "numpy svd")
        counting(np.linalg, "eigh", "numpy eigh")
        k = 4
        _, trace = solve(small_dataset.X, SolverConfig(max_iters=k, epsilon=1e-300))
        assert trace.n_iters == k
        assert calls == {"svd": 0, "eigh": 0, "dsyrk": k + 1, "dsytrd": k + 1,
                         "numpy svd": 1, "numpy eigh": 0}
        assert svd_threads == ([] if numpy_threads is None else [1])

    @pytest.mark.parametrize("dataset", ["small_dataset", "bench_dataset"])
    @pytest.mark.parametrize("solve", [gmc_lrssc_solve, convex_lrssc, s0l0_lrssc_solve])
    def test_gram_svt_matches_svd_path(self, request, monkeypatch, dataset, solve):
        """Whole solves agree with solves whose every SVT runs on the SVD: the
        Gram kernel is made to fail, which sends each SVT to its fallback."""
        import lrssc.prox as prox_module
        ds = request.getfixturevalue(dataset)
        n_clusters = int(ds.truth.max()) + 1
        failed = []

        def kernel_fails(G):
            failed.append(G.shape)
            raise np.linalg.LinAlgError("kernel patched out")

        runs = []
        for _ in range(2):
            C, trace = solve(ds.X, SolverConfig())
            labels = spectral_cluster(build_affinity(C), n_clusters=n_clusters, seed=0)
            runs.append((C, trace, labels))
            monkeypatch.setattr(prox_module, "_tridiagonal_eigenpairs", kernel_fails)
        (C, trace, labels), (C_ref, trace_ref, labels_ref) = runs
        assert len(failed) == trace.n_iters + 1  # every SVT of the second solve
        assert np.linalg.norm(C - C_ref) <= 1e-10 * np.linalg.norm(C_ref)
        np.testing.assert_array_equal(labels, labels_ref)
        assert trace.n_iters == trace_ref.n_iters
        assert trace.termination == trace_ref.termination
        assert trace.mu == trace_ref.mu

    def test_hollow_diagonal_every_iteration(self, small_dataset):
        """The sparse block keeps an exactly zero diagonal at every step."""
        X = small_dataset.X
        cfg = SolverConfig(max_iters=8, epsilon=1e-300)
        gram = GramSolver(X)
        state = zero_state(GMC, X.shape[1], cfg)
        low_rank, sparse = state.splits
        for _ in range(cfg.max_iters):
            state.J = normalize_columns(j_update(X, state, gram))
            low_rank.C, sparse.C = c_blocks(GMC, state, cfg)
            np.testing.assert_array_equal(np.diag(sparse.C), 0.0)
            step_duals(state, cfg)

    def test_sparse_dual_entries_bounded_by_weight(self, small_dataset):
        """Off-diagonal entries of the sparse-block multiplier never exceed
        the effective sparsity weight (the penalty's slope bound)."""
        X = small_dataset.X
        cfg = SolverConfig(max_iters=12, epsilon=1e-300)
        _, tau_eff = effective_weights(cfg)
        gram = GramSolver(X)
        state = zero_state(GMC, X.shape[1], cfg)
        low_rank, sparse = state.splits
        off_diag = ~np.eye(X.shape[1], dtype=bool)
        for _ in range(cfg.max_iters):
            state.J = normalize_columns(j_update(X, state, gram))
            low_rank.C, sparse.C = c_blocks(GMC, state, cfg)
            step_duals(state, cfg)
            assert np.abs(sparse.Lambda[off_diag]).max() <= tau_eff * (1 + 1e-8)

    def test_dual_step_small_after_convergence(self, small_dataset):
        """A converged run's final multiplier step is bounded by mu_max * eps."""
        X = small_dataset.X
        cfg = SolverConfig(lam=0.5)
        C, trace = s0l0_lrssc_solve(X, cfg)
        assert trace.termination == "converged"
        # the last consensus gap is what the final dual step scales
        assert trace.mu[0][-1] * trace.r_jc[0][-1] <= cfg.mu_max * cfg.epsilon

    def test_pure_rank_two_block_runs(self, small_dataset):
        C, trace = s0l0_lrssc_solve(small_dataset.X,
                                    SolverConfig(lam=1.0, tau=0.0, max_iters=20))
        assert np.all(np.isfinite(C))
        assert trace.n_iters >= 1

    def test_input_validation(self):
        with pytest.raises(ValueError, match=re.escape(
                "X must have at least 2 columns, got shape (3, 1)")):
            gmc_lrssc_solve(np.ones((3, 1)), SolverConfig())
        with pytest.raises(ValueError, match=re.escape(
                "X must be a 2-d matrix, got shape (5,)")):
            gmc_lrssc_solve(np.ones(5), SolverConfig())
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

    def test_gmc_rejects_zero_gamma_before_the_data_svd(self, small_dataset, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the data SVD ran")

        monkeypatch.setattr(solvers, "GramSolver", forbidden)
        with pytest.raises(ValueError, match=re.escape(
                "gamma must lie in (0, 1] for firm-threshold updates, got 0.0")):
            gmc_lrssc_solve(small_dataset.X, SolverConfig(gamma=0.0))

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

    @pytest.mark.parametrize("name, budget", [
        pytest.param(GMC, 8.5, id=GMC), pytest.param(S0L0, 7.6, id=S0L0),
        pytest.param(CONVEX, 9.7, id=CONVEX)])
    def test_working_set_within_budget(self, name, budget):
        """A default solve at N = 300 holds at most ``budget`` N x N arrays at
        once: its state (J and each split's C and Lambda; five arrays, three
        for s0l0) plus the temporaries of one step at a time."""
        X = generate_synthetic(SyntheticSpec(points_per_subspace=100, noise_variance=0.01,
                                             seed=7)).X
        assert peak_arrays(lambda: ALGORITHMS[name].solve(X, None), X.shape[1]) <= budget


class TestDescentChain:
    def test_block_updates_never_increase_frozen_lagrangian(self, small_dataset):
        """With multipliers and mu frozen, each block update is a descent step."""
        X = small_dataset.X
        cfg = SolverConfig(gamma=0.6, normalize_j=False, epsilon=1e-300)
        gram = GramSolver(X)
        state = zero_state(GMC, X.shape[1], cfg)
        (_, c1_map), (_, c2_map) = ALGORITHMS[GMC].splits
        for _ in range(10):
            L_start = lagrangian_value(X, state, cfg, GMC)
            state_j = replaced_state(state, J=j_update(X, state, gram))
            L_j = lagrangian_value(X, state_j, cfg, GMC)
            C1, _ = c1_map(state_j.J, state_j.splits[0], cfg)
            state_c1 = replaced_state(state_j, split=0, C=C1)
            L_c1 = lagrangian_value(X, state_c1, cfg, GMC)
            C2, _ = c2_map(state_c1.J, state_c1.splits[1], cfg)
            state = replaced_state(state_c1, split=1, C=C2)
            L_c2 = lagrangian_value(X, state, cfg, GMC)

            scale = max(abs(L_start), abs(L_j), abs(L_c1), abs(L_c2), 1.0)
            assert L_j <= L_start + 1e-8 * scale
            assert L_c1 <= L_j + 1e-8 * scale
            assert L_c2 <= L_c1 + 1e-8 * scale

            step_duals(state, cfg)


# The top-level names are the pipeline; the ADMM step API stays in its modules.
PUBLIC = [
    "DegenerateAffinityError", "EvalReport", "GridPoint", "GridSearchResult", "GridSpec",
    "LabeledDataset", "LrrSolution", "NumericalError", "SolverConfig", "SolverTrace",
    "SyntheticSpec", "ThresholdParams", "build_affinity", "clustering_error", "convex_lrssc",
    "firm_threshold", "generate_synthetic", "gmc_lrssc_solve", "gmc_penalty_separable",
    "grid_search", "hard_threshold", "load_labels", "load_matrix", "lrr_noiseless", "lrr_noisy",
    "s0l0_lrssc_solve", "save_labels", "save_matrix", "scaled_mc_penalty", "soft_threshold",
    "spectral_cluster", "svt_firm", "svt_hard", "svt_soft",
]
INTERNAL = {
    solvers: ["State", "Split", "KktResiduals", "j_update", "dual_update", "mu_update",
              "stopping_check", "normalize_columns", "effective_weights", "lagrangian_value",
              "kkt_residuals"],
    prox: ["entrywise_firm", "entrywise_hard"],
}


def test_public_surface():
    import lrssc

    assert sorted(lrssc.__all__) == PUBLIC
    for module, names in INTERNAL.items():
        for name in names:
            assert not hasattr(lrssc, name)
            assert callable(getattr(module, name))
