"""Acceptance suite: one test per release criterion, one summary line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every criterion's
PASS/FAIL line; a failing criterion also fails its test, so plain pytest
output carries the same information.

Criterion 6 (benchmark clustering quality) is known to fail at the shipped
default settings; the measured medians are printed so the gap is visible.
See the README for the numbers.
"""

import time
from dataclasses import replace
from functools import partial

import numpy as np

from conftest import (
    SMALL_SPEC,
    block_affinity,
    brute_force_ce,
    brute_force_prox_objective,
    firm_penalty,
    ista_low_rank,
    l0_penalty,
    l1_penalty,
    prox_candidates,
    replaced_state,
)
from lrssc import (
    SolverConfig,
    State,
    SyntheticSpec,
    build_affinity,
    clustering_error,
    convex_lrssc,
    generate_synthetic,
    gmc_lrssc_solve,
    lrr_noiseless,
    lrr_noisy,
    s0l0_lrssc_solve,
    spectral_cluster,
)
from lrssc import cli, prox
from lrssc.parallel import map_tasks
from lrssc.solvers import (
    ALGORITHMS,
    GMC,
    GramSolver,
    dual_update,
    j_update,
    lagrangian_value,
    mu_update,
)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _relative_frobenius(A, B):
    return float(np.linalg.norm(A - B, "fro") / np.linalg.norm(B, "fro"))


def test_criterion_01_scalar_prox_operators_match_brute_force():
    """Hard/firm/soft outputs attain the brute-force objective minimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        y = float(rng.uniform(-6.0, 6.0))
        lam = float(rng.uniform(0.05, 3.0))
        a = lam * float(1.0 + rng.uniform(0.01, 4.0))
        span = abs(y) + a + lam + 2.0
        candidates = prox_candidates(y, span)
        cases = [
            (prox.soft_threshold(y, lam), l1_penalty(lam)),
            (prox.hard_threshold(y, lam), l0_penalty(lam)),
            (prox.firm_threshold(y, prox.ThresholdParams(lam=lam, a=a)),
             firm_penalty(lam, a)),
        ]
        for out, penalty in cases:
            attained = 0.5 * (y - float(out)) ** 2 + float(penalty(float(out)))
            best = brute_force_prox_objective(y, penalty, candidates)
            worst = max(worst, attained - best)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, ok, f"worst prox-objective excess {worst:.2e} over 200 "
                   f"(y, lam, a) draws x 3 operators (tol 1e-9), {elapsed:.1f}s")


def test_criterion_02_closed_form_low_rank_matches_oracle(small_dataset):
    """lrr_noisy equals a proximal-gradient minimizer; noiseless is exact."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 40))
    C = lrr_noisy(X, 10.0).C
    C_oracle = ista_low_rank(X, 10.0)
    rel = _relative_frobenius(C, C_oracle)

    Xs = small_dataset.X
    residual = float(np.linalg.norm(Xs - Xs @ lrr_noiseless(Xs).C, "fro"))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-4 and residual <= 1e-8 and elapsed < 10.0
    _report(2, ok, f"noisy vs oracle rel {rel:.2e} (tol 1e-4), noiseless "
                   f"self-expression residual {residual:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_03_vanishing_gamma_recovers_convex_solver(bench_dataset):
    """gamma = 1e-6 firm-threshold run lands on the soft-threshold solution."""
    start = time.perf_counter()
    cfg = SolverConfig(gamma=1e-6)
    C_gmc, _ = gmc_lrssc_solve(bench_dataset.X, cfg)
    C_convex, _ = convex_lrssc(bench_dataset.X, cfg)
    rel = _relative_frobenius(C_gmc, C_convex)
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-4 and elapsed < 30.0
    _report(3, ok, f"relative Frobenius gap {rel:.2e} (tol 1e-4), {elapsed:.1f}s")


def test_criterion_04_block_updates_descend_frozen_lagrangian(small_dataset):
    """Over 20 iterations, each block update lowers the frozen-mu Lagrangian."""
    X = small_dataset.X
    cfg = SolverConfig(normalize_j=False, epsilon=1e-300)
    gram = GramSolver(X)
    state = State.zeros(X.shape[1], [cfg.mu1_init, cfg.mu2_init])
    (_, c1_map), (_, c2_map) = ALGORITHMS[GMC].splits
    worst = -np.inf
    for _ in range(20):
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
        worst = max(worst, (L_j - L_start) / scale, (L_c1 - L_j) / scale,
                    (L_c2 - L_c1) / scale)

        for split, Lambda in zip(state.splits, dual_update(state)):
            split.Lambda = Lambda
            split.mu = mu_update(split.mu, cfg)
    ok = worst <= 1e-8
    _report(4, ok, f"worst relative ascent {worst:.2e} across 20 iterations "
                   f"x 3 block updates (tol 1e-8)")


# Settings under which each solver genuinely converges (consensus gaps under
# 1e-6) on the small overlapping-subspace instance; chosen so the exit-state
# stationarity bound below is meaningful rather than vacuous.  Every schedule
# field is pinned explicitly so retuning SolverConfig's defaults cannot shift
# these runs.
_KKT_CONFIGS = {
    "gmc": SolverConfig(lam=0.5, gamma=0.1, rho=3.0, mu1_init=0.1,
                        mu2_init=5.0, mu_max=50.0, epsilon=1e-6,
                        max_iters=20000, normalize_j=False),
    "lrssc-convex": SolverConfig(lam=0.5, rho=3.0, mu1_init=0.1, mu2_init=3.0,
                                 mu_max=100.0, epsilon=1e-6, max_iters=20000,
                                 normalize_j=False),
    "s0l0": SolverConfig(lam=0.5, rho=3.0, mu2_init=5.0, epsilon=1e-6,
                         max_iters=300, normalize_j=False),
}


def test_criterion_05_converged_runs_satisfy_kkt_bound():
    """Converged runs at noise variance <= 0.1 have max KKT residual <= 1e-3."""
    worst = 0.0
    all_converged = True
    for var in (0.0, 0.1):
        spec = replace(SMALL_SPEC, noise_variance=var, seed=11)
        X = generate_synthetic(spec).X
        for name, cfg in _KKT_CONFIGS.items():
            _, trace = ALGORITHMS[name].solve(X, cfg)
            all_converged &= trace.termination == "converged"
            worst = max(worst, trace.kkt.max_residual())
    ok = all_converged and worst <= 1e-3
    _report(5, ok, f"all runs converged={all_converged}, worst max-KKT "
                   f"residual {worst:.2e} (tol 1e-3 = 10 x 1e-4)")


def _benchmark_trial(configs, task):
    name, var, trial = task
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence([2024, trial]).spawn(2)]
    ds = generate_synthetic(SyntheticSpec(noise_variance=var, seed=seeds[0]))
    C, _ = ALGORITHMS[name].solve(ds.X, configs[name])
    labels = spectral_cluster(build_affinity(C), 3, seeds[1])
    return clustering_error(labels, ds.truth).ce


def test_criterion_06_benchmark_clustering_quality():
    """Median clustering error at shipped defaults, 10 trials per noise level.

    Known to fail: the zero-noise medians sit above the 5% target and the
    variance-0.2 medians far above 25%.  The run is kept honest rather than
    tuned per-instance; the printed line carries the measured numbers.
    """
    start = time.perf_counter()
    configs = {
        "gmc": SolverConfig(),
        "s0l0": SolverConfig(lam=0.5, mu2_init=5.0),
        "lrssc-convex": SolverConfig(lam=1.0 / 1.1, mu2_init=1.0),
    }
    # keep this table in lockstep with the registered built-in settings
    for name, algorithm in ALGORITHMS.items():
        assert configs[name] == SolverConfig(**algorithm.defaults)

    tasks = [(name, var, trial)
             for name in configs
             for var in (0.0, 0.2)
             for trial in range(10)]
    ces = map_tasks(partial(_benchmark_trial, configs), tasks, jobs=8)
    medians = {}
    for (name, var, _), ce in zip(tasks, ces):
        medians.setdefault((name, var), []).append(ce)
    medians = {key: float(np.median(v)) for key, v in medians.items()}
    elapsed = time.perf_counter() - start

    zero = {name: medians[(name, 0.0)] for name in configs}
    noisy_best = min(medians[(name, 0.2)] for name in configs)
    ok = all(v <= 0.05 for v in zero.values()) and noisy_best <= 0.25 \
        and elapsed < 300.0
    detail = ", ".join(f"{name} {v:.1%}" for name, v in sorted(zero.items()))
    _report(6, ok, f"zero-noise medians {detail} (target <= 5% each); "
                   f"var-0.2 best median {noisy_best:.1%} (target <= 25%); "
                   f"{elapsed:.0f}s")


def test_criterion_07_solvers_converge_within_iteration_budget(bench_dataset):
    """Both iterative penalties reach converged status in <= 30 iterations."""
    _, trace_gmc = gmc_lrssc_solve(bench_dataset.X, SolverConfig())
    _, trace_s0l0 = s0l0_lrssc_solve(bench_dataset.X,
                                     SolverConfig(lam=0.5, mu2_init=5.0))
    ok = all(t.termination == "converged" and t.n_iters <= 30
             for t in (trace_gmc, trace_s0l0))
    _report(7, ok, f"gmc {trace_gmc.termination} in {trace_gmc.n_iters} iters, "
                   f"s0l0 {trace_s0l0.termination} in {trace_s0l0.n_iters} "
                   f"iters (budget 30)")


def test_criterion_08_hungarian_matches_brute_force_exactly():
    """Assignment-based error equals permutation search on random label pairs."""
    mismatches = 0
    for n_labels in range(2, 7):
        rng = np.random.default_rng(n_labels)
        for _ in range(200):
            pred = rng.integers(0, n_labels, size=30)
            truth = rng.integers(0, n_labels, size=30)
            if clustering_error(pred, truth).ce != brute_force_ce(pred, truth):
                mismatches += 1
    ok = mismatches == 0
    _report(8, ok, f"{mismatches} mismatches over 200 random pairs for each "
                   f"label count 2-6 (exact equality)")


def test_criterion_09_cluster_command_is_deterministic(tmp_path):
    """Identical cmd_cluster invocations write byte-identical outputs."""
    data = tmp_path / "data"
    data.mkdir()
    assert cli.main(["synth", "--n", "30", "--d", "3", "--L", "3", "--per",
                     "10", "--union-rank", "6", "--seed", "5",
                     "--out-dir", str(data)]) == 0
    outputs = []
    for tag in ("a", "b"):
        labels = tmp_path / f"labels_{tag}.txt"
        trace = tmp_path / f"trace_{tag}.csv"
        assert cli.main(["cluster", "--input", str(data / "X.csv"),
                         "--algorithm", "gmc", "--clusters", "3",
                         "--seed", "0", "--labels-out", str(labels),
                         "--trace-out", str(trace)]) == 0
        outputs.append((labels.read_bytes(), trace.read_bytes()))
    ok = outputs[0] == outputs[1]
    _report(9, ok, "two identical cluster invocations -> byte-identical "
                   "label and trace files")


def test_criterion_10_ideal_block_affinity_recovers_partition():
    """Block-diagonal affinities with 2/3/5 blocks cluster with zero error."""
    worst = 0.0
    for n_blocks, sizes in ((2, (12, 9)), (3, (8, 10, 6)),
                            (5, (7, 5, 6, 8, 4))):
        W, truth = block_affinity(sizes, seed=n_blocks)
        labels = spectral_cluster(W, n_blocks, seed=0)
        worst = max(worst, clustering_error(labels, truth).ce)
    ok = worst == 0.0
    _report(10, ok, f"worst clustering error {worst} across block counts "
                    f"2/3/5 (target exactly 0)")
