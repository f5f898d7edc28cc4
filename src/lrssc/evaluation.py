"""Clustering-error scoring with optimal label matching, plus grid search.

The clustering error is 1 - (best fraction of agreeing points over all
label permutations); the optimum is found exactly as a max-weight
assignment on the confusion matrix.  The grid search mirrors the usual
benchmark protocol: tune the penalty split first with everything else at
its default, then the initial mu, or exhaustively when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import spectral
from .solvers import ALGORITHMS, SolverConfig


@dataclass
class EvalReport:
    """Clustering error with the label matching that realizes it.

    ``matching`` maps predicted label -> matched truth label;
    ``missing_clusters`` lists labels in [0, L) that the prediction never
    used (degenerate clusterings).
    """

    ce: float
    matching: tuple
    missing_clusters: tuple
    n_points: int


def clustering_error(pred, truth) -> EvalReport:
    """Exact minimum misassignment rate between two label vectors."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.ndim != 1 or pred.shape != truth.shape:
        raise ValueError(
            f"label vectors must be 1-d and equal length, got {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("label vectors are empty")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    n_labels = int(max(pred.max(), truth.max())) + 1
    confusion = np.zeros((n_labels, n_labels), dtype=int)
    np.add.at(confusion, (pred, truth), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    matched = int(confusion[rows, cols].sum())
    missing = tuple(sorted(set(range(n_labels)) - set(np.unique(pred).tolist())))
    return EvalReport(
        # divide the integer miss count directly so the value is bit-identical
        # to errors/n computed elsewhere (1 - matched/n rounds differently)
        ce=float((pred.size - matched) / pred.size),
        matching=tuple(zip(rows.tolist(), cols.tolist())),
        missing_clusters=missing,
        n_points=int(pred.size),
    )


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid: lambdas (with taus = 1 - lam), initial mus, gammas.

    An empty gamma tuple keeps the base config's gamma fixed.  Two-phase
    search sweeps (lam, gamma) first at the base initial mu, then mu at the
    winner; otherwise the full Cartesian product is scored.
    """

    lambdas: tuple
    mu_inits: tuple = (1.0, 3.0, 5.0, 10.0, 20.0)
    gammas: tuple = ()
    two_phase: bool = True


def gmc_default_grid() -> GridSpec:
    """lam = 1/(1+alpha) for alpha = 1e-3 ... 1e3 by decades; standard mu set."""
    lambdas = tuple(1.0 / (1.0 + 10.0 ** k) for k in range(-3, 4))
    return GridSpec(lambdas=lambdas)


def s0l0_default_grid() -> GridSpec:
    """lam = 0.1 ... 0.9 in steps of 0.1; standard mu set."""
    return GridSpec(lambdas=tuple(round(0.1 * i, 1) for i in range(1, 10)))


@dataclass
class GridPoint:
    """One scored grid cell."""

    lam: float
    gamma: float
    mu2_init: float
    ces: tuple
    mean_ce: float
    median_ce: float
    std_ce: float


@dataclass
class GridSearchResult:
    best_config: SolverConfig
    best_mean_ce: float
    table: list


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def grid_search(X, truth, algorithm: str, grid: GridSpec, trials: int = 1,
                seed: int = 0, base_config: SolverConfig | None = None) -> GridSearchResult:
    """Score every grid cell by mean clustering error over seeded trials.

    The solver runs once per cell (it is deterministic); trials re-run the
    spectral stage with per-trial seeds.  Ties keep the lexicographically
    first cell in (lam, gamma, mu) grid order.  Without ``base_config`` the
    search starts from the algorithm's tuned defaults in ALGORITHMS.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    solve = ALGORITHMS[algorithm].solve
    truth = np.asarray(truth, dtype=int)
    n_clusters = len(np.unique(truth))
    base = (base_config if base_config is not None
            else SolverConfig(**ALGORITHMS[algorithm].defaults))

    def score(lam, gamma, mu) -> GridPoint:
        cfg = replace(base, lam=lam, tau=1.0 - lam, gamma=gamma, mu2_init=mu)
        C, _ = solve(X, cfg)
        W = spectral.build_affinity(C)
        ces = tuple(
            clustering_error(
                spectral.spectral_cluster(W, n_clusters, _trial_seed(seed, t)), truth).ce
            for t in range(trials))
        arr = np.asarray(ces)
        return GridPoint(lam=lam, gamma=gamma, mu2_init=mu, ces=ces,
                         mean_ce=float(arr.mean()), median_ce=float(np.median(arr)),
                         std_ce=float(arr.std()))

    gammas = grid.gammas if grid.gammas else (base.gamma,)
    table: list[GridPoint] = []

    def best_of(points):
        return min(points, key=lambda p: p.mean_ce)

    if grid.two_phase:
        phase1 = [score(lam, g, base.mu2_init) for lam in grid.lambdas for g in gammas]
        table.extend(phase1)
        head = best_of(phase1)
        phase2 = [score(head.lam, head.gamma, mu) for mu in grid.mu_inits]
        table.extend(phase2)
        winner = best_of(phase2)
    else:
        table = [score(lam, g, mu)
                 for lam in grid.lambdas for g in gammas for mu in grid.mu_inits]
        winner = best_of(table)

    best_cfg = replace(base, lam=winner.lam, tau=1.0 - winner.lam,
                       gamma=winner.gamma, mu2_init=winner.mu2_init)
    return GridSearchResult(best_config=best_cfg, best_mean_ce=winner.mean_ce, table=table)
