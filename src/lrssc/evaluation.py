"""Clustering-error scoring with optimal label matching, plus grid search.

The clustering error is 1 - (best fraction of agreeing points over all
label permutations); the optimum is found exactly as a max-weight
assignment on the confusion matrix.  The grid search is the one tuning
path and follows the synthetic benchmark protocol: tune the penalty split
(lam, and gamma when given) at the base initial mu, then the initial mu at
the winner, scoring each cell by its median clustering error over freshly
generated datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import spectral
from .datasets import SyntheticSpec, generate_synthetic
from .parallel import map_tasks
from .solvers import ALGORITHMS, GridSpec, SolverConfig


@dataclass
class EvalReport:
    """Clustering error with the label matching that realizes it.

    ``matching`` maps predicted label -> matched truth label, over the labels
    that occur in either vector; ``missing_clusters`` lists those the
    prediction never used (degenerate clusterings).
    """

    ce: float
    matching: tuple
    missing_clusters: tuple
    n_points: int


def clustering_error(pred, truth) -> EvalReport:
    """Exact minimum misassignment rate between two label vectors."""
    # imported here so that commands that never score (cluster) skip loading scipy.optimize
    from scipy.optimize import linear_sum_assignment

    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.ndim != 1 or pred.shape != truth.shape:
        raise ValueError(
            f"label vectors must be 1-d and equal length, got {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("label vectors are empty")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    # The confusion matrix is indexed by the distinct labels of both vectors,
    # so its side is at most 2N whatever the label values are.
    labels, index = np.unique(np.concatenate([pred, truth]), return_inverse=True)
    confusion = np.zeros((labels.size, labels.size), dtype=int)
    np.add.at(confusion, (index[:pred.size], index[pred.size:]), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    matched = int(confusion[rows, cols].sum())
    return EvalReport(
        # divide the integer miss count directly so the value is bit-identical
        # to errors/n computed elsewhere (1 - matched/n rounds differently)
        ce=float((pred.size - matched) / pred.size),
        matching=tuple(zip(labels[rows].tolist(), labels[cols].tolist())),
        missing_clusters=tuple(np.setdiff1d(labels, pred).tolist()),
        n_points=int(pred.size),
    )


@dataclass
class GridPoint:
    """One scored grid cell: its clustering error per trial and their median."""

    lam: float
    gamma: float
    mu2_init: float
    ces: tuple
    median_ce: float


@dataclass
class GridSearchResult:
    best_config: SolverConfig
    best_median_ce: float
    table: list


def _trial_ce(algorithm: str, spec: SyntheticSpec, seed: int, task) -> float:
    """Clustering error of one cell's config on trial t's own dataset."""
    cfg, trial = task
    data_seed, cluster_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence([seed, trial]).spawn(2))
    data = generate_synthetic(replace(spec, seed=data_seed))
    C = ALGORITHMS[algorithm].solve(data.X, cfg)[0]
    W = spectral.build_affinity(C, out=C)
    labels = spectral.spectral_cluster(W, spec.num_subspaces, cluster_seed)
    return clustering_error(labels, data.truth).ce


def grid_search(spec: SyntheticSpec, algorithm: str, grid: GridSpec, trials: int = 1,
                seed: int = 0, base_config: SolverConfig | None = None,
                jobs: int = 1) -> GridSearchResult:
    """Tune in two phases, scoring each cell by median clustering error.

    Phase one scores every (lam, gamma) at the base initial mu, phase two
    every initial mu at phase one's winner.  Trial t draws a fresh dataset
    from ``spec`` and seeds k-means, both from
    ``np.random.SeedSequence([seed, t]).spawn(2)``; ``spec.seed`` is not used.
    Each phase keeps its first minimum in grid order.  Every initial mu of
    phase two is checked by SolverConfig before phase one starts, and a
    phase builds the config of every cell and checks it by the algorithm's
    settings rule before any data or worker exists; then its (cell, trial)
    runs go through :func:`lrssc.parallel.map_tasks` with ``jobs`` workers.
    Without ``base_config`` the search starts from the algorithm's tuned
    defaults in ALGORITHMS; its ``grid`` there is the one ``lrssc tune``
    passes.  ``grid.lambdas`` and ``grid.mu_inits`` must not be empty.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    for name in ("lambdas", "mu_inits"):
        if not getattr(grid, name):
            raise ValueError(f"grid {name} must not be empty")
    base = (base_config if base_config is not None
            else SolverConfig(**ALGORITHMS[algorithm].defaults))
    for mu in grid.mu_inits:  # SolverConfig checks phase two's mu values before phase one
        replace(base, mu2_init=mu)
    run_trial = partial(_trial_ce, algorithm, spec, seed)
    table: list[GridPoint] = []

    def best_of(cells) -> tuple[GridPoint, SolverConfig]:
        """The first cell of least median error, with its config."""
        cfgs = [replace(base, lam=lam, tau=1.0 - lam, gamma=gamma, mu2_init=mu)
                for lam, gamma, mu in cells]
        for cfg in cfgs:
            ALGORITHMS[algorithm].check(cfg)
        ces = map_tasks(run_trial, [(cfg, t) for cfg in cfgs for t in range(trials)], jobs)
        per_cell = [tuple(ces[i:i + trials]) for i in range(0, len(ces), trials)]
        points = [GridPoint(*cell, ces=c, median_ce=float(np.median(c)))
                  for cell, c in zip(cells, per_cell)]
        table.extend(points)
        return min(zip(points, cfgs), key=lambda pc: pc[0].median_ce)

    head, _ = best_of([(lam, g, base.mu2_init)
                       for lam in grid.lambdas for g in grid.gammas or (base.gamma,)])
    winner, best_cfg = best_of([(head.lam, head.gamma, mu) for mu in grid.mu_inits])
    return GridSearchResult(best_config=best_cfg, best_median_ce=winner.median_ce, table=table)
