"""Pick default (lam, gamma, mu2_init) values for the synthetic benchmark.

Replicates the benchmark tuning loop: a lambda (x gamma) phase at the base
mu, then a mu phase for the winning weights, scored by median clustering
error over freshly generated datasets.  The winning values are what the
library ships as its defaults (``lrssc.solvers.ALGORITHMS``), so this
script is mostly useful when the generator or the solvers change.

Run from the repository root:

    python3 scripts/tune_defaults.py --trials 10 --var 0.0
"""

import argparse
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from lrssc import (
    GridSpec,
    SolverConfig,
    SyntheticSpec,
    build_affinity,
    clustering_error,
    generate_synthetic,
    gmc_default_grid,
    s0l0_default_grid,
    spectral_cluster,
)
from lrssc.parallel import map_tasks
from lrssc.solvers import ALGORITHMS

GAMMAS = tuple(round(0.1 * k, 1) for k in range(1, 11))


def trial_ce(solver, spec, tune_seed, task):
    (lam, gamma, mu), trial = task
    data_seed, cluster_seed = (
        s.generate_state(1)[0] for s in np.random.SeedSequence([tune_seed, trial]).spawn(2)
    )
    data = generate_synthetic(replace(spec, seed=int(data_seed)))
    cfg = SolverConfig(lam=lam, gamma=gamma, mu2_init=mu)
    C, _ = ALGORITHMS[solver].solve(data.X, cfg)
    labels = spectral_cluster(build_affinity(C), spec.num_subspaces, seed=int(cluster_seed))
    return clustering_error(labels, data.truth).ce


def median_ces(solver, settings, spec, trials, tune_seed, jobs):
    """Median clustering error of each (lam, gamma, mu) setting, in one map."""
    tasks = [(setting, t) for setting in settings for t in range(trials)]
    ces = map_tasks(partial(trial_ce, solver, spec, tune_seed), tasks, jobs)
    return [float(np.median(ces[i:i + trials])) for i in range(0, len(ces), trials)]


def tune(solver, spec, trials, tune_seed, jobs):
    grid = s0l0_default_grid() if solver == "s0l0" else gmc_default_grid()
    gammas = GAMMAS if solver == "gmc" else (0.6,)
    weight_grid = [(lam, g) for lam in grid.lambdas for g in gammas]

    best = None
    settings = [(lam, gamma, 5.0) for lam, gamma in weight_grid]
    for (lam, gamma, mu), med in zip(
            settings, median_ces(solver, settings, spec, trials, tune_seed, jobs)):
        if best is None or med < best[0]:
            best = (med, lam, gamma, mu)
        print(f"  {solver}: lam={lam:.6f} gamma={gamma:.1f} mu=5  median={med:.4f}")
    _, lam, gamma, _ = best
    settings = [(lam, gamma, mu) for mu in GridSpec.mu_inits]
    for (_, _, mu), med in zip(
            settings, median_ces(solver, settings, spec, trials, tune_seed, jobs)):
        if med < best[0]:
            best = (med, lam, gamma, mu)
        print(f"  {solver}: lam={lam:.6f} gamma={gamma:.1f} mu={mu:g}  median={med:.4f}")
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--var", type=float, default=0.0, help="noise variance")
    ap.add_argument("--per", type=int, default=50, help="points per subspace")
    ap.add_argument("--tune-seed", type=int, default=777)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--solver", choices=sorted(ALGORITHMS), action="append")
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error(f"--jobs must be at least 1, got {args.jobs}")

    spec = SyntheticSpec(points_per_subspace=args.per, noise_variance=args.var)
    solvers = args.solver or sorted(ALGORITHMS)
    for solver in solvers:
        print(f"== {solver} (var={args.var}) ==")
        med, lam, gamma, mu = tune(solver, spec, args.trials, args.tune_seed, args.jobs)
        print(f"--> {solver}: lam={lam:.6f} gamma={gamma:.1f} "
              f"mu2_init={mu:g} median CE={med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
