"""Pick default (lam, gamma, mu2_init) values for the synthetic benchmark.

Runs ``lrssc.grid_search``, the benchmark tuning loop: a lambda (x gamma)
phase at mu2_init 5, then a mu phase for the winning weights, scored by
median clustering error over freshly generated datasets, and prints every
scored cell.  gmc tunes gamma over 0.1 ... 1.0; the other solvers keep it
at 0.6.  At the command below it picks the shipped defaults
(``lrssc.solvers.ALGORITHMS``) for gmc and lrssc-convex; for s0l0 it picks
lam 0.8 (median 0.070) over the shipped 0.5 (median 0.087).

Run from the repository root:

    python3 scripts/tune_defaults.py --trials 10 --var 0.0
"""

import argparse
import sys
from dataclasses import replace

from lrssc import (
    SolverConfig,
    SyntheticSpec,
    gmc_default_grid,
    grid_search,
    s0l0_default_grid,
)
from lrssc.solvers import ALGORITHMS

GAMMAS = tuple(round(0.1 * k, 1) for k in range(1, 11))


def main():
    defaults = SyntheticSpec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--var", type=float, default=defaults.noise_variance, help="noise variance")
    ap.add_argument("--per", type=int, default=defaults.points_per_subspace,
                    help="points per subspace")
    ap.add_argument("--tune-seed", type=int, default=777)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--solver", choices=sorted(ALGORITHMS), action="append")
    args = ap.parse_args()
    for flag in ("trials", "jobs"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if args.tune_seed < 0:
        ap.error(f"--tune-seed must be non-negative, got {args.tune_seed}")

    try:
        spec = SyntheticSpec(points_per_subspace=args.per, noise_variance=args.var)
    except ValueError as err:
        ap.error(str(err))
    for solver in args.solver or sorted(ALGORITHMS):
        print(f"== {solver} (var={args.var}) ==")
        grid = s0l0_default_grid() if solver == "s0l0" else gmc_default_grid()
        grid = replace(grid, gammas=GAMMAS if solver == "gmc" else (0.6,))
        result = grid_search(spec, solver, grid, trials=args.trials, seed=args.tune_seed,
                             base_config=SolverConfig(mu2_init=5.0), jobs=args.jobs)
        for p in result.table:
            print(f"  {solver}: lam={p.lam:.6f} gamma={p.gamma:.1f} mu={p.mu2_init:g}"
                  f"  median={p.median_ce:.4f}")
        best = result.best_config
        print(f"--> {solver}: lam={best.lam:.6f} gamma={best.gamma:.1f} "
              f"mu2_init={best.mu2_init:g} median CE={result.best_median_ce:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
