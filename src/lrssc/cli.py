"""Command-line interface: synthesize data, cluster it, score labels, run sweeps,
tune the solvers' weights.

Data goes to files or stdout, diagnostics to stderr; every subcommand's
randomness is pinned by --seed.  Solver settings resolve in the order
command-line flag > config file entry > built-in per-algorithm default.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import datasets, spectral
from .baselines import check_lrr_weight, lrr_noiseless, lrr_noisy
from .evaluation import clustering_error, grid_search
from .exceptions import DegenerateAffinityError, NumericalError
from .parallel import map_tasks
from .solvers import _KINDS, ALGORITHMS, SolverConfig, SolverTrace

TRACE_HEADER = "iter,r_jc1,r_jc2,r_jj,lagrangian,mu1,mu2"
SWEEP_HEADER = "algorithm,per,var,trial,ce,iters,seconds"
# The CLI calls each solve through this dict, so that perfbench can wrap one
# for the duration of a traced call without touching ALGORITHMS.
_ITERATIVE = {name: algorithm.solve for name, algorithm in ALGORITHMS.items()}
_ALGORITHMS = sorted(_ITERATIVE) + ["lrr"]
_LRR_DEFAULT_LAM = 2.0
# Exit KKT residuals at or below this print as 0: they are rounding noise, and
# their digits would tie stdout to the order of floating-point operations.
_KKT_PRINT_FLOOR = 1e-12
# The status a shell reports for a writer stopped by a closed pipe (128 + SIGPIPE).
EXIT_BROKEN_PIPE = 141

# Each setting's type (bool, int or float), read off SolverConfig's defaults.
_SETTING_TYPES = {name: type(value) for name, value in asdict(SolverConfig()).items()}
_BOOL_WORDS = {"true": True, "on": True, "yes": True, "1": True,
               "false": False, "off": False, "no": False, "0": False}
# The data flags of synth, sweep and tune take their defaults from SyntheticSpec.
_SPEC = datasets.SyntheticSpec()


def _parse_config_file(path: Path) -> dict:
    """Flat key = value file; '#' starts a comment; keys match SolverConfig
    fields, each at most once."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTING_TYPES:
            raise ValueError(f"{path}: line {lineno}: unknown setting {key!r}")
        if key in first_line:
            raise ValueError(f"{path}: line {lineno}: {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        kind = _SETTING_TYPES[key]
        try:
            out[key] = _BOOL_WORDS[value.lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            raise ValueError(f"{path}: line {lineno}: {key} wants {_KINDS[kind][1]}, "
                             f"got {value!r}") from None
    return out


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("solver settings")
    g.add_argument("--lam", type=float, help="rank penalty weight")
    g.add_argument("--tau", type=float, help="sparsity penalty weight (default 1 - lam)")
    g.add_argument("--gamma", type=float, help="nonconvexity level in (0, 1]")
    g.add_argument("--rho", type=float, help="mu growth factor")
    g.add_argument("--mu1", dest="mu1_init", type=float, help="initial mu for the rank split")
    g.add_argument("--mu2", dest="mu2_init", type=float,
                   help="initial mu for the sparsity split (sole mu for s0l0)")
    g.add_argument("--mu-max", dest="mu_max", type=float, help="mu cap")
    g.add_argument("--epsilon", type=float, help="stopping tolerance")
    g.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap")
    g.add_argument("--normalize-j", dest="normalize_j", action=argparse.BooleanOptionalAction,
                   default=None, help="rescale J columns to unit norm each iteration")
    g.add_argument("--config", type=Path, help="key = value file with solver settings")


def _solver_configs(args, algorithms) -> dict:
    """What each algorithm's solve takes, keyed by name: a SolverConfig for an
    ALGORITHMS record, LRR's weight for closed-form LRR.

    The config file is read once, also when only LRR runs, so a malformed
    file is rejected the same way for every algorithm.  A record's config is
    built from its defaults, then the file, then the flags, and checked by
    SolverConfig and the record's settings rule; LRR's weight is --lam or
    _LRR_DEFAULT_LAM, checked by LRR's own weight rule.  Every check runs
    here, so that a sweep fails before it makes any data or worker.
    """
    from_file = _parse_config_file(args.config) if args.config is not None else {}
    flags = {k: v for k, v in vars(args).items() if k in _SETTING_TYPES and v is not None}
    settings = {}
    for algorithm in algorithms:
        if algorithm in ALGORITHMS:
            settings[algorithm] = SolverConfig(
                **{**ALGORITHMS[algorithm].defaults, **from_file, **flags})
            ALGORITHMS[algorithm].check(settings[algorithm])
        else:
            settings[algorithm] = args.lam if args.lam is not None else _LRR_DEFAULT_LAM
            check_lrr_weight(settings[algorithm])
    return settings


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=_SPEC.ambient_dim, help="ambient dimension")
    p.add_argument("--d", type=int, default=_SPEC.subspace_dim, help="subspace dimension")
    p.add_argument("--L", type=int, default=_SPEC.num_subspaces, help="number of subspaces")
    p.add_argument("--union-rank", dest="union_rank", type=int, default=_SPEC.union_rank,
                   help="rank of the union of subspaces")


def _add_per_var_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--per", type=int, default=_SPEC.points_per_subspace,
                   help="points per subspace")
    p.add_argument("--var", type=float, default=_SPEC.noise_variance, help="noise variance")


def _synthetic_spec(args, per: int, var: float, seed: int) -> datasets.SyntheticSpec:
    """The SyntheticSpec of the data flags --n --d --L --union-rank at one size, noise and seed."""
    return datasets.SyntheticSpec(
        ambient_dim=args.n, subspace_dim=args.d, num_subspaces=args.L,
        points_per_subspace=per, noise_variance=var, union_rank=args.union_rank, seed=seed)


def _check_files(reads, writes) -> None:
    """ValueError unless a command can write each file of ``writes``: its
    directory exists, it is not a directory, and it is no other file the
    command reads or writes (paths compared once resolved; None entries are
    skipped).  Each command checks its files once, before it reads, solves
    or forks."""
    others = [path.resolve() for path in filter(None, reads)]
    for path in filter(None, writes):
        if not path.parent.is_dir():
            raise ValueError(f"output directory {path.parent} does not exist")
        if path.is_dir():
            raise ValueError(f"output {path} is a directory")
        if path.resolve() in others:
            raise ValueError(f"output {path} is also read or written by this command")
        others.append(path.resolve())


def cmd_synth(args) -> int:
    spec = _synthetic_spec(args, args.per, args.var, args.seed)
    x_path, labels_path = args.out_dir / "X.csv", args.out_dir / "labels.txt"
    _check_files([], [x_path, labels_path])
    ds = datasets.generate_synthetic(spec)
    datasets.save_matrix(x_path, ds.X)
    datasets.save_labels(labels_path, ds.truth)
    print(f"rank={lrr_noiseless(ds.X).active_set.size}")
    print(f"wrote {x_path} and {labels_path}", file=sys.stderr)
    return 0


def _format_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _write_trace(path, trace) -> None:
    """One row per iteration under TRACE_HEADER.

    The splits' gaps fill r_jc1, r_jc2 in update order, and their mu values
    fill mu1, mu2 from the last split back, so s0l0's one mu is mu2; a column
    no split fills stays empty.
    """
    r_jc = trace.r_jc + [None] * (2 - len(trace.r_jc))
    mu = [None] * (2 - len(trace.mu)) + trace.mu
    columns = [*r_jc, trace.r_jj, trace.lagrangian, *mu]
    lines = [TRACE_HEADER] + [
        ",".join([str(k)] + [_format_cell(None if col is None else col[k]) for col in columns])
        for k in range(trace.n_iters)]
    Path(path).write_text("\n".join(lines) + "\n")


def _solve_and_label(algorithm, settings, X, n_clusters, seed):
    """Cluster the columns of X with one algorithm: (labels, SolverTrace).

    ``settings`` is the algorithm's entry of ``_solver_configs``.  Closed-form
    LRR runs once at that weight and returns a one-row trace with every
    column empty and no exit KKT.
    """
    if algorithm in _ITERATIVE:
        C, trace = _ITERATIVE[algorithm](X, settings)
    else:
        C = lrr_noisy(X, settings).C
        trace = SolverTrace(variant=algorithm, r_jj=[None], lagrangian=[None],
                            termination="closed_form")
    W = spectral.build_affinity(C)
    del C  # the embedding holds W and one more N x N array, not C beside them
    return spectral.spectral_cluster(W, n_clusters, seed), trace


def cmd_cluster(args) -> int:
    _check_files([args.input, args.config], [args.labels_out, args.trace_out])
    settings = _solver_configs(args, [args.algorithm])[args.algorithm]
    X = datasets.load_matrix(args.input)
    spectral.check_n_clusters(args.clusters, X.shape[1])
    try:
        labels, trace = _solve_and_label(args.algorithm, settings, X, args.clusters, args.seed)
    except NumericalError as err:
        if err.trace is not None and args.trace_out is not None:
            _write_trace(args.trace_out, err.trace)
        raise
    datasets.save_labels(args.labels_out, labels)
    if args.trace_out is not None:
        _write_trace(args.trace_out, trace)
    if trace.kkt is not None:
        print(f"termination={trace.termination} iters={trace.n_iters}")
        kkt = trace.kkt
        # r1/r2 are the splits' gaps, r3 the gradient, r4/r5 the fixed points
        printed = [*zip(("r1", "r2"), kkt.gaps), ("r3", kkt.grad), *zip(("r4", "r5"), kkt.fixed)]
        for name, value in printed:
            text = "0" if value <= _KKT_PRINT_FLOOR else f"{value:.6e}"
            print(f"kkt_{name}={text}")
    print(f"wrote {args.labels_out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    _check_files([args.pred, args.truth], [args.csv_out])
    pred = datasets.load_labels(args.pred)
    truth = datasets.load_labels(args.truth)
    report = clustering_error(pred, truth)
    print(f"{report.ce:.6f}")
    if args.csv_out is not None:
        fresh = not args.csv_out.exists()
        with open(args.csv_out, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if fresh:
                writer.writerow(["pred", "truth", "n_points", "ce"])
            writer.writerow([args.pred, args.truth, report.n_points, f"{report.ce:.6f}"])
    return 0


def _sweep_cell(args, settings, task):
    algorithm, spec, per_idx, var_idx, trial = task
    data_seed = int(np.random.SeedSequence([args.seed, per_idx, var_idx, trial, 0])
                    .generate_state(1)[0])
    cluster_seed = int(np.random.SeedSequence([args.seed, per_idx, var_idx, trial, 1])
                      .generate_state(1)[0])
    ds = datasets.generate_synthetic(replace(spec, seed=data_seed))
    start = time.perf_counter()
    labels, trace = _solve_and_label(algorithm, settings[algorithm], ds.X, args.L, cluster_seed)
    seconds = time.perf_counter() - start
    ce = clustering_error(labels, ds.truth).ce
    return (f"{algorithm},{spec.points_per_subspace},{spec.noise_variance:g},{trial},"
            f"{ce:.6f},{trace.n_iters},{seconds:.3f}")


def _comma_list(text: str, flag: str, kind: type = str, known: list | None = None) -> list:
    """The values of a comma-list flag; ValueError names the flag and a bad or
    repeated value.  With ``known``, the flag lists algorithms from it."""
    values = []
    for item in text.split(","):
        try:
            value = kind(item)
        except ValueError:
            raise ValueError(f"--{flag} wants {_KINDS[kind][1]}, got {item!r}") from None
        if value in values:
            raise ValueError(f"--{flag} repeats {item!r}")
        values.append(value)
    unknown = [v for v in values if known is not None and v not in known]
    if unknown:
        raise ValueError(f"unknown algorithm(s) {unknown}, expected subset of {known}")
    return values


def cmd_sweep(args) -> int:
    """Write the grid's rows to --out, then print each algorithm's table of
    median clustering errors, a row per variance and a column per size."""
    _check_files([args.config], [args.out])
    algorithms = _comma_list(args.algorithms, "algorithms", known=_ALGORITHMS)
    pers = _comma_list(args.pers, "pers", int)
    variances = _comma_list(args.vars, "vars", float)
    settings = _solver_configs(args, algorithms)
    # Every spec of the grid is built, and so checked, before the first solve:
    # a built spec can be drawn, so no cell fails on its data's shape.
    specs = [[_synthetic_spec(args, per, var, seed=0) for var in variances] for per in pers]
    tasks = [(alg, spec, pi, vi, t)
             for alg in algorithms
             for pi, row in enumerate(specs)
             for vi, spec in enumerate(row)
             for t in range(args.trials)]
    rows = map_tasks(partial(_sweep_cell, args, settings), tasks, args.jobs)
    args.out.write_text("\n".join([SWEEP_HEADER] + rows) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    # The ce column as written; a cell's trials are consecutive rows.
    ce = np.array([float(row.split(",")[4]) for row in rows])
    medians = np.median(ce.reshape(len(algorithms), len(pers), len(variances), -1), axis=3)
    for algorithm, table in zip(algorithms, medians):
        print(f"\n{algorithm}: median CE over {args.trials} trials")
        print("  var\\per " + "".join(f"{per:>8d}" for per in pers))
        for var, row in zip(variances, table.T):
            print(f"  {var:<8g}" + "".join(f"{m:>8.1%}" for m in row))
    return 0


def cmd_tune(args) -> int:
    """Run grid_search once per algorithm from SolverConfig(mu2_init=5.0) on
    its record's grid, and print every scored cell and the winner."""
    spec = datasets.SyntheticSpec(points_per_subspace=args.per, noise_variance=args.var)
    for alg in _comma_list(args.algorithms, "algorithms", known=sorted(ALGORITHMS)):
        print(f"== {alg} (var={args.var}) ==")
        result = grid_search(spec, alg, ALGORITHMS[alg].grid, trials=args.trials, seed=args.seed,
                             base_config=SolverConfig(mu2_init=5.0), jobs=args.jobs)
        for p in result.table:
            print(f"  {alg}: lam={p.lam:.6f} gamma={p.gamma:.1f} mu={p.mu2_init:g}"
                  f"  median={p.median_ce:.4f}")
        best = result.best_config
        print(f"--> {alg}: lam={best.lam:.6f} gamma={best.gamma:.1f} "
              f"mu2_init={best.mu2_init:g} median CE={result.best_median_ce:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrssc",
        description="Low-rank sparse subspace clustering benchmark tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    _add_data_flags(p)
    _add_per_var_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("."),
                   help="existing directory for X.csv and labels.txt")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="cluster a data matrix from file")
    p.add_argument("--input", type=Path, required=True, help="matrix CSV (rows = features)")
    p.add_argument("--algorithm", choices=_ALGORITHMS, default="gmc")
    p.add_argument("--clusters", type=int, required=True, help="number of clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels-out", dest="labels_out", type=Path, default=Path("labels.txt"))
    p.add_argument("--trace-out", dest="trace_out", type=Path, default=None,
                   help="per-iteration trace CSV")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="clustering error between two label files")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--csv-out", dest="csv_out", type=Path, default=None,
                   help="append a result row to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="synthetic benchmark grid over noise and size")
    p.add_argument("--pers", default=str(_SPEC.points_per_subspace),
                   help="comma list of points per subspace")
    p.add_argument("--vars", default=str(_SPEC.noise_variance),
                   help="comma list of noise variances")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help=f"comma list from {_ALGORITHMS}")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_data_flags(p)
    p.add_argument("--out", type=Path, required=True, help="results CSV path")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the cells, capped at the usable cores; "
                        "above 1, each worker runs BLAS on one thread")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tune", help="grid-search each algorithm's weights on synthetic data")
    p.add_argument("--algorithms", default=",".join(sorted(ALGORITHMS)),
                   help=f"comma list from {sorted(ALGORITHMS)}")
    _add_per_var_flags(p)
    p.add_argument("--trials", type=int, default=10, help="datasets scored per grid cell")
    p.add_argument("--seed", type=int, default=777)
    p.add_argument("--jobs", type=int, default=4, help="worker processes for the trials")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; its exit status is 0, 1 on an error, or
    EXIT_BROKEN_PIPE when the reader of standard output has gone."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        for flag in ("trials", "jobs"):
            if getattr(args, flag, 1) < 1:
                raise ValueError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at the exit's flush
        return status
    except BrokenPipeError:
        # End quietly, as a filter does under `| head`; what is still buffered
        # goes to devnull, so that the interpreter's final flush finds no pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, DegenerateAffinityError, NumericalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
