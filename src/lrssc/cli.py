"""Command-line interface: synthesize data, cluster it, score labels, run sweeps.

Data goes to files or stdout, diagnostics to stderr; every subcommand's
randomness is pinned by --seed.  Solver settings resolve in the order
command-line flag > config file entry > built-in per-algorithm default.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import datasets, spectral
from .baselines import lrr_noiseless, lrr_noisy
from .evaluation import clustering_error
from .exceptions import DegenerateAffinityError, NumericalError
from .parallel import map_tasks
from .solvers import ALGORITHMS, SolverConfig

TRACE_HEADER = "iter,r_jc1,r_jc2,r_jj,lagrangian,mu1,mu2"
SWEEP_HEADER = "algorithm,per,var,trial,ce,iters,seconds"
# The CLI calls each solve through this dict, so that perfbench can wrap one
# for the duration of a traced call without touching ALGORITHMS.
_ITERATIVE = {name: algorithm.solve for name, algorithm in ALGORITHMS.items()}
_ALGORITHMS = sorted(_ITERATIVE) + ["lrr"]
_LRR_DEFAULT_LAM = 2.0

_CONFIG_FIELD_TYPES = {f.name: f for f in fields(SolverConfig)}
_BOOL_WORDS = {"true": True, "on": True, "yes": True, "1": True,
               "false": False, "off": False, "no": False, "0": False}


def _parse_config_file(path: Path) -> dict:
    """Flat key = value file; '#' starts a comment; keys match SolverConfig fields."""
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FIELD_TYPES:
            raise ValueError(f"{path}: line {lineno}: unknown setting {key!r}")
        if key in ("normalize_j", "scale_by_mu"):
            if value.lower() not in _BOOL_WORDS:
                raise ValueError(f"{path}: line {lineno}: {key} wants a boolean, got {value!r}")
            out[key] = _BOOL_WORDS[value.lower()]
        elif key == "max_iters":
            out[key] = int(value)
        else:
            out[key] = float(value)
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
    g.add_argument("--scale-by-mu", dest="scale_by_mu", action=argparse.BooleanOptionalAction,
                   default=None, help="rescale lam/tau by the initial mu2")
    g.add_argument("--config", type=Path, help="key = value file with solver settings")


def _solver_config(args, algorithm: str) -> SolverConfig:
    merged = dict(ALGORITHMS[algorithm].defaults)
    if args.config is not None:
        merged.update(_parse_config_file(args.config))
    for name in _CONFIG_FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return SolverConfig(**merged)


def cmd_synth(args) -> int:
    spec = datasets.SyntheticSpec(
        ambient_dim=args.n, subspace_dim=args.d, num_subspaces=args.L,
        points_per_subspace=args.per, noise_variance=args.var,
        union_rank=args.union_rank, seed=args.seed)
    out_dir = args.out_dir
    if not out_dir.is_dir():
        raise ValueError(f"output directory {out_dir} does not exist")
    ds = datasets.generate_synthetic(spec)
    datasets.save_matrix(out_dir / "X.csv", ds.X)
    datasets.save_labels(out_dir / "labels.txt", ds.truth)
    print(f"rank={lrr_noiseless(ds.X).active_set.size}")
    print(f"wrote {out_dir / 'X.csv'} and {out_dir / 'labels.txt'}", file=sys.stderr)
    return 0


def _format_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _write_trace(path, trace) -> None:
    lines = [TRACE_HEADER]
    if trace is None:
        # closed-form run: single placeholder row
        lines.append("0,,,,,,")
    else:
        for k in range(trace.n_iters):
            lines.append(",".join([
                str(k),
                _format_cell(trace.r_jc1[k]),
                _format_cell(trace.r_jc2[k] if trace.r_jc2 is not None else None),
                _format_cell(trace.r_jj[k]),
                _format_cell(trace.lagrangian[k]),
                _format_cell(trace.mu1[k] if trace.mu1 is not None else None),
                _format_cell(trace.mu2[k]),
            ]))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_cluster(args) -> int:
    X = datasets.load_matrix(args.input)
    trace = None
    if args.algorithm == "lrr":
        lam = args.lam if args.lam is not None else _LRR_DEFAULT_LAM
        C = lrr_noisy(X, lam).C
    else:
        cfg = _solver_config(args, args.algorithm)
        solve = _ITERATIVE[args.algorithm]
        try:
            C, trace = solve(X, cfg)
        except NumericalError as err:
            if err.trace is not None and args.trace_out is not None:
                _write_trace(args.trace_out, err.trace)
            raise
    W = spectral.build_affinity(C)
    labels = spectral.spectral_cluster(W, args.clusters, args.seed)
    datasets.save_labels(args.labels_out, labels)
    if args.trace_out is not None:
        _write_trace(args.trace_out, trace)
    if trace is not None:
        print(f"termination={trace.termination} iters={trace.n_iters}")
        kkt = trace.kkt
        for name in ("r1", "r2", "r3", "r4", "r5"):
            value = getattr(kkt, name)
            if value is not None:
                print(f"kkt_{name}={value:.6e}")
    print(f"wrote {args.labels_out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    pred = datasets.load_labels(args.pred)
    truth = datasets.load_labels(args.truth)
    report = clustering_error(pred, truth)
    print(f"{report.ce:.6f}")
    if args.csv_out is not None:
        fresh = not args.csv_out.exists()
        with open(args.csv_out, "a") as fh:
            if fresh:
                fh.write("pred,truth,n_points,ce\n")
            fh.write(f"{args.pred},{args.truth},{report.n_points},{report.ce:.6f}\n")
    return 0


def _sweep_cell(args, cfgs, task):
    algorithm, per, var, per_idx, var_idx, trial = task
    data_seed = int(np.random.SeedSequence([args.seed, per_idx, var_idx, trial, 0])
                    .generate_state(1)[0])
    cluster_seed = int(np.random.SeedSequence([args.seed, per_idx, var_idx, trial, 1])
                      .generate_state(1)[0])
    spec = datasets.SyntheticSpec(
        ambient_dim=args.n, subspace_dim=args.d, num_subspaces=args.L,
        points_per_subspace=per, noise_variance=var,
        union_rank=args.union_rank, seed=data_seed)
    ds = datasets.generate_synthetic(spec)
    start = time.perf_counter()
    if algorithm == "lrr":
        lam = args.lam if args.lam is not None else _LRR_DEFAULT_LAM
        C, iters = lrr_noisy(ds.X, lam).C, 1
    else:
        C, trace = _ITERATIVE[algorithm](ds.X, cfgs[algorithm])
        iters = trace.n_iters
    W = spectral.build_affinity(C)
    labels = spectral.spectral_cluster(W, args.L, cluster_seed)
    seconds = time.perf_counter() - start
    ce = clustering_error(labels, ds.truth).ce
    return f"{algorithm},{per},{var:g},{trial},{ce:.6f},{iters},{seconds:.3f}"


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    pers = [int(v) for v in args.pers.split(",")]
    variances = [float(v) for v in args.vars.split(",")]
    algorithms = args.algorithms.split(",")
    unknown = [a for a in algorithms if a not in _ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm(s) {unknown}, expected subset of {_ALGORITHMS}")
    cfgs = {alg: _solver_config(args, alg) for alg in algorithms if alg != "lrr"}
    tasks = [(alg, per, var, pi, vi, t)
             for alg in algorithms
             for pi, per in enumerate(pers)
             for vi, var in enumerate(variances)
             for t in range(args.trials)]
    rows = map_tasks(partial(_sweep_cell, args, cfgs), tasks, args.jobs)
    args.out.write_text("\n".join([SWEEP_HEADER] + rows) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrssc",
        description="Low-rank sparse subspace clustering benchmark tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    p.add_argument("--n", type=int, default=100, help="ambient dimension")
    p.add_argument("--d", type=int, default=5, help="subspace dimension")
    p.add_argument("--L", type=int, default=3, help="number of subspaces")
    p.add_argument("--per", type=int, default=50, help="points per subspace")
    p.add_argument("--var", type=float, default=0.0, help="noise variance")
    p.add_argument("--union-rank", dest="union_rank", type=int, default=10,
                   help="rank of the union of subspaces")
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
    p.add_argument("--pers", default="50", help="comma list of points per subspace")
    p.add_argument("--vars", default="0.0", help="comma list of noise variances")
    p.add_argument("--algorithms", default="gmc,s0l0,lrssc-convex",
                   help=f"comma list from {_ALGORITHMS}")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--L", type=int, default=3)
    p.add_argument("--union-rank", dest="union_rank", type=int, default=10)
    p.add_argument("--out", type=Path, required=True, help="results CSV path")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the cells, capped at the usable cores; "
                        "above 1, each worker runs BLAS on one thread")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DegenerateAffinityError, NumericalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
