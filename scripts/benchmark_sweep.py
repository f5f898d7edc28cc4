"""Run the desk-scale benchmark grid and print median-error pivot tables.

Wraps the ``lrssc sweep`` command (so the CSV format stays the documented
one) over points-per-subspace x noise-variance for all four algorithms,
then summarizes each algorithm as a per x var table of median clustering
errors.

Run from the repository root:

    python3 scripts/benchmark_sweep.py --out results.csv
"""

import argparse
import csv
import sys
from collections import defaultdict

import numpy as np

from lrssc.cli import main as lrssc_main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pers", default="50,100", help="comma list of points per subspace")
    p.add_argument("--vars", default="0.0,0.1,0.3", help="comma list of noise variances")
    p.add_argument("--algorithms", default="gmc,s0l0,lrssc-convex,lrr")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=8)
    p.add_argument("--out", required=True, help="results CSV path")
    return p.parse_args(argv)


def median_tables(csv_path):
    cells = defaultdict(list)
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            cells[(row["algorithm"], int(row["per"]), float(row["var"]))].append(float(row["ce"]))
    tables = {}
    for (algorithm, per, var), ces in cells.items():
        tables.setdefault(algorithm, {})[(per, var)] = float(np.median(ces))
    return tables


def main(argv=None) -> int:
    args = parse_args(argv)
    code = lrssc_main([
        "sweep", "--pers", args.pers, "--vars", args.vars,
        "--algorithms", args.algorithms, "--trials", str(args.trials),
        "--seed", str(args.seed), "--jobs", str(args.jobs),
        "--out", args.out,
    ])
    if code != 0:
        return code

    pers = [int(v) for v in args.pers.split(",")]
    variances = [float(v) for v in args.vars.split(",")]
    for algorithm, table in median_tables(args.out).items():
        print(f"\n{algorithm}: median CE over {args.trials} trials")
        print("  var\\per " + "".join(f"{per:>8d}" for per in pers))
        for var in variances:
            row = "".join(f"{table[(per, var)]:>8.1%}" for per in pers)
            print(f"  {var:<8g}{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
