"""Worker process of the benchmark: set up one workload and run it.

Started by ``run.py`` in one of four modes:

* ``setup``: import ``lrssc.cli`` and write the workload's input, then report
  the time from process start to ready.  Several of these give ``setup_s``.
* ``e2e``: set up, warm up once, then run the workload's CLI operation in a
  closed loop with one client for ``--seconds``, tracing off.
* ``trace``: as ``e2e``, but alternate untraced and traced operations, so the
  traced ones give per-layer metrics and the pair gives the tracing overhead.
* ``baseline``: one operation, plain; ``run.py`` starts it with BLAS pinned to
  one thread (and the sweep at ``--jobs 1``) as the single-threaded baseline.

Every operation is checked: ``cli.main`` returns 0, labels have length N and
values in [0, 3), the sweep CSV has its rows in grid order, and repeated
operations on one input give identical output digests.  The result goes to
the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CLUSTERS = 3
NOISE = 0.01
# cluster workload -> (algorithm, points per subspace)
CLUSTER_RUNS = {"cluster-gmc-600": ("gmc", 200), "cluster-lrr-1500": ("lrr", 500)}
SWEEP_RUN = "sweep-150-jobs2"
SWEEP = {"pers": "50", "vars": "0.0,0.2", "algorithms": "gmc,s0l0,lrssc-convex,lrr",
         "trials": 5, "jobs": 2}


class Workload:
    """One CLI operation on inputs made from the seed; knows how to check it."""

    def __init__(self, name: str, workdir: Path, seed: int):
        if name not in CLUSTER_RUNS and name != SWEEP_RUN:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.workdir, self.seed = name, workdir, seed
        self.kind = "cluster" if name in CLUSTER_RUNS else "sweep"

    def setup(self):
        from lrssc import cli, datasets  # noqa: F401  (import is part of set-up)

        if self.kind == "cluster":
            self.algorithm, per = CLUSTER_RUNS[self.name]
            spec = datasets.SyntheticSpec(
                points_per_subspace=per, noise_variance=NOISE, seed=self.seed)
            ds = datasets.generate_synthetic(spec)
            datasets.save_matrix(self.workdir / "X.csv", ds.X)
            self.truth = [int(v) for v in ds.truth]

    def argv(self, single_thread: bool = False, warmup: bool = False) -> list:
        if self.kind == "cluster":
            return ["cluster", "--algorithm", self.algorithm, "--clusters", str(CLUSTERS),
                    "--input", str(self.workdir / "X.csv"), "--seed", str(self.seed),
                    "--labels-out", str(self.workdir / "labels.txt")]
        jobs = 1 if single_thread else SWEEP["jobs"]
        trials = 1 if warmup else SWEEP["trials"]
        return ["sweep", "--pers", SWEEP["pers"], "--vars", SWEEP["vars"],
                "--algorithms", SWEEP["algorithms"], "--trials", str(trials),
                "--jobs", str(jobs), "--seed", str(self.seed),
                "--out", str(self.workdir / "sweep.csv")]

    def check(self, rc: int, warmup: bool = False) -> dict:
        """Validate the output of one operation; returns its digest, CE and cell times."""
        if rc != 0:
            raise ValueError(f"cli.main returned {rc}")
        if self.kind == "cluster":
            raw = (self.workdir / "labels.txt").read_bytes()
            labels = [int(v) for v in raw.split()]
            if len(labels) != len(self.truth):
                raise ValueError(f"{len(labels)} labels for {len(self.truth)} points")
            if not all(0 <= v < CLUSTERS for v in labels):
                raise ValueError("label outside [0, 3)")
            return {"digest": _digest(raw), "ce": [_clustering_error(labels, self.truth)],
                    "cells": 1, "cell_s": []}
        lines = (self.workdir / "sweep.csv").read_text().splitlines()
        from lrssc.cli import SWEEP_HEADER

        if not lines or lines[0] != SWEEP_HEADER:
            raise ValueError("sweep CSV header differs from the documented one")
        rows = [line.split(",") for line in lines[1:]]
        expected = _sweep_grid(1 if warmup else SWEEP["trials"])
        if len(rows) != len(expected):
            raise ValueError(f"sweep CSV has {len(rows)} rows, expected {len(expected)}")
        for row, (alg, per, var, t) in zip(rows, expected):
            if len(row) != 7 or (row[0], row[1], float(row[2]), int(row[3])) != (
                    alg, per, float(var), t):
                raise ValueError(f"sweep row {row} out of grid order, expected {alg},{per},{var},{t}")
            if not 0.0 <= float(row[4]) <= 1.0 or int(row[5]) < 1 or float(row[6]) < 0:
                raise ValueError(f"sweep row {row} has a value out of range")
        return {"digest": _digest("\n".join(",".join(row[:6]) for row in rows).encode()),
                "ce": [float(row[4]) for row in rows],
                "cells": len(rows), "cell_s": [float(row[6]) for row in rows]}


def _sweep_grid(trials: int) -> list:
    """(algorithm, per, var, trial) of each sweep row, in the documented order."""
    return [(alg, per, var, t)
            for alg in SWEEP["algorithms"].split(",")
            for per in SWEEP["pers"].split(",")
            for var in SWEEP["vars"].split(",")
            for t in range(trials)]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _clustering_error(pred, truth) -> float:
    """Brute force over label permutations; independent of lrssc.evaluation."""
    best = max(sum(perm[p] == t for p, t in zip(pred, truth))
               for perm in itertools.permutations(range(CLUSTERS)))
    return (len(truth) - best) / len(truth)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _call(argv) -> tuple:
    from lrssc import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, time.perf_counter() - start, sink.getvalue()


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self, workload: Workload):
        self.workload, self.attempted, self.failed = workload, 0, 0
        self.errors, self.digests = [], set()

    def run(self, argv, warmup: bool = False):
        self.attempted += 1
        output = ""
        try:
            rc, seconds, output = _call(argv)
            outcome = self.workload.check(rc, warmup)
        except Exception as err:  # a raising operation is a failed one, not a crash
            self.failed += 1
            self.errors.append(f"{type(err).__name__}: {err} {output.strip()[-300:]}".strip())
            return None, None
        if not warmup:
            self.digests.add(outcome["digest"])
            if len(self.digests) > 1:
                self.failed += 1
                self.errors.append("repeated operations gave different outputs")
                return None, None
        return seconds, outcome


def run_loop(workload: Workload, seconds: float, trace: bool) -> dict:
    import spans

    tally = Tally(workload)
    tally.run(workload.argv(warmup=True), warmup=True)
    untraced, traced, outcomes, layer, nesting = [], [], [], [], True
    start = time.perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        use_trace = trace and i % 2 == 1
        op_start = time.perf_counter()
        if use_trace:
            rec = spans.Recorder()
            with spans.traced(rec):
                took, outcome = tally.run(workload.argv())
        else:
            took, outcome = tally.run(workload.argv())
        if outcome is not None:
            outcomes.append(outcome)
            (traced if use_trace else untraced).append(took)
            if use_trace:
                selfs = spans.self_times(rec.spans)
                nesting &= spans.nesting_ok(rec.spans, selfs)
                layer.append(spans.layer_metrics(rec.spans))
        # Start no operation that would likely end past the deadline, so a run
        # lasts about --seconds whatever the operation time.
        now = time.perf_counter()
        need_both = trace and not (traced and untraced) and not tally.failed
        if not need_both and now + (now - op_start) > deadline:
            break
    wall = time.perf_counter() - start
    ces = [ce for o in outcomes for ce in o["ce"]]
    return {
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors[:3],
        "digests": sorted(tally.digests), "wall_s": wall,
        "op_s": untraced, "traced_op_s": traced,
        "cells": sum(o["cells"] for o in outcomes),
        "cell_s": [c for o in outcomes for c in o["cell_s"]],
        "ce_median": statistics.median(ces) if ces else None,
        "layer": layer, "nesting_ok": nesting,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=["setup", "e2e", "trace", "baseline"], required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spawned-at", dest="spawned_at", type=float, required=True,
                   help="time.time() taken just before this process was started")
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    workload = Workload(args.workload, args.workdir, args.seed)
    workload.setup()
    result = {"setup_s": time.time() - args.spawned_at}
    if args.mode == "baseline":
        tally = Tally(workload)
        took, _ = tally.run(workload.argv(single_thread=True))
        result.update(op_s=took, failed=tally.failed, errors=tally.errors)
    elif args.mode in ("e2e", "trace"):
        result.update(run_loop(workload, args.seconds, args.mode == "trace"))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment(args.seed)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
