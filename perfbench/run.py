"""Benchmark of the lrssc CLI: one workload per run, or all of them.

Run from the repository root:

    python3 perfbench/run.py --workload all

prints every end-to-end metric of every workload, by name and with its unit,
and exits non-zero if any correctness check fails.  The form the benchmark
contract uses is

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def percentile(values, pct: int) -> float:
    """Inclusive-method percentile, the median at 50."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n_samples: int, ladder=(50, 75, 90, 95, 99)):
    """Highest percentile of the ladder with at least 10 samples beyond it, or None."""
    ok = [p for p in ladder if n_samples * (100 - p) >= 1000]
    return max(ok) if ok else None


def _worker(mode, workload, seed, seconds, workdir, env=None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / f"{mode}.json"
    spawned_at = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--mode", mode, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir),
         "--spawned-at", repr(spawned_at), "--result", str(result)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    main = _worker("trace" if trace else "e2e", workload, seed, seconds, workdir / "main")
    detail = {"workload": workload, "environment": main["environment"],
              "digests": main["digests"], "ce_median": main["ce_median"],
              "errors": main["errors"]}
    if not main["op_s"]:
        raise RuntimeError(f"no {workload} operation passed its checks: {main['errors']}")
    attempted, failed = main["attempted"], main["failed"]
    correct = failed == 0
    if not trace:
        setups = [main["setup_s"]] + [
            _worker("setup", workload, seed, 0, workdir / f"setup{i}")["setup_s"]
            for i in range(SETUP_SAMPLES - 1)]
        ops, cells = main["op_s"], main["cell_s"] or main["op_s"]
        tail = tail_percentile(len(cells))
        metrics = {
            "setup_s": statistics.median(setups),
            "pipeline_s.p50": statistics.median(ops),
            "cells_per_s": main["cells"] / main["wall_s"],
            "cell_s.p50": percentile(cells, 50),
            "cell_s.p75": percentile(cells, 75),
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        detail.update(setup_samples=len(setups), ops=len(ops), cells=len(cells),
                      cell_tail=None if tail is None else {
                          "pct": tail, "value": percentile(cells, tail)})
    else:
        env = dict(os.environ, **SINGLE_THREAD_ENV)
        base = _worker("baseline", workload, seed, 0, workdir / "baseline", env=env)
        if base["op_s"] is None:
            raise RuntimeError(f"single-threaded baseline failed: {base['errors']}")
        attempted, failed = attempted + 1, failed + base["failed"]
        correct = failed == 0 and main["nesting_ok"]
        layer = main["layer"]
        metrics = {name: statistics.median(op[name] for op in layer) for name in layer[0]}
        untraced = statistics.median(main["op_s"])
        cores = main["environment"]["affinity"]
        metrics.update({
            "ce_median": main["ce_median"],
            "trace.overhead_frac": statistics.median(main["traced_op_s"]) / untraced - 1.0,
            "baseline.single_thread_s": base["op_s"],
            "cli.parallel_efficiency": base["op_s"] / (cores * untraced),
        })
        detail.update(traced_ops=len(main["traced_op_s"]), untraced_ops=len(main["op_s"]),
                      nesting_ok=main["nesting_ok"], errors=main["errors"] + base["errors"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if set(wanted) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(wanted) ^ set(metrics))}")
    return {"detail": detail, "result": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted}}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lrssc" / "cli.py").is_file():
        print(f"error: no lrssc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    all_correct = True
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               workdir / workload)
            all_correct &= out["result"]["correct"]
            print(f"== {workload}  seed={args.seed}  seconds={args.seconds}  "
                  f"trace={args.trace}  correct={out['result']['correct']}")
            for name, m in out["result"]["metrics"].items():
                print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
            print("detail " + json.dumps(out["detail"]))
            print(json.dumps(out["result"]), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
