"""Smoke tests of the scripts under scripts/, each run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_tune_defaults_small_grid():
    done = _run("tune_defaults.py", "--solver", "lrssc-convex", "--trials", "1",
                "--per", "10", "--jobs", "1")
    assert done.returncode == 0, done.stderr
    assert "\n--> lrssc-convex: lam=" in done.stdout


def test_tune_defaults_rejects_zero_jobs():
    done = _run("tune_defaults.py", "--jobs", "0")
    assert done.returncode == 2
    assert "--jobs must be at least 1" in done.stderr


def test_benchmark_sweep_prints_a_table_per_algorithm(tmp_path):
    done = _run("benchmark_sweep.py", "--pers", "10", "--vars", "0", "--trials", "1",
                "--jobs", "1", "--algorithms", "gmc,lrr", "--out", str(tmp_path / "out.csv"))
    assert done.returncode == 0, done.stderr
    for algorithm in ("gmc", "lrr"):
        assert f"\n{algorithm}: median CE over 1 trials\n" in done.stdout
    assert (tmp_path / "out.csv").read_text().count("\n") == 3  # header + one row each
