"""Smoke tests of the scripts under scripts/, each run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The script's tuning output, pinned byte for byte: grid_search must keep the
# trial seeding, median scoring and first-minimum picks that produced it.
TUNE_CONVEX_STDOUT = (
    "== lrssc-convex (var=0.0) ==\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=5  median=0.1667\n"
    "  lrssc-convex: lam=0.990099 gamma=0.6 mu=5  median=0.2000\n"
    "  lrssc-convex: lam=0.909091 gamma=0.6 mu=5  median=0.3000\n"
    "  lrssc-convex: lam=0.500000 gamma=0.6 mu=5  median=0.2333\n"
    "  lrssc-convex: lam=0.090909 gamma=0.6 mu=5  median=0.2667\n"
    "  lrssc-convex: lam=0.009901 gamma=0.6 mu=5  median=0.3000\n"
    "  lrssc-convex: lam=0.000999 gamma=0.6 mu=5  median=0.3000\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=1  median=0.1667\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=3  median=0.1667\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=5  median=0.1667\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=10  median=0.2000\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=20  median=0.1667\n"
    "--> lrssc-convex: lam=0.999001 gamma=0.6 mu2_init=1 median CE=0.1667\n"
)


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_tune_defaults_small_grid():
    done = _run("tune_defaults.py", "--solver", "lrssc-convex", "--trials", "3",
                "--per", "10", "--jobs", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == TUNE_CONVEX_STDOUT


def test_tune_defaults_rejects_zero_jobs():
    done = _run("tune_defaults.py", "--jobs", "0")
    assert done.returncode == 2
    assert "--jobs must be at least 1" in done.stderr


def test_tune_defaults_rejects_zero_trials():
    done = _run("tune_defaults.py", "--solver", "lrssc-convex", "--trials", "0",
                "--per", "10", "--jobs", "1")
    assert done.returncode == 2
    assert "--trials must be at least 1, got 0" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("flags, message", [
    (["--per", "0"], "dimensions and counts must be positive"),
    (["--var", "-1"], "noise_variance must be nonnegative, got -1.0"),
    (["--tune-seed", "-1"], "--tune-seed must be non-negative, got -1"),
])
def test_tune_defaults_rejects_bad_dataset_shape(flags, message):
    done = _run("tune_defaults.py", "--solver", "lrssc-convex", "--trials", "1", *flags)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ")
    assert f"tune_defaults.py: error: {message}\n" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""

