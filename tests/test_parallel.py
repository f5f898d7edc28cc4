"""The order-preserving task map behind sweeps and benchmark grids."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from lrssc import NumericalError, parallel, prox

_PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_workers_run_with_blas_pinned_and_parent_env_restored(monkeypatch):
    # force real workers even on a one-core machine
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    tasks = list(_PINNED) * 2
    assert parallel.map_tasks(os.getenv, tasks, jobs=2) == ["1"] * len(tasks)
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert os.environ["OMP_NUM_THREADS"] == "4"


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected_before_any_task_runs(jobs):
    def never(task):
        raise AssertionError("a task ran")

    with pytest.raises(ValueError, match="at least 1"):
        parallel.map_tasks(never, [1, 2], jobs=jobs)


def _svt_input(seed=3):
    return np.random.default_rng(seed).standard_normal((30, 24))


@pytest.fixture
def scipy_blas_threads():
    """The thread count of scipy's own BLAS, set to 2 for the test."""
    controls = parallel._find_scipy_blas()
    if controls is None:
        pytest.skip("scipy's BLAS exposes no thread count here")
    get, put = controls
    saved = get()
    put(2)
    yield get
    put(saved)


def _spy_on(monkeypatch, name, action):
    real = getattr(lapack, name)

    def spy(*args, **kw):
        action()
        return real(*args, **kw)
    monkeypatch.setattr(lapack, name, spy)


def test_svt_pins_scipy_blas_while_lapack_runs(monkeypatch, scipy_blas_threads):
    seen = []
    _spy_on(monkeypatch, "dsytrd", lambda: seen.append(scipy_blas_threads()))
    _spy_on(monkeypatch, "dormqr", lambda: seen.append(scipy_blas_threads()))
    prox.svt_hard(_svt_input(), 2.0)
    assert seen and set(seen) == {1}
    assert scipy_blas_threads() == 2


def test_pin_restored_after_error_inside(monkeypatch, scipy_blas_threads):
    def fail():
        raise NumericalError("synthetic failure inside the pinned section")

    _spy_on(monkeypatch, "dsterf", fail)
    with pytest.raises(NumericalError, match="synthetic"):
        prox.svt_firm(_svt_input(), prox.ThresholdParams(lam=1.0, a=2.0))
    assert scipy_blas_threads() == 2


def test_pin_shared_by_concurrent_svts(monkeypatch, scipy_blas_threads):
    """Two SVTs in two threads meet inside the pinned section; the count is
    one while either is inside and comes back when both have left."""
    M = _svt_input()
    ref = prox.svt_hard(M, 2.0)
    barrier = threading.Barrier(2, timeout=30)
    seen = []

    def meet():
        barrier.wait()
        seen.append(scipy_blas_threads())
        barrier.wait()

    _spy_on(monkeypatch, "dsytrd", meet)
    outs = [None, None]

    def run(i):
        outs[i] = prox.svt_hard(M, 2.0)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert seen == [1, 1]
    assert scipy_blas_threads() == 2
    for out in outs:
        np.testing.assert_array_equal(out, ref)


def test_svt_runs_unpinned_without_a_thread_setter(monkeypatch):
    M = _svt_input()
    params = prox.ThresholdParams(lam=1.0, a=2.0)
    refs = prox.svt_firm(M, params), prox.svt_hard(M, 2.0)
    monkeypatch.setattr(parallel, "_find_scipy_blas", lambda: None)
    monkeypatch.setattr(parallel, "_scipy_blas", parallel._UNRESOLVED)
    outs = prox.svt_firm(M, params), prox.svt_hard(M, 2.0)
    assert parallel._scipy_blas is None
    for out, ref in zip(outs, refs):
        np.testing.assert_array_equal(out, ref)


def test_blas_lookup_waits_for_the_first_svt():
    """Importing the CLI does not look up scipy's BLAS; the first firm SVT does."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import numpy as np, lrssc.cli\n"
            "from lrssc import parallel, prox\n"
            "print(parallel._scipy_blas is parallel._UNRESOLVED)\n"
            "prox.svt_firm(np.eye(3), prox.ThresholdParams(lam=0.5, a=1.0))\n"
            "print(parallel._scipy_blas is parallel._UNRESOLVED)\n")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\nFalse\n"
