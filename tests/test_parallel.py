"""The order-preserving task map behind sweeps and benchmark grids."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
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


def _parent_pid(_task):
    return os.getppid()


def _worker_parent_pids():
    """Parent pid of the worker that ran each of two tasks."""
    return parallel.map_tasks(_parent_pid, range(2), jobs=2)


def test_pools_fork_from_one_reused_server(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    first, second = _worker_parent_pids(), _worker_parent_pids()
    assert len(set(first + second)) == 1
    assert first[0] != os.getpid()


def test_later_pools_stay_pinned_after_parent_env_changes(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    parallel.map_tasks(os.getenv, _PINNED, jobs=2)
    for key in _PINNED:
        monkeypatch.setenv(key, "4")
    assert parallel.map_tasks(os.getenv, _PINNED, jobs=2) == ["1", "1"]
    assert [os.environ[key] for key in _PINNED] == ["4", "4"]


def test_task_error_is_raised_in_the_parent(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    with pytest.raises(ValueError, match="math domain error"):
        parallel.map_tasks(math.sqrt, [4.0, -1.0], jobs=2)


def test_spawn_where_there_is_no_forkserver(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    tasks = [9.0, 2.0, 0.25]
    forked = parallel.map_tasks(math.sqrt, tasks, jobs=2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.map_tasks(math.sqrt, tasks, jobs=2) == forked
    # spawned workers are children of this process, not of the server
    assert _worker_parent_pids() == [os.getpid()] * 2


def _run_python(code, env=None):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_server_preloads_lrssc_from_the_callers_import_path():
    """Found through a sys.path entry alone, lrssc is preloaded from there."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from lrssc import parallel\n"
            "parallel.usable_cores = lambda: 2\n"
            "probe = \"__import__('sys').modules['lrssc.cli'].__file__\"\n"
            "print(parallel.map_tasks(eval, [probe] * 2, jobs=2))\n")
    done = _run_python(code, env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[str(src / 'lrssc' / 'cli.py')] * 2}\n"


def test_server_exits_with_its_process():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("from lrssc import parallel\n"
            "parallel.usable_cores = lambda: 2\n"
            "probe = \"__import__('os').getppid()\"\n"
            "print(parallel.map_tasks(eval, [probe] * 2, jobs=2)[0])\n")
    done = _run_python(code, env)
    assert done.returncode == 0, done.stderr
    server = int(done.stdout)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.kill(server, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    pytest.fail(f"server {server} still running 10 s after its process exited")


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
