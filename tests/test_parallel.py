"""The order-preserving task map behind sweeps and benchmark grids."""

import ctypes
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
import scipy.linalg
import scipy.linalg.cython_blas
from scipy.linalg import lapack

from lrssc import (NumericalError, SolverConfig, build_affinity, gmc_lrssc_solve,
                   lrr_noiseless, lrr_noisy, parallel, spectral_cluster)

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


_FEW_ITERS = SolverConfig(max_iters=3, epsilon=1e-300)


@pytest.fixture
def blas_threads(numpy_threads):
    """(numpy's, scipy's) thread-count getters, numpy's count set to 2 for the test."""
    if numpy_threads is None:
        pytest.skip("numpy's BLAS is not pinned here")
    scipy_controls = parallel._thread_controls(scipy.linalg.cython_blas.__file__)
    if scipy_controls is None:
        pytest.skip("scipy's BLAS exposes no thread count here")
    yield numpy_threads, scipy_controls[0]


def _spy_on(monkeypatch, module, name, action):
    real = getattr(module, name)

    def spy(*args, **kw):
        action()
        return real(*args, **kw)
    monkeypatch.setattr(module, name, spy)


def test_solve_pins_numpy_blas_and_leaves_scipys(monkeypatch, small_dataset, blas_threads):
    numpy_threads, scipy_threads = blas_threads
    scipy_count = scipy_threads()
    seen = []
    _spy_on(monkeypatch, lapack, "dsytrd", lambda: seen.append((numpy_threads(), scipy_threads())))
    gmc_lrssc_solve(small_dataset.X, _FEW_ITERS)
    # one tridiagonal reduction per iteration and one in the exit KKT
    assert seen == [(1, scipy_count)] * 4
    assert numpy_threads() == 2


@pytest.mark.parametrize("step", ["embedding", "lrr", "lrr_noiseless"])
def test_embedding_and_lrr_pin_numpy_blas(monkeypatch, small_dataset, blas_threads, step):
    """The embedding's eigh runs on scipy's BLAS at full width, and LRR's thin
    SVD of X on numpy's held at one thread; scipy's SVD never runs."""
    numpy_threads, scipy_threads = blas_threads
    scipy_count = scipy_threads()
    seen = []
    record = lambda: seen.append((numpy_threads(), scipy_threads()))
    C = lrr_noisy(small_dataset.X, 2.0).C
    if step == "embedding":
        _spy_on(monkeypatch, scipy.linalg, "eigh", record)
        spectral_cluster(build_affinity(C), 3, seed=0)
    else:
        _spy_on(monkeypatch, np.linalg, "svd", record)
        _spy_on(monkeypatch, scipy.linalg, "svd", lambda: seen.append("scipy svd"))
        if step == "lrr":
            lrr_noisy(small_dataset.X, 2.0)
        else:
            lrr_noiseless(small_dataset.X)
    assert seen == [(1, scipy_count)]
    assert numpy_threads() == 2


def test_pin_restored_after_error_inside(monkeypatch, small_dataset, blas_threads):
    numpy_threads, _ = blas_threads

    def fail():
        raise NumericalError("synthetic failure inside the pinned section")

    _spy_on(monkeypatch, lapack, "dsterf", fail)
    with pytest.raises(NumericalError, match="synthetic"):
        gmc_lrssc_solve(small_dataset.X, _FEW_ITERS)
    assert numpy_threads() == 2


def test_pin_shared_by_concurrent_solves(monkeypatch, small_dataset, blas_threads):
    """Two solves in two threads meet inside the pinned section; the count is
    one while either is inside and comes back when both have left."""
    numpy_threads, _ = blas_threads
    X = small_dataset.X
    ref, _ = gmc_lrssc_solve(X, _FEW_ITERS)
    barrier = threading.Barrier(2, timeout=30)
    seen = []
    met = []

    def meet():
        if not met:  # only the first reduction of each solve waits
            barrier.wait()
            seen.append(numpy_threads())
            barrier.wait()
            met.append(True)

    _spy_on(monkeypatch, lapack, "dsytrd", meet)
    outs = [None, None]

    def run(i):
        outs[i], _ = gmc_lrssc_solve(X, _FEW_ITERS)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert seen == [1, 1]
    assert numpy_threads() == 2
    for out in outs:
        np.testing.assert_array_equal(out, ref)


def test_solve_runs_unpinned_without_a_thread_setter(monkeypatch, small_dataset):
    ref, _ = gmc_lrssc_solve(small_dataset.X, _FEW_ITERS)
    monkeypatch.setattr(parallel, "_find_numpy_blas", lambda: None)
    monkeypatch.setattr(parallel, "_numpy_blas", parallel._UNRESOLVED)
    out, _ = gmc_lrssc_solve(small_dataset.X, _FEW_ITERS)
    assert parallel._numpy_blas is None
    np.testing.assert_array_equal(out, ref)


def _address(fn):
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_nothing_pinned_where_numpy_and_scipy_share_one_blas(monkeypatch):
    """Where numpy and scipy load two OpenBLAS builds, numpy's setter is
    found; where both extensions reach one setter, pinning it would pin
    scipy's LAPACK too, so nothing is pinned."""
    found = parallel._find_numpy_blas()
    if found is None:
        pytest.skip("numpy's BLAS is not pinned here")
    numpy_file = sys.modules["numpy._core._multiarray_umath"].__file__
    numpy_controls = parallel._thread_controls(numpy_file)
    scipy_controls = parallel._thread_controls(scipy.linalg.cython_blas.__file__)
    assert _address(found[1]) == _address(numpy_controls[1]) != _address(scipy_controls[1])
    monkeypatch.setattr(parallel, "_thread_controls", lambda path: numpy_controls)
    assert parallel._find_numpy_blas() is None


def test_blas_lookup_waits_for_the_first_solve():
    """Importing the CLI does not look up numpy's BLAS; the first solve does."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import numpy as np, lrssc.cli\n"
            "from lrssc import gmc_lrssc_solve, parallel\n"
            "print(parallel._numpy_blas is parallel._UNRESOLVED)\n"
            "gmc_lrssc_solve(np.eye(4), lrssc.SolverConfig(max_iters=1))\n"
            "print(parallel._numpy_blas is parallel._UNRESOLVED)\n")
    done = _run_python(code, env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\nFalse\n"
