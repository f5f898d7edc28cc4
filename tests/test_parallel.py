"""The order-preserving task map behind sweeps and benchmark grids."""

import os

import pytest

from lrssc import parallel

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
