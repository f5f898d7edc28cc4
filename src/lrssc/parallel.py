"""Order-preserving map over independent tasks, in BLAS-pinned worker processes.

Each task is one whole solve, and the solves are BLAS-heavy.  Threads would
share one process whose BLAS starts its own thread pool per call, so two
threads on two cores oversubscribe the machine.  Worker processes with BLAS
pinned to one thread use each core once instead.
"""

from __future__ import annotations

import os

# Read by OpenBLAS and OpenMP when a process loads them, so they must be in
# the environment a worker starts with; setting them later has no effect.
_PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_tasks(fn, tasks, jobs: int) -> list:
    """Return ``[fn(t) for t in tasks]``, computed by up to ``jobs`` workers.

    Runs ``min(jobs, usable_cores(), len(tasks))`` workers.  With one, it maps
    in this process.  With more, ``fn`` and the tasks must be picklable: they
    go to freshly spawned processes that start with BLAS pinned to one thread.
    Spawn re-imports the caller's ``__main__`` module in each worker, so a
    script that gets here must keep its entry point under
    ``if __name__ == "__main__":``.  This process's own environment is left as
    it was.  An exception raised by ``fn`` is re-raised here.
    """
    tasks = list(tasks)
    workers = min(jobs, usable_cores(), len(tasks))
    if workers <= 1:
        return list(map(fn, tasks))

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {key: os.environ.get(key) for key in _PINNED_ENV}
    try:
        os.environ.update(_PINNED_ENV)
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
