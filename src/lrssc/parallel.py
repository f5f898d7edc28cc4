"""Order-preserving map over independent tasks, in BLAS-pinned worker processes,
and a pin of numpy's BLAS to one thread around a block of code.

Each task is one whole solve, and the solves are BLAS-heavy.  Threads would
share one process whose BLAS starts its own thread pool per call, so two
threads on two cores oversubscribe the machine.  Worker processes with BLAS
pinned to one thread use each core once instead.

The workers fork from one server per process, which multiprocessing's
``forkserver`` start method keeps for the life of the process and stops
when the process exits.  It starts at the first pool, with BLAS pinned, and
imports ``lrssc``, ``scipy.linalg`` (every kernel's BLAS and LAPACK) and
``scipy.optimize`` (the label matching) before it forks anyone, so each
worker starts warm instead of paying those imports again.  The package
imports scipy only inside the kernels that call it, so importing it loads
numpy alone, and the process that maps the tasks, which only plans them and
gathers their results, never loads scipy: the parent of a two-worker
``lrssc sweep`` peaks at about 38 MB instead of 60 MB.  It leaves
``lrssc.cli`` to each worker (about 5 ms): a server that had it would make
every worker of ``python -m lrssc.cli`` warn, on re-running the caller's
``__main__``, that the module was imported before it ran.  The server runs
no threads, so forking it is safe where forking this process would not be.
Which modules the server imports is multiprocessing's process-global
setting, and each pool sets it to this list.  Where the platform has no
``forkserver``, each pool spawns fresh interpreters instead.

Within one process, numpy and scipy may each load their own OpenBLAS, each
with a thread pool as wide as the environment allows.  The package runs its
dense kernels on scipy's at full width, and holds numpy's at one thread
(:func:`numpy_blas_single_thread`) exactly where numpy's BLAS works: in a
solve, whose Frobenius norms are numpy's ``ddot``, and in the thin SVD of
the data matrix X (:class:`lrssc.solvers.GramSolver`), which is numpy's and
so runs on the one thread: on 2 cores, gesdd of the short, wide X is 2-3x
faster there than on scipy's two threads.  Unpinned, a gmc solve at N = 600
put 0.56-0.77 s of CPU on numpy's pool and took 1.1-1.3 s instead of
0.5-0.6 s (2 vCPU).  The LRR product and the spectral embedding run no
kernel on numpy's BLAS, so they leave it as it is.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading

# Read by OpenBLAS and OpenMP when a process loads them, so they must be in
# the environment a worker starts with; setting them later has no effect.
_PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# What every worker imports anyway: the package, the scipy.linalg its kernels
# import at their first call, and the solver of the label matching that
# clustering_error imports lazily.  Not lrssc.cli (see the module docstring).
_PRELOAD = ["lrssc", "scipy.linalg", "scipy.optimize"]


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_tasks(fn, tasks, jobs: int) -> list:
    """Return ``[fn(t) for t in tasks]``, computed by up to ``jobs`` workers.

    Runs ``min(jobs, usable_cores(), len(tasks))`` workers.  With one, it maps
    in this process.  With more, ``fn`` and the tasks must be picklable: they
    go to processes forked from this process's preloaded server (see the
    module docstring), started at the first pool with BLAS pinned to one
    thread and with this process's import path, and kept for later pools.
    Workers therefore run with the environment of that first start, not
    with later changes to this one.  Each worker re-imports the caller's
    ``__main__`` module, so a script that gets here must keep its entry
    point under ``if __name__ == "__main__":``.  This process's own
    environment is left as it was.  An exception raised by ``fn`` is
    re-raised here.  ``jobs`` below 1 raises ``ValueError`` before any task
    runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(tasks)
    workers = min(jobs, usable_cores(), len(tasks))
    if workers <= 1:
        return list(map(fn, tasks))

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(
        "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn")
    context.set_forkserver_preload(_PRELOAD)
    # The server gets the import path through PYTHONPATH: the 3.11 server
    # does not apply the sys.path multiprocessing sends it, and would
    # otherwise preload lrssc from wherever its own default path finds it.
    start_env = dict(_PINNED_ENV, PYTHONPATH=os.pathsep.join(sys.path))
    saved = {key: os.environ.get(key) for key in start_env}
    try:
        os.environ.update(start_env)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# The pin of numpy's BLAS (see the module docstring).  The library is looked
# up at the first pin, not at import.
_UNRESOLVED = object()
_numpy_blas = _UNRESOLVED  # (get, set) of its thread count, or None: pin nothing
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1
# Thread-count symbols of an OpenBLAS, in lookup order: the 64-bit-integer
# builds numpy ships (scipy-openblas, then plain OpenBLAS), then unsuffixed.
_THREAD_SYMBOLS = [(prefix, suffix) for suffix in ("64_", "")
                   for prefix in ("scipy_openblas", "openblas")]


def _thread_controls(path):
    """(get, set) of the OpenBLAS thread count seen from a loaded library, or None.

    dlsym on an extension module searches the libraries it links, so this
    finds the OpenBLAS that the extension itself calls.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix, suffix in _THREAD_SYMBOLS:
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _find_numpy_blas():
    """(get, set) of the thread count of numpy's BLAS, or None if it should not be pinned.

    numpy's BLAS is the one its ``_multiarray_umath`` extension links
    (under ``numpy._core`` from numpy 2, ``numpy.core`` before), scipy's the
    one its BLAS extension links.  None where numpy's has no setter, and
    where both setters are one function: one shared library has one pool,
    and pinning it would leave scipy's LAPACK on one thread.
    """
    import ctypes

    import scipy.linalg.cython_blas

    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        module = sys.modules.get(name)
        numpy_controls = module and _thread_controls(module.__file__)
        if numpy_controls:
            break
    else:
        return None
    scipy_controls = _thread_controls(scipy.linalg.cython_blas.__file__)
    address = lambda fn: ctypes.cast(fn, ctypes.c_void_p).value
    if scipy_controls and address(scipy_controls[1]) == address(numpy_controls[1]):
        return None
    return numpy_controls


@contextlib.contextmanager
def numpy_blas_single_thread():
    """Run the body with numpy's BLAS at one thread, then restore its count.

    Nested and concurrent bodies share one pin: the first to enter saves the
    count and sets one thread, the last to leave restores the count, also
    when the body raises.  Where :func:`_find_numpy_blas` gives None the body
    runs as is.  Also usable as a decorator.
    """
    global _numpy_blas, _pin_depth, _pin_saved
    with _pin_lock:
        if _numpy_blas is _UNRESOLVED:
            _numpy_blas = _find_numpy_blas()
        controls = _numpy_blas
        if controls is not None:
            if _pin_depth == 0:
                _pin_saved = controls[0]()
                controls[1](1)
            _pin_depth += 1
    try:
        yield
    finally:
        if controls is not None:
            with _pin_lock:
                _pin_depth -= 1
                if _pin_depth == 0:
                    controls[1](_pin_saved)
