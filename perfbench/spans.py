"""Span recording around the layers of ``lrssc``, from outside the program.

A traced call replaces, for its duration only, the module attributes through
which the pipeline reaches each layer with wrappers that record a span (name,
start, end, parent, thread, operation id).  Nothing under ``src/`` changes:
``traced()`` patches on entry and restores every attribute on exit, so
untraced calls never see a wrapper.

Self time is a span's duration minus the part of its interval that its
children cover.  Parents are tracked per thread.  A span that opens on a
worker thread with nothing open on that thread is parented to the open root
span of another thread (``cli.main``), so a ``sweep --jobs 2`` call does not
count the time its main thread waits on the pool as CLI work.  Every span of
one ``cluster`` call, or of one sweep cell, shares one operation id.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

def svt_flops(m: int, n: int) -> float:
    """Flops of one SVT on an m x n matrix, computed from its shape, never measured.

    With m >= n: a thin SVD by R-SVD, 6mn^2 + 20n^3 (Golub & Van Loan, Matrix
    Computations, 3rd ed., fig. 5.4.1), plus the product (U * s) @ Vt, 2mn^2.
    """
    m, n = max(m, n), min(m, n)
    return 8.0 * m * n * n + 20.0 * n ** 3


# Exit KKT max residual at or below this counts as stationary (the bound the
# repository's own KKT acceptance test checks).
KKT_TOL = 1e-3


@dataclass(eq=False)
class Span:
    name: str
    op: int
    parent: "Span | None"
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; safe to use from several threads at once."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = itertools.count()
        self._root: Span | None = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else self._root
            op = next(self._ops) if new_op or parent is None else parent.op
            s = Span(name, op, parent, threading.get_ident(), time.perf_counter())
            if self._root is None:
                self._root = s
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if self._root is s:
                    self._root = None
                self.spans.append(s)


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Map each span to its duration minus the time its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s: s.duration - _covered(s.start, s.end, children.get(s, ()))
            for s in spans}


def nesting_ok(spans, selfs, slack: float = 1e-9) -> bool:
    """Per parent and per thread, the children's self times fit in the parent."""
    sums: dict = {}
    for s in spans:
        if s.parent is not None:
            key = (s.parent, s.thread)
            sums[key] = sums.get(key, 0.0) + selfs[s]
    return all(total <= parent.duration + slack for (parent, _), total in sums.items())


def _wrap(rec: Recorder, fn, name: str, attrs=None, new_op: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, new_op) as s:
            out = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs.update(attrs(args, out))
            return out
    return wrapper


def _wrap_matrix_only(rec: Recorder, fn, name: str):
    # soft_threshold also runs on the singular-value vector inside svt_soft;
    # only matrix inputs are entrywise prox steps, the rest stays SVT time.
    traced = _wrap(rec, fn, name)

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        if getattr(x, "ndim", 0) == 2:
            return traced(x, *args, **kwargs)
        return fn(x, *args, **kwargs)
    return wrapper


def _solve_attrs(args, out):
    trace = out[1]
    return {"iters": trace.n_iters, "converged": trace.termination == "converged",
            "kkt_max": trace.kkt.max_residual()}


def _svt_attrs(args, out):
    m, n = args[0].shape
    return {"gflop": svt_flops(m, n) / 1e9}


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def patch_targets(rec: Recorder):
    """(owner, attribute, replacement) for every layer boundary that is traced."""
    from lrssc import cli, datasets, prox, solvers, spectral

    class TracedGramSolver(solvers.GramSolver):
        def __init__(self, X):
            with rec.span("solvers.gram_eigh"):
                super().__init__(X)

    targets = [
        (cli, "main", _wrap(rec, cli.main, "cli.main", new_op=True)),
        (cli, "_sweep_cell", _wrap(rec, cli._sweep_cell, "cli.cell", new_op=True)),
        (cli, "lrr_noisy", _wrap(rec, cli.lrr_noisy, "baselines.lrr",
                                 lambda a, out: {"rank": int(out.active_set.size)})),
        (cli, "clustering_error", _wrap(rec, cli.clustering_error, "evaluation.score")),
        (datasets, "load_matrix", _wrap(rec, datasets.load_matrix, "datasets.load_matrix")),
        (datasets, "generate_synthetic",
         _wrap(rec, datasets.generate_synthetic, "datasets.generate")),
        (solvers, "GramSolver", TracedGramSolver),
        (solvers, "j_update", _wrap(rec, solvers.j_update, "solvers.j_update")),
        (solvers, "lagrangian_value",
         _wrap(rec, solvers.lagrangian_value, "solvers.lagrangian")),
        (solvers, "kkt_residuals", _wrap(rec, solvers.kkt_residuals, "solvers.kkt")),
        (spectral, "build_affinity", _wrap(rec, spectral.build_affinity, "spectral.affinity")),
        (spectral, "spectral_cluster", _wrap(rec, spectral.spectral_cluster, "spectral.embed")),
        (spectral, "_kmeans", _wrap(rec, spectral._kmeans, "spectral.kmeans")),
    ]
    for name in ("svt_firm", "svt_hard", "svt_soft"):
        targets.append((prox, name, _wrap(rec, getattr(prox, name), "prox.svt", _svt_attrs)))
    for name in ("entrywise_firm", "entrywise_hard", "soft_threshold"):
        targets.append((prox, name, _wrap_matrix_only(rec, getattr(prox, name),
                                                      "prox.entrywise")))
    for name, solve in cli._ITERATIVE.items():
        targets.append((cli._ITERATIVE, name,
                        _wrap(rec, solve, "solvers.solve", _solve_attrs)))
    return targets


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers for the block; restore every original on exit."""
    saved = []
    try:
        for owner, key, replacement in patch_targets(rec):
            saved.append((owner, key, _get(owner, key)))
            _set(owner, key, replacement)
        yield rec
    finally:
        for owner, key, original in reversed(saved):
            _set(owner, key, original)


# Span name -> per-layer metric that sums the self time of those spans.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "cli.cell": "cli.self_s",
    "datasets.load_matrix": "datasets.load_matrix_s",
    "datasets.generate": "datasets.generate_s",
    "solvers.solve": "solvers.self_s",
    "solvers.gram_eigh": "solvers.gram_eigh_s",
    "solvers.j_update": "solvers.j_update_s",
    "solvers.lagrangian": "solvers.lagrangian_s",
    "solvers.kkt": "solvers.kkt_s",
    "prox.svt": "prox.svt_s",
    "prox.entrywise": "prox.entrywise_s",
    "baselines.lrr": "baselines.lrr_s",
    "spectral.affinity": "spectral.affinity_s",
    "spectral.embed": "spectral.embed_s",
    "spectral.kmeans": "spectral.kmeans_s",
    "evaluation.score": "evaluation.score_s",
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced CLI call (all of its spans)."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in set(SELF_METRICS.values())}
    for s in spans:
        if s.name in SELF_METRICS:
            out[SELF_METRICS[s.name]] += selfs[s]
    solves = [s for s in spans if s.name == "solvers.solve"]
    svts = [s for s in spans if s.name == "prox.svt"]
    ranks = [s.attrs["rank"] for s in spans if s.name == "baselines.lrr"]
    done = [s for s in solves if "iters" in s.attrs]
    out.update({
        "solvers.solve_s": sum(s.duration for s in solves),
        "solvers.iters": sum(s.attrs["iters"] for s in done),
        "solvers.converged_frac":
            sum(s.attrs["converged"] for s in done) / len(solves) if solves else 0.0,
        "solvers.kkt_max": max((s.attrs["kkt_max"] for s in done), default=0.0),
        "solvers.kkt_ok_frac":
            sum(s.attrs["kkt_max"] <= KKT_TOL for s in done) / len(solves) if solves else 0.0,
        "prox.svt_calls": len(svts),
        "prox.svt_gflop_computed": sum(s.attrs["gflop"] for s in svts),
        "prox.entrywise_calls": sum(s.name == "prox.entrywise" for s in spans),
        "baselines.lrr_rank": statistics.median(ranks) if ranks else 0,
    })
    return out
