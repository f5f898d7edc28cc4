"""Tests of the benchmark's own arithmetic and of its trace wrappers.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span, layer_metrics, nesting_ok, self_times  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    return Span(name, op=0, parent=parent, thread=thread, start=start, end=end)


def test_self_time_of_nested_spans():
    root = _span("cli.main", 0.0, 10.0)
    solve = _span("solvers.solve", 1.0, 9.0, root)
    svt_a = _span("prox.svt", 2.0, 4.0, solve)
    svt_b = _span("prox.svt", 5.0, 8.0, solve)
    selfs = self_times([root, solve, svt_a, svt_b])
    assert selfs[root] == pytest.approx(2.0)
    assert selfs[solve] == pytest.approx(3.0)
    assert selfs[svt_a] == pytest.approx(2.0)
    assert selfs[svt_b] == pytest.approx(3.0)
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert nesting_ok([root, solve, svt_a, svt_b], selfs)


def test_self_time_with_children_on_two_threads():
    # cli.main waits on a pool while two cells run in parallel on other threads:
    # only the part of its interval no cell covers is its own time.
    root = _span("cli.main", 0.0, 10.0, thread=1)
    cell_a = _span("cli.cell", 1.0, 7.0, root, thread=2)
    cell_b = _span("cli.cell", 2.0, 8.0, root, thread=3)
    leaf = _span("spectral.kmeans", 3.0, 4.0, cell_b, thread=3)
    spans_ = [root, cell_a, cell_b, leaf]
    selfs = self_times(spans_)
    assert selfs[root] == pytest.approx(3.0)
    assert selfs[cell_a] == pytest.approx(6.0)
    assert selfs[cell_b] == pytest.approx(5.0)
    # children sum past the parent across threads, but never within one thread
    assert selfs[cell_a] + selfs[cell_b] > root.duration
    assert nesting_ok(spans_, selfs)
    too_long = _span("cli.cell", 0.5, 9.5, root, thread=2)
    assert not nesting_ok(spans_ + [too_long], self_times(spans_ + [too_long]))


def test_recorder_parents_and_operation_ids_across_threads():
    rec = Recorder()
    started = threading.Barrier(2, timeout=10)

    def cell():
        with rec.span("cli.cell", new_op=True):
            started.wait()
            with rec.span("spectral.kmeans"):
                pass

    with rec.span("cli.main", new_op=True):
        workers = [threading.Thread(target=cell) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        with rec.span("datasets.load_matrix"):
            pass
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["cli.main"]
    cells, leaves = by_name["cli.cell"], by_name["spectral.kmeans"]
    assert root.parent is None
    assert by_name["datasets.load_matrix"][0].parent is root
    assert by_name["datasets.load_matrix"][0].op == root.op
    assert all(c.parent is root and c.thread != root.thread for c in cells)
    assert len({c.op for c in cells} | {root.op}) == 3
    for leaf in leaves:
        assert leaf.parent in cells
        assert leaf.op == leaf.parent.op and leaf.thread == leaf.parent.thread
    assert nesting_ok(rec.spans, self_times(rec.spans))


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    pct = run.tail_percentile(n)
    assert pct == expected
    if pct is not None:
        assert n * (100 - pct) / 100 >= 10


def test_percentile_inclusive():
    assert run.percentile([3.0], 75) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_traced_restores_every_patched_attribute():
    targets = spans.patch_targets(Recorder())
    originals = [(owner, key, _current(owner, key)) for owner, key, _ in targets]
    with pytest.raises(RuntimeError):
        with spans.traced(Recorder()):
            assert all(_current(o, k) is not orig for o, k, orig in originals)
            raise RuntimeError("a failing traced call")
    assert all(_current(o, k) is orig for o, k, orig in originals)
    with spans.traced(Recorder()):
        pass
    assert all(_current(o, k) is orig for o, k, orig in originals)


def test_traced_cluster_call_records_every_layer(tmp_path):
    from lrssc import cli, datasets

    ds = datasets.generate_synthetic(datasets.SyntheticSpec(
        ambient_dim=30, subspace_dim=3, points_per_subspace=10, union_rank=6, seed=5))
    datasets.save_matrix(tmp_path / "X.csv", ds.X)
    rec = Recorder()
    with spans.traced(rec):
        rc = cli.main(["cluster", "--algorithm", "gmc", "--clusters", "3",
                       "--input", str(tmp_path / "X.csv"),
                       "--labels-out", str(tmp_path / "labels.txt")])
    assert rc == 0
    names = {s.name for s in rec.spans}
    assert names >= {"cli.main", "datasets.load_matrix", "solvers.solve", "solvers.gram_eigh",
                     "solvers.j_update", "solvers.lagrangian", "solvers.kkt", "prox.svt",
                     "prox.entrywise", "spectral.affinity", "spectral.embed",
                     "spectral.kmeans"}
    assert len({s.op for s in rec.spans}) == 1
    m = layer_metrics(rec.spans)
    # one SVT per iteration, plus one in the exit KKT check
    assert m["prox.svt_calls"] == m["solvers.iters"] + 1
    assert m["prox.svt_gflop_computed"] == pytest.approx(
        m["prox.svt_calls"] * spans.svt_flops(30, 30) / 1e9)
    selfs = self_times(rec.spans)
    (root,) = [s for s in rec.spans if s.name == "cli.main"]
    assert sum(selfs.values()) == pytest.approx(root.duration)
