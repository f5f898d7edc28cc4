"""The benchmark's layer spans see every layer they name.

``perfbench/spans.py`` times a CLI call by wrapping module attributes of the
package (``cli._ITERATIVE``, ``prox.entrywise_hard``, ``solvers.kkt_residuals``
and others) for the length of the call.  A rename or a call that stops going
through such an attribute makes a layer read 0 without failing anything;
these tests run traced in-process calls and check that each layer they
exercise records its spans.  ``spans.py`` is loaded from its file and only
read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from lrssc import cli, datasets

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """perfbench's ``spans`` module, the one ``perfbench/tests`` imports."""
    if "spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("spans", SPANS_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules["spans"] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    assert Path(sys.modules["spans"].__file__).resolve() == SPANS_PATH
    return sys.modules["spans"]


@pytest.fixture(scope="module")
def matrix_csv(tmp_path_factory):
    """30 features, three 3-dim subspaces of union rank 6, 10 points each."""
    path = tmp_path_factory.mktemp("traced") / "X.csv"
    ds = datasets.generate_synthetic(datasets.SyntheticSpec(
        ambient_dim=30, subspace_dim=3, points_per_subspace=10, union_rank=6, seed=5))
    datasets.save_matrix(path, ds.X)
    return path


def traced_main(spans, argv):
    """Run the CLI traced; return its spans, grouped by name."""
    rec = spans.Recorder()
    with spans.traced(rec):
        assert cli.main(argv) == 0
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    return by_name


def cluster(spans, matrix_csv, tmp_path, algorithm):
    return traced_main(spans, ["cluster", "--algorithm", algorithm, "--clusters", "3",
                               "--input", str(matrix_csv),
                               "--labels-out", str(tmp_path / "labels.txt")])


def test_lrr_records_its_rank(spans, matrix_csv, tmp_path):
    by_name = cluster(spans, matrix_csv, tmp_path, "lrr")
    (lrr,) = by_name["baselines.lrr"]
    assert lrr.attrs["rank"] == 6
    assert "solvers.solve" not in by_name
    assert {"spectral.affinity", "spectral.embed", "spectral.kmeans"} <= set(by_name)


@pytest.mark.parametrize("algorithm", ["s0l0", "lrssc-convex"])
def test_iterative_solve_records_every_solver_layer(spans, matrix_csv, tmp_path, algorithm):
    """One Lagrangian per iteration, one exit KKT, and the SVT and entrywise
    steps of the C maps."""
    by_name = cluster(spans, matrix_csv, tmp_path, algorithm)
    (solve,) = by_name["solvers.solve"]
    assert len(by_name["solvers.lagrangian"]) == solve.attrs["iters"] >= 1
    assert len(by_name["solvers.kkt"]) == 1
    assert len(by_name["prox.svt"]) >= solve.attrs["iters"]
    assert len(by_name["prox.entrywise"]) >= solve.attrs["iters"]


def test_sweep_records_each_cell_and_its_score(spans, tmp_path):
    by_name = traced_main(spans, [
        "sweep", "--pers", "6", "--vars", "0", "--trials", "2", "--algorithms", "lrr,gmc",
        "--n", "30", "--d", "3", "--L", "3", "--union-rank", "6", "--jobs", "1",
        "--out", str(tmp_path / "sweep.csv")])
    assert len(by_name["cli.cell"]) == len(by_name["evaluation.score"]) == 4
    assert len({s.op for s in by_name["cli.cell"]}) == 4
    for score in by_name["evaluation.score"]:
        assert score.parent in by_name["cli.cell"]
