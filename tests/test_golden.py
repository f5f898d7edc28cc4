"""Golden outputs of the ``lrssc`` command, pinned in ``tests/golden.json``.

Each ``cluster`` case runs one algorithm on criterion 6's trial-0 data (the
seeds ``SeedSequence([2024, 0])`` spawns) at its built-in defaults, through
the command line, and compares:

* the labels, byte for byte;
* the standard output, byte for byte apart from its printed exit KKT
  residuals, which must agree to a relative 1e-6 (one unit in the last of
  the seven digits printed: the last digit can move with the BLAS thread
  count);
* the trace CSV: its iteration count, its ``mu1``/``mu2`` columns exactly,
  and every other cell to ``DIGITS`` significant digits (stored rounded,
  compared to a relative 10^(1 - DIGITS), and cells within ``ABS_FLOOR`` of
  zero, rounding noise, compared as zero).

The lrssc-convex cases run a second time with scipy's BLAS on one thread,
and must match the same file.  One ``sweep`` over all four algorithms pins
its rows without ``seconds``.

The file records what the code computes, not what it should compute: after
a change that is meant to move these outputs, regenerate it with

    PYTHONPATH=src python tests/test_golden.py --write

and say in the change what moved and why.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lrssc import SyntheticSpec, cli, datasets, parallel

GOLDEN = Path(__file__).with_name("golden.json")
DIGITS = 8
ABS_FLOOR = 1e-12
EXACT_COLUMNS = ("mu1", "mu2")
# a KKT residual as ``cluster`` prints it, seven significant digits
PRINTED = re.compile(r"\d\.\d{6}e[+-]\d+")
# (algorithm, noise variance, points per subspace) of each cluster case
CASES = {f"{alg}-var{var:g}": (alg, var, 50)
         for alg in ("gmc", "s0l0", "lrssc-convex", "lrr") for var in (0.0, 0.2)}
CASES["gmc-var0-n600"] = ("gmc", 0.0, 200)
SWEEP_ARGS = ["--algorithms", "gmc,s0l0,lrssc-convex,lrr", "--pers", "10",
              "--vars", "0,0.2", "--trials", "1", "--seed", "0"]


def _trial_seeds():
    """(data seed, cluster seed) of criterion 6's trial 0."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence([2024, 0]).spawn(2)]


def _run(argv) -> str:
    """Standard output of one successful ``lrssc`` call; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def _cell(text: str, exact: bool):
    if text == "":
        return None
    value = float(text)
    return value if exact else float(f"{value:.{DIGITS - 1}e}")


def cluster_case(name: str, workdir: Path) -> dict:
    """The pinned outputs of one cluster case; its data file in ``workdir`` is
    written once and shared by the cases on the same data."""
    algorithm, var, per = CASES[name]
    data_seed, cluster_seed = _trial_seeds()
    X = workdir / f"X-var{var:g}-per{per}.csv"
    if not X.exists():
        datasets.save_matrix(X, datasets.generate_synthetic(SyntheticSpec(
            noise_variance=var, points_per_subspace=per, seed=data_seed)).X)
    labels, trace = (workdir / f"{name}.{ext}" for ext in ("labels.txt", "trace.csv"))
    stdout = _run(["cluster", "--input", str(X), "--algorithm", algorithm, "--clusters", "3",
                   "--seed", str(cluster_seed), "--labels-out", str(labels),
                   "--trace-out", str(trace)])
    header, *rows = trace.read_text().splitlines()
    columns = header.split(",")[1:]
    cells = [row.split(",")[1:] for row in rows]
    return {
        "labels": "".join(labels.read_text().split()),
        "stdout": stdout,
        "n_iters": len(rows),
        "trace": {col: [_cell(row[i], col in EXACT_COLUMNS) for row in cells]
                  for i, col in enumerate(columns)},
    }


def sweep_rows(workdir: Path) -> list:
    """The sweep's rows without their seconds column."""
    out = workdir / "sweep.csv"
    _run(["sweep", *SWEEP_ARGS, "--out", str(out)])
    return [row.rsplit(",", 1)[0] for row in out.read_text().splitlines()]


def _same_cell(value, golden, digits=DIGITS) -> bool:
    if value is None or golden is None:
        return value is golden
    if abs(value) <= ABS_FLOOR and abs(golden) <= ABS_FLOOR:
        return True
    return math.isclose(value, golden, rel_tol=10.0 ** (1 - digits))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", CASES)
def test_cluster_case(name, golden, workdir):
    check_cluster_case(name, golden, workdir)


@pytest.mark.parametrize("name", [name for name in CASES if name.startswith("lrssc-convex")])
def test_cluster_case_at_one_blas_thread(name, golden, workdir):
    """The lrssc-convex cases again with scipy's BLAS on one thread: the
    pinned outputs hold at either thread count."""
    import scipy.linalg.cython_blas

    controls = parallel._thread_controls(scipy.linalg.cython_blas.__file__)
    if controls is None:
        pytest.skip("scipy's BLAS has no thread-count setter")
    get_threads, set_threads = controls
    threads = get_threads()
    set_threads(1)
    try:
        check_cluster_case(name, golden, workdir)
    finally:
        set_threads(threads)


def check_cluster_case(name, golden, workdir):
    want = golden["cluster"][name]
    got = cluster_case(name, workdir)
    assert got["labels"] == want["labels"]
    assert PRINTED.sub("#", got["stdout"]) == PRINTED.sub("#", want["stdout"])
    assert all(_same_cell(float(v), float(g), digits=7) for v, g in
               zip(PRINTED.findall(got["stdout"]), PRINTED.findall(want["stdout"])))
    assert got["n_iters"] == want["n_iters"]
    assert list(got["trace"]) == list(want["trace"])
    for col, values in got["trace"].items():
        if col in EXACT_COLUMNS:
            assert values == want["trace"][col], col
        else:
            bad = [k for k, (v, g) in enumerate(zip(values, want["trace"][col]))
                   if not _same_cell(v, g)]
            assert not bad, f"{col} differs at iterations {bad}"


def test_sweep_rows(golden, tmp_path):
    assert sweep_rows(tmp_path) == golden["sweep"]


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        data = {"cluster": {name: cluster_case(name, workdir) for name in CASES},
                "sweep": sweep_rows(workdir)}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_golden()
    print(f"wrote {GOLDEN}", file=sys.stderr)
