"""End-to-end command-line tests: synth, cluster, eval, sweep, tune."""

import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lrssc import (
    NumericalError,
    SolverConfig,
    SyntheticSpec,
    cli,
    datasets,
    generate_synthetic,
    load_labels,
    load_matrix,
    parallel,
    prox,
    save_labels,
    solvers,
)
from lrssc.cli import SWEEP_HEADER, TRACE_HEADER, build_parser, main

from conftest import eigh_gram_j_update, peak_arrays

SMALL_SYNTH = ["synth", "--n", "30", "--d", "3", "--L", "3", "--per", "10",
               "--union-rank", "6", "--seed", "5"]

# A non-default value of every SolverConfig field: (config-file value, flags).
SETTING_CASES = {
    "lam": ("0.5", ["--lam", "0.5"]),
    "tau": ("0.05", ["--tau", "0.05"]),
    "gamma": ("0.5", ["--gamma", "0.5"]),
    "rho": ("2", ["--rho", "2"]),
    "mu1_init": ("0.5", ["--mu1", "0.5"]),
    "mu2_init": ("7", ["--mu2", "7"]),
    "mu_max": ("100", ["--mu-max", "100"]),
    "epsilon": ("1e-6", ["--epsilon", "1e-6"]),
    "max_iters": ("7", ["--max-iters", "7"]),
    "normalize_j": ("off", ["--no-normalize-j"]),
}


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def small_data_dir(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    assert run(SMALL_SYNTH + ["--out-dir", data]) == 0
    return data


class TestSynth:
    def test_writes_files_with_requested_shape(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code = run(["synth", "--per", "50", "--var", "0.1", "--seed", "7",
                    "--out-dir", out])
        assert code == 0
        X = load_matrix(out / "X.csv")
        truth = load_labels(out / "labels.txt")
        assert X.shape == (100, 150)
        assert truth.shape == (150,)

    def test_noiseless_rank_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["synth", "--seed", "3", "--out-dir", out]) == 0
        assert "rank=10" in capsys.readouterr().out

    def test_determinism(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            assert run(SMALL_SYNTH + ["--out-dir", d]) == 0
            dirs.append(d)
        assert (dirs[0] / "X.csv").read_bytes() == (dirs[1] / "X.csv").read_bytes()
        assert (dirs[0] / "labels.txt").read_bytes() == (dirs[1] / "labels.txt").read_bytes()

    def test_default_flags_write_the_default_spec(self, tmp_path):
        assert run(["synth", "--out-dir", tmp_path]) == 0
        datasets.save_matrix(tmp_path / "expect.csv",
                             datasets.generate_synthetic(SyntheticSpec(seed=0)).X)
        assert (tmp_path / "X.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()

    def test_missing_output_dir_fails(self, tmp_path, capsys):
        code = run(SMALL_SYNTH + ["--out-dir", tmp_path / "absent"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["X.csv", "labels.txt"])
    def test_output_that_is_a_directory_fails_before_drawing(self, tmp_path, capsys,
                                                              monkeypatch, name):
        def forbidden(*args, **kwargs):
            raise AssertionError("data was drawn")
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        (tmp_path / name).mkdir()
        assert run(SMALL_SYNTH + ["--out-dir", tmp_path]) == 1
        assert capsys.readouterr() == ("", f"error: output {tmp_path / name} is a directory\n")
        assert list(tmp_path.iterdir()) == [tmp_path / name]

    @pytest.mark.parametrize("var", ["nan", "inf"])
    def test_non_finite_noise_variance_fails_before_writing(self, tmp_path, capsys, var):
        assert run(["synth", "--var", var, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            f"error: noise_variance must be finite, got {var}\n")
        assert list(tmp_path.iterdir()) == []


class TestCluster:
    @pytest.mark.parametrize("algorithm", ["gmc", "lrr"])
    @pytest.mark.parametrize("clusters", [0, -1, 31])
    def test_cluster_count_out_of_range_fails_before_the_solve(
            self, small_data_dir, tmp_path, capsys, monkeypatch, algorithm, clusters):
        """The small data has 30 points; the count is checked right after
        loading X, with spectral_cluster's message, and nothing is solved."""
        def never(*args, **kw):
            raise AssertionError("solved with a bad cluster count")

        for name in cli._ITERATIVE:
            monkeypatch.setitem(cli._ITERATIVE, name, never)
        monkeypatch.setattr(cli, "lrr_noisy", never)
        labels_out = tmp_path / "pred.txt"
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--algorithm", algorithm,
                    "--clusters", clusters, "--labels-out", labels_out])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: n_clusters must lie in [1, 30], got {clusters}\n")
        assert not labels_out.exists()

    def test_end_to_end_with_trace_and_kkt_report(self, small_data_dir,
                                                  tmp_path, capsys):
        labels_out = tmp_path / "pred.txt"
        trace_out = tmp_path / "trace.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3", "--seed", "0",
                    "--labels-out", labels_out, "--trace-out", trace_out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "termination=converged" in stdout
        for name in ("kkt_r1", "kkt_r2", "kkt_r3", "kkt_r4", "kkt_r5"):
            assert f"{name}=" in stdout

        labels = load_labels(labels_out)
        assert labels.shape == (30,)
        assert set(labels) <= {0, 1, 2}

        lines = trace_out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        iters = int(stdout.split("iters=")[1].split()[0])
        assert len(lines) == 1 + iters

    @pytest.mark.parametrize("algorithm", ["gmc", "s0l0", "lrssc-convex"])
    def test_stdout_survives_a_change_of_j_step_rounding(self, small_data_dir, tmp_path,
                                                         capsys, monkeypatch, algorithm):
        """stdout is byte-identical when the J step is solved through eigh(X^T X)
        instead of the thin SVD of X: KKT residuals at rounding level print as 0."""
        argv = ["cluster", "--input", small_data_dir / "X.csv", "--algorithm", algorithm,
                "--clusters", "3", "--seed", "0", "--labels-out", tmp_path / "pred.txt"]
        outs = []
        for _ in range(2):
            assert run(argv) == 0
            outs.append(capsys.readouterr().out)
            monkeypatch.setattr(solvers, "j_update", eigh_gram_j_update)
        assert outs[0] == outs[1]
        if algorithm == "gmc":
            assert "kkt_r1=0\n" in outs[0] and "kkt_r4=0\n" in outs[0]

    def test_two_block_trace_leaves_unused_columns_empty(self, small_data_dir,
                                                         tmp_path):
        trace_out = tmp_path / "trace.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "s0l0", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt",
                    "--trace-out", trace_out])
        assert code == 0
        for line in trace_out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            assert fields[2] == ""   # no second consensus gap
            assert fields[5] == ""   # no first mu series

    def test_closed_form_trace_single_row(self, small_data_dir, tmp_path):
        trace_out = tmp_path / "trace.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "lrr", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt",
                    "--trace-out", trace_out])
        assert code == 0
        assert trace_out.read_text() == TRACE_HEADER + "\n0,,,,,,\n"

    def test_byte_identical_reruns(self, small_data_dir, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            labels_out = tmp_path / f"pred_{tag}.txt"
            trace_out = tmp_path / f"trace_{tag}.csv"
            code = run(["cluster", "--input", small_data_dir / "X.csv",
                        "--algorithm", "gmc", "--clusters", "3", "--seed", "9",
                        "--labels-out", labels_out, "--trace-out", trace_out])
            assert code == 0
            outputs.append((labels_out.read_bytes(), trace_out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_flag_beats_config_file(self, small_data_dir, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_iters = 2\n")
        trace_out = tmp_path / "trace.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt",
                    "--trace-out", trace_out,
                    "--config", cfg, "--max-iters", "3", "--epsilon", "1e-300"])
        assert code == 0
        assert len(trace_out.read_text().splitlines()) == 1 + 3

    def test_config_file_beats_builtin(self, small_data_dir, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_iters = 4\nepsilon = 1e-300\n")
        trace_out = tmp_path / "trace.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt",
                    "--trace-out", trace_out, "--config", cfg])
        assert code == 0
        assert len(trace_out.read_text().splitlines()) == 1 + 4

    def test_config_file_comments_and_booleans(self, small_data_dir, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("# solver settings\nnormalize_j = off  # heuristic\n"
                       "max_iters = 4\nepsilon = 1e-300\n")
        trace_a = tmp_path / "a.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pa.txt", "--trace-out", trace_a,
                    "--config", cfg])
        assert code == 0
        trace_b = tmp_path / "b.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pb.txt", "--trace-out", trace_b,
                    "--no-normalize-j", "--max-iters", "4",
                    "--epsilon", "1e-300"])
        assert code == 0
        assert trace_a.read_bytes() == trace_b.read_bytes()

    @pytest.mark.parametrize("name", [f.name for f in fields(SolverConfig)])
    def test_config_file_entry_parses_like_its_flag(self, tmp_path, name):
        value, flags = SETTING_CASES[name]
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(f"{name} = {value}\n")
        base = ["cluster", "--input", "X.csv", "--clusters", "3"]
        parser = build_parser()
        from_file = cli._solver_configs(parser.parse_args(base + ["--config", str(cfg)]),
                                        ["gmc"])["gmc"]
        from_flag = cli._solver_configs(parser.parse_args(base + flags), ["gmc"])["gmc"]
        assert from_file == from_flag
        assert from_file != SolverConfig()
        # 7 == 7.0 and True == 1, so equality alone would miss a wrong type
        assert type(getattr(from_file, name)) is type(getattr(from_flag, name))

    def test_unknown_config_key_fails(self, small_data_dir, tmp_path, capsys):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("warp_factor = 9\n")
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt", "--config", cfg])
        assert code == 1
        assert "warp_factor" in capsys.readouterr().err

    def test_removed_scale_by_mu_setting_is_rejected(self, small_data_dir, tmp_path, capsys):
        base = ["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                "--labels-out", tmp_path / "pred.txt"]
        with pytest.raises(SystemExit) as excinfo:
            run(base + ["--no-scale-by-mu"])
        assert excinfo.value.code == 2
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("scale_by_mu = on\n")
        assert run(base + ["--config", cfg]) == 1
        assert "unknown setting 'scale_by_mu'" in capsys.readouterr().err

    def test_malformed_config_line_fails_with_line_number(self, small_data_dir,
                                                          tmp_path, capsys):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("lam = 0.5\nnot a setting\n")
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt", "--config", cfg])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_lrr_rejects_malformed_config_and_ignores_a_valid_one(self, small_data_dir,
                                                                   tmp_path, capsys):
        base = ["cluster", "--input", small_data_dir / "X.csv", "--algorithm", "lrr",
                "--clusters", "3"]
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a setting\n")
        assert run(base + ["--labels-out", tmp_path / "bad.txt", "--config", bad]) == 1
        assert "expected key = value" in capsys.readouterr().err
        assert not (tmp_path / "bad.txt").exists()
        good = tmp_path / "good.cfg"
        good.write_text("lam = 0.1\nmax_iters = 5\n")
        assert run(base + ["--labels-out", tmp_path / "plain.txt"]) == 0
        assert run(base + ["--labels-out", tmp_path / "good.txt", "--config", good]) == 0
        assert (tmp_path / "good.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()

    def test_repeated_config_key_fails_naming_both_lines(self, small_data_dir, tmp_path,
                                                         capsys):
        """A key set twice is rejected, not last-wins."""
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("lam = 0.5\n# a comment\nlam = 0.2\n")
        labels_out = tmp_path / "pred.txt"
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                    "--labels-out", labels_out, "--config", cfg])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: line 3: lam repeats line 1\n"
        assert not labels_out.exists()

    def test_bad_boolean_in_config_fails(self, small_data_dir, tmp_path, capsys):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("normalize_j = maybe\n")
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt", "--config", cfg])
        assert code == 1
        assert "boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("lam = abc", "lam wants a number, got 'abc'"),
        ("max_iters = 2.5", "max_iters wants an integer, got '2.5'"),
    ])
    def test_unparsable_number_in_config_names_file_line_and_key(self, small_data_dir, tmp_path,
                                                                 capsys, line, message):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(f"gamma = 0.5\n{line}\n")
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt", "--config", cfg])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: line 2: {message}\n"

    @pytest.mark.parametrize("flag, name", [
        ("--lam", "lam"), ("--tau", "tau"), ("--gamma", "gamma"), ("--rho", "rho"),
        ("--mu1", "mu1_init"), ("--mu2", "mu2_init"), ("--mu-max", "mu_max"),
        ("--epsilon", "epsilon"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_setting_fails(self, small_data_dir, tmp_path, capsys, flag, name,
                                      value):
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt", flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
        assert not (tmp_path / "pred.txt").exists()

    def test_overflowing_firm_knee_fails(self, small_data_dir, tmp_path, capsys):
        """A gamma that SolverConfig accepts but whose knee w/(gamma*mu)
        overflows is an error that names the knee, not a NaN solve."""
        labels_out = tmp_path / "pred.txt"
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--algorithm", "gmc",
                    "--clusters", "3", "--labels-out", labels_out, "--gamma", "1e-310"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: firm threshold knee a must be finite, got a=inf\n")
        assert not labels_out.exists()

    def test_numerical_failure_writes_partial_trace(self, small_data_dir, tmp_path,
                                                    capsys, monkeypatch):
        real = prox.svt_firm
        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericalError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(prox, "svt_firm", failing)
        labels_out = tmp_path / "pred.txt"
        trace_out = tmp_path / "trace.csv"
        code = run(["cluster", "--input", small_data_dir / "X.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", labels_out, "--trace-out", trace_out,
                    "--epsilon", "1e-300"])
        assert code == 1
        assert capsys.readouterr().err == "error: synthetic failure\n"
        lines = trace_out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
        assert all("" not in line.split(",") for line in lines[1:])
        assert not labels_out.exists()

    def test_non_finite_representation_fails_with_one_error_line(self, small_data_dir,
                                                                 tmp_path, capsys,
                                                                 monkeypatch):
        real = cli.lrr_noisy

        def poisoned(X, lam):
            sol = real(X, lam)
            sol.C[0, 1] = np.nan
            return sol

        monkeypatch.setattr(cli, "lrr_noisy", poisoned)
        labels_out = tmp_path / "pred.txt"
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--algorithm", "lrr",
                    "--clusters", "3", "--labels-out", labels_out])
        assert code == 1
        assert capsys.readouterr().err == "error: affinity has non-finite entries (NaN or inf)\n"
        assert not labels_out.exists()

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_lrr_rejects_non_finite_input(self, small_data_dir, tmp_path, capsys, entry):
        X = load_matrix(small_data_dir / "X.csv")
        X[0, 1] = float(entry)
        bad = tmp_path / "X.csv"
        datasets.save_matrix(bad, X)
        labels_out = tmp_path / "pred.txt"
        code = run(["cluster", "--input", bad, "--algorithm", "lrr",
                    "--clusters", "3", "--labels-out", labels_out])
        assert code == 1
        assert capsys.readouterr().err == "error: X contains non-finite entries\n"
        assert not labels_out.exists()

    @pytest.mark.parametrize("flag", ["--labels-out", "--trace-out"])
    def test_missing_output_dir_fails_before_loading(self, small_data_dir, tmp_path, capsys,
                                                     monkeypatch, flag):
        def forbidden(*args, **kwargs):
            raise AssertionError("the input was loaded")
        monkeypatch.setattr(datasets, "load_matrix", forbidden)
        outputs = {"--labels-out": tmp_path / "pred.txt", "--trace-out": tmp_path / "trace.csv"}
        outputs[flag] = tmp_path / "absent" / outputs[flag].name
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                    *[a for pair in outputs.items() for a in pair]])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: output directory {tmp_path / 'absent'} does not exist\n")
        assert sorted(tmp_path.iterdir()) == [small_data_dir]

    @pytest.mark.parametrize("flag", ["--labels-out", "--trace-out"])
    def test_output_that_is_a_directory_fails_before_loading(self, small_data_dir, tmp_path,
                                                             capsys, monkeypatch, flag):
        def forbidden(*args, **kwargs):
            raise AssertionError("the input was loaded")
        monkeypatch.setattr(datasets, "load_matrix", forbidden)
        outputs = {"--labels-out": tmp_path / "pred.txt", "--trace-out": tmp_path / "trace.csv"}
        outputs[flag].mkdir()
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                    *[a for pair in outputs.items() for a in pair]])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: output {outputs[flag]} is a directory\n")
        assert sorted(tmp_path.iterdir()) == sorted([small_data_dir, outputs[flag]])

    def test_one_path_for_both_outputs_fails_before_loading(self, small_data_dir, tmp_path,
                                                            capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the input was loaded")
        monkeypatch.setattr(datasets, "load_matrix", forbidden)
        X_bytes = (small_data_dir / "X.csv").read_bytes()
        out = tmp_path / "out.txt"
        code = run(["cluster", "--input", small_data_dir / "X.csv", "--clusters", "3",
                    "--labels-out", out, "--trace-out", small_data_dir / ".." / "out.txt"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: output {small_data_dir / '..' / 'out.txt'} is also read or written "
                "by this command\n")
        assert sorted(tmp_path.iterdir()) == [small_data_dir]
        assert (small_data_dir / "X.csv").read_bytes() == X_bytes

    def test_labels_out_over_the_input_fails_before_loading(self, small_data_dir, tmp_path,
                                                           capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the input was loaded")
        monkeypatch.setattr(datasets, "load_matrix", forbidden)
        X = small_data_dir / "X.csv"
        X_bytes = X.read_bytes()
        files = sorted(small_data_dir.iterdir())
        labels_out = small_data_dir / ".." / small_data_dir.name / "X.csv"
        code = run(["cluster", "--input", X, "--clusters", "3", "--labels-out", labels_out])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: output {labels_out} is also read or written by this command\n")
        assert sorted(small_data_dir.iterdir()) == files
        assert X.read_bytes() == X_bytes

    def test_missing_input_file_fails(self, tmp_path, capsys):
        code = run(["cluster", "--input", tmp_path / "absent.csv",
                    "--algorithm", "gmc", "--clusters", "3",
                    "--labels-out", tmp_path / "pred.txt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_algorithm_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["cluster", "--input", tmp_path / "x.csv",
                 "--algorithm", "fancy", "--clusters", "3"])
        assert excinfo.value.code == 2

    def test_all_algorithms_produce_valid_labels(self, small_data_dir, tmp_path):
        for algorithm in ("gmc", "s0l0", "lrssc-convex", "lrr"):
            labels_out = tmp_path / f"{algorithm}.txt"
            code = run(["cluster", "--input", small_data_dir / "X.csv",
                        "--algorithm", algorithm, "--clusters", "3",
                        "--labels-out", labels_out])
            assert code == 0
            labels = load_labels(labels_out)
            assert labels.shape == (30,)
            assert set(labels) <= {0, 1, 2}

    def test_closed_form_path_holds_two_arrays(self):
        """Closed-form LRR at N=600 holds C and W, then W and the embedding's
        one array: C dies once the affinity exists (tracemalloc peak in units
        of 8 N^2 bytes; a warm-up call imports scipy.sparse.linalg)."""
        X = generate_synthetic(SyntheticSpec(points_per_subspace=200, noise_variance=0.01,
                                             seed=7)).X

        def call():
            return cli._solve_and_label("lrr", cli._LRR_DEFAULT_LAM, X, 3, 0)

        call()
        assert peak_arrays(call, X.shape[1]) <= 2.2

    @pytest.mark.xfail(reason="this run reads 4.7% error: shared pool directions "
                              "leave some points ambiguous to the affinity, though "
                              "a K-subspaces refit of its labels scores 0%",
                       strict=False)
    def test_benchmark_error_within_two_percent(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        assert run(["synth", "--seed", "0", "--out-dir", data]) == 0
        labels_out = tmp_path / "pred.txt"
        assert run(["cluster", "--input", data / "X.csv", "--algorithm", "gmc",
                    "--clusters", "3", "--seed", "0",
                    "--labels-out", labels_out]) == 0
        capsys.readouterr()
        assert run(["eval", "--pred", labels_out,
                    "--truth", data / "labels.txt"]) == 0
        ce = float(capsys.readouterr().out.strip())
        assert ce <= 0.02


class TestEval:
    def test_identical_files_zero(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        save_labels(path, [0, 1, 2, 0, 1, 2])
        assert run(["eval", "--pred", path, "--truth", path]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_permuted_labels_zero(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        pred = tmp_path / "pred.txt"
        save_labels(truth, [0, 0, 1, 1, 2, 2])
        save_labels(pred, [1, 1, 2, 2, 0, 0])
        assert run(["eval", "--pred", pred, "--truth", truth]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_quarter_error_value(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        pred = tmp_path / "pred.txt"
        save_labels(truth, [0, 0, 1, 1])
        save_labels(pred, [0, 1, 1, 1])
        assert run(["eval", "--pred", pred, "--truth", truth]) == 0
        assert capsys.readouterr().out.strip() == "0.250000"

    def test_csv_accumulates_rows(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        save_labels(path, [0, 1, 0, 1])
        csv_out = tmp_path / "results.csv"
        for _ in range(2):
            assert run(["eval", "--pred", path, "--truth", path,
                        "--csv-out", csv_out]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "pred,truth,n_points,ce"
        assert len(lines) == 3
        assert lines[1].endswith(",4,0.000000")

    def test_missing_csv_out_dir_fails_before_scoring(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        save_labels(path, [0, 1, 0, 1])
        missing = tmp_path / "missing"
        code = run(["eval", "--pred", path, "--truth", path, "--csv-out", missing / "x.csv"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory {missing} does not exist\n"

    def test_csv_out_that_is_a_directory_fails_before_scoring(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        save_labels(path, [0, 1, 0, 1])
        code = run(["eval", "--pred", path, "--truth", path, "--csv-out", tmp_path])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: output {tmp_path} is a directory\n")

    def test_csv_out_over_an_input_fails_before_scoring(self, tmp_path, capsys):
        pred, truth = tmp_path / "labels.txt", tmp_path / "truth.txt"
        save_labels(pred, [0, 1, 0, 1])
        save_labels(truth, [0, 1, 1, 1])
        pred_bytes = pred.read_bytes()
        code = run(["eval", "--pred", pred, "--truth", truth, "--csv-out", pred])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: output {pred} is also read or written by this command\n")
        assert pred.read_bytes() == pred_bytes
        assert sorted(tmp_path.iterdir()) == [pred, truth]

    def test_csv_row_quotes_a_path_with_a_comma_or_quote(self, tmp_path, capsys):
        """A file name holding a comma or a double quote stays one field."""
        pred = tmp_path / 'a,b "c".txt'
        truth = tmp_path / "t.txt"
        save_labels(pred, [0, 1])
        save_labels(truth, [0, 1])
        csv_out = tmp_path / "results.csv"
        assert run(["eval", "--pred", pred, "--truth", truth, "--csv-out", csv_out]) == 0
        with csv_out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["pred", "truth", "n_points", "ce"],
                        [str(pred), str(truth), "2", "0.000000"]]
        assert csv_out.read_text().endswith(f'"{tmp_path}/a,b ""c"".txt",{truth},2,0.000000\n')

    def test_closed_stdout_pipe_exits_quietly(self, tmp_path, monkeypatch, capsys):
        """A reader that closed the pipe (``lrssc eval ... | true``) ends the
        command with EXIT_BROKEN_PIPE, no error line, and stdout on devnull."""
        path = tmp_path / "labels.txt"
        save_labels(path, [0, 1])

        class ClosedPipe:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fh.fileno()

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh))
            assert run(["eval", "--pred", path, "--truth", path]) == cli.EXIT_BROKEN_PIPE
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert "error" not in capsys.readouterr().err

    def test_mismatched_lengths_fail(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_labels(a, [0, 1])
        save_labels(b, [0, 1, 2])
        assert run(["eval", "--pred", a, "--truth", b]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    SMALL = ["--n", "30", "--d", "3", "--L", "3", "--union-rank", "6",
             "--max-iters", "30"]

    def test_default_flags_build_the_default_spec(self):
        args = build_parser().parse_args(["sweep", "--out", "sweep.csv"])
        assert args.algorithms == "gmc,s0l0,lrssc-convex"
        spec = cli._synthetic_spec(args, int(args.pers), float(args.vars), seed=0)
        assert spec == SyntheticSpec()

    def test_non_finite_noise_variance_fails_before_writing(self, tmp_path, capsys,
                                                            monkeypatch):
        def never(*args):
            raise AssertionError("a cell was solved")

        # the finite variance comes first: the grid must fail before its cell
        monkeypatch.setattr(cli, "_solve_and_label", never)
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "10", "--vars", "0.0,nan", "--algorithms", "gmc",
                    "--trials", "1", "--out", out] + self.SMALL)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: noise_variance must be finite, got nan\n")
        assert not out.exists()

    def test_single_cell_single_trial(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "10", "--vars", "0.0",
                    "--algorithms", "gmc", "--trials", "1", "--seed", "3",
                    "--out", out] + self.SMALL)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "gmc"
        assert fields[1] == "10"
        assert fields[2] == "0"
        assert fields[3] == "0"
        assert 0.0 <= float(fields[4]) <= 1.0
        assert int(fields[5]) >= 1
        assert float(fields[6]) >= 0.0

    def test_grid_rows_in_deterministic_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "8,10", "--vars", "0.0,0.1",
                    "--algorithms", "gmc,lrr", "--trials", "2", "--seed", "1",
                    "--out", out] + self.SMALL)
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 2 * 2 * 2 * 2
        keys = [tuple(line.split(",")[:4]) for line in lines]
        expect = [(alg, per, var, str(trial))
                  for alg in ("gmc", "lrr")
                  for per in ("8", "10")
                  for var in ("0", "0.1")
                  for trial in range(2)]
        assert keys == expect

    def test_parallel_jobs_match_serial(self, tmp_path):
        rows = []
        # 8 is above the usable cores of a small machine, so it meets the cap
        for jobs in ("1", "2", "8"):
            out = tmp_path / f"sweep_{jobs}.csv"
            code = run(["sweep", "--pers", "10", "--vars", "0.0,0.1",
                        "--algorithms", "gmc,s0l0", "--trials", "2",
                        "--seed", "4", "--jobs", jobs, "--out", out]
                       + self.SMALL)
            assert code == 0
            # drop the wall-clock column, the only nondeterministic field
            rows.append([line.rsplit(",", 1)[0]
                         for line in out.read_text().splitlines()])
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fails(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "10", "--vars", "0.0", "--trials", "1",
                    "--jobs", jobs, "--out", out] + self.SMALL)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--jobs" in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_fails(self, tmp_path, capsys, trials):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "10", "--vars", "0.0", "--trials", trials,
                    "--jobs", "1", "--out", out] + self.SMALL)
        assert code == 1
        assert capsys.readouterr().err == f"error: --trials must be at least 1, got {trials}\n"
        assert not out.exists()

    @pytest.mark.parametrize("blas_threads", [None, "3"])
    def test_failing_cell_in_worker_reports_like_serial(self, tmp_path, capsys,
                                                        monkeypatch, blas_threads):
        # force real workers even on a one-core machine
        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            if blas_threads is None:
                monkeypatch.delenv(key, raising=False)
            else:
                monkeypatch.setenv(key, blas_threads)
        errors = []
        for jobs in ("1", "2"):
            # an LRR weight this small keeps no singular value, so C = 0 and
            # every cell raises inside its worker
            code = run(["sweep", "--pers", "10", "--trials", "2", "--algorithms", "lrr",
                        "--lam", "1e-12", "--jobs", jobs, "--out", tmp_path / "sweep.csv"])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == "error: affinity matrix is identically zero\n"
        assert errors[0] == errors[1]
        assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_threads
        assert os.environ.get("OMP_NUM_THREADS") == blas_threads

    # gmc's own rule rejects lam 0 before LRR's is reached; s0l0's accepts it.
    @pytest.mark.parametrize("algorithms, lam, message", [
        ("lrr", "-1", "lam must be positive, got -1.0"),
        ("gmc,lrr", "0", "needs lam > 0 and tau > 0, got lam=0.0, tau=1.0"),
        ("lrr", "inf", "lam must be finite, got inf"),
        ("s0l0,lrr", "0", "lam must be positive, got 0.0"),
    ], ids=["lrr--1", "gmc,lrr-0", "lrr-inf", "s0l0,lrr-0"])
    def test_bad_lrr_weight_fails_before_data_or_workers(self, tmp_path, capsys, monkeypatch,
                                                        algorithms, lam, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its settings")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        code = run(["sweep", "--pers", "10", "--algorithms", algorithms, "--lam", lam,
                    "--jobs", "2", "--out", tmp_path / "sweep.csv"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--algorithms", "gmc,s0l0", "--lam", "0.2", "--tau", "0.5"],
         "needs lam + tau = 1 with both nonnegative, got lam=0.2, tau=0.5"),
        (["--algorithms", "s0l0,gmc", "--gamma", "0"],
         "gamma must lie in (0, 1] for firm-threshold updates, got 0.0"),
    ], ids=["s0l0-weights", "gmc-gamma"])
    def test_settings_rule_fails_before_data_or_workers(self, tmp_path, capsys, monkeypatch,
                                                        flags, message):
        """Each algorithm's settings rule runs on its config before any cell,
        not in the first cell of that algorithm."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its settings")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        code = run(["sweep", *flags, "--pers", "50", "--vars", "0,0.2", "--jobs", "2",
                    "--out", tmp_path / "sweep.csv"])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_missing_output_dir_fails_before_data_or_workers(self, tmp_path, capsys,
                                                            monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its settings")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        code = run(["sweep", "--jobs", "2", "--out", tmp_path / "absent" / "sweep.csv"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: output directory {tmp_path / 'absent'} does not exist\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_a_directory_fails_before_data_or_workers(self, tmp_path, capsys,
                                                                 monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its output check")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        out = tmp_path / "sweep.csv"
        out.mkdir()
        assert run(["sweep", "--jobs", "2", "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: output {out} is a directory\n")
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    def test_undrawable_union_rank_fails_before_workers(self, tmp_path, capsys, monkeypatch):
        """At d = 5 and L = 3 two of the pool windows of union rank 6 would
        start at one column; the spec rule rejects it before any pool exists."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its specs")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--union-rank", "6", "--jobs", "2", "--out", out]) == 1
        assert capsys.readouterr() == ("", "error: union_rank must lie in [7, 15], got 6\n")
        assert not out.exists()

    # The values 0 and 0.0 name one variance, so the second is a repeat.
    @pytest.mark.parametrize("flags, message", [
        (["--algorithms", "lrr,lrr", "--vars", "0,0.0"], "error: --algorithms repeats 'lrr'\n"),
        (["--pers", "10,20,10"], "error: --pers repeats '10'\n"),
        (["--vars", "0,0.0"], "error: --vars repeats '0.0'\n"),
    ], ids=["algorithms", "pers", "vars"])
    def test_repeated_grid_value_fails_before_data_or_workers(self, tmp_path, capsys,
                                                              monkeypatch, flags, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its settings")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        code = run(["sweep", *flags, "--jobs", "2", "--out", tmp_path / "sweep.csv"])
        assert code == 1
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--pers", "50,abc", "error: --pers wants an integer, got 'abc'\n"),
        ("--vars", "0.0,0..2", "error: --vars wants a number, got '0..2'\n"),
    ], ids=["pers", "vars"])
    def test_unparsable_grid_value_names_its_flag(self, tmp_path, capsys, monkeypatch,
                                                  flag, value, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its settings")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        code = run(["sweep", flag, value, "--jobs", "2", "--out", tmp_path / "sweep.csv"])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_algorithm_fails(self, tmp_path, capsys):
        code = run(["sweep", "--pers", "10", "--vars", "0.0",
                    "--algorithms", "gmc,mystery", "--trials", "1",
                    "--out", tmp_path / "sweep.csv"] + self.SMALL)
        assert code == 1
        assert "mystery" in capsys.readouterr().err

    def test_lrr_only_sweep_rejects_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a setting\n")
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "10", "--vars", "0.0", "--algorithms", "lrr",
                    "--trials", "1", "--out", out, "--config", cfg] + self.SMALL)
        assert code == 1
        assert "expected key = value" in capsys.readouterr().err
        assert not out.exists()

    def test_out_over_the_config_fails_before_data_or_workers(self, tmp_path, capsys,
                                                              monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep went on past its output check")
        monkeypatch.setattr(cli, "map_tasks", forbidden)
        monkeypatch.setattr(datasets, "generate_synthetic", forbidden)
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_iters = 5\n")
        assert run(["sweep", "--jobs", "2", "--config", cfg, "--out", cfg]) == 1
        assert capsys.readouterr() == (
            "", f"error: output {cfg} is also read or written by this command\n")
        assert cfg.read_text() == "max_iters = 5\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_is_read_once_per_sweep(self, tmp_path, monkeypatch):
        calls, parse = [], cli._parse_config_file

        def counting_parse(path):
            calls.append(path)
            return parse(path)
        monkeypatch.setattr(cli, "_parse_config_file", counting_parse)
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_iters = 5\n")
        code = run(["sweep", "--pers", "10", "--vars", "0.0", "--trials", "1",
                    "--algorithms", "gmc,s0l0,lrssc-convex,lrr", "--config", cfg,
                    "--out", tmp_path / "sweep.csv"] + self.SMALL)
        assert code == 0
        assert calls == [cfg]

    @pytest.mark.parametrize("flags, weight", [([], 2.0), (["--lam", "0.5"], 0.5)],
                             ids=["default", "flag"])
    def test_lrr_settings_are_its_weight(self, flags, weight):
        args = build_parser().parse_args(["sweep", "--out", "sweep.csv", *flags])
        assert cli._solver_configs(args, ["gmc", "lrr"])["lrr"] == weight

    # The first grid's tables are, byte for byte, what the deleted
    # scripts/benchmark_sweep.py printed at the same flags; the second's
    # variance prints rounded.
    @pytest.mark.parametrize("grid, tables", [
        (["--pers", "10,20", "--vars", "0,0.1", "--trials", "3", "--algorithms", "gmc,s0l0,lrr"],
         "\ngmc: median CE over 3 trials\n"
         "  var\\per       10      20\n"
         "  0          33.3%   20.0%\n"
         "  0.1        46.7%   58.3%\n"
         "\ns0l0: median CE over 3 trials\n"
         "  var\\per       10      20\n"
         "  0          36.7%   15.0%\n"
         "  0.1        46.7%   48.3%\n"
         "\nlrr: median CE over 3 trials\n"
         "  var\\per       10      20\n"
         "  0          40.0%   18.3%\n"
         "  0.1        56.7%   60.0%\n"),
        (["--pers", "10", "--vars", "0.1234567", "--trials", "1", "--algorithms", "lrr"],
         "\nlrr: median CE over 1 trials\n"
         "  var\\per       10\n"
         "  0.123457   43.3%\n"),
    ], ids=["grid", "unprintable-var"])
    def test_prints_median_tables(self, tmp_path, capsys, grid, tables):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", *grid, "--jobs", "1", "--out", out]) == 0
        assert capsys.readouterr().out == tables

    def test_closed_form_baseline_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--pers", "10", "--vars", "0.0",
                    "--algorithms", "lrr", "--trials", "1", "--seed", "2",
                    "--out", out] + self.SMALL)
        assert code == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[0] == "lrr"
        assert fields[5] == "1"  # closed form counts as a single iteration


# The tuning output, pinned byte for byte: grid_search must keep the trial
# seeding, median scoring and first-minimum picks that produced it.
TUNE_CONVEX_STDOUT = (
    "== lrssc-convex (var=0.0) ==\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=5  median=0.1667\n"
    "  lrssc-convex: lam=0.990099 gamma=0.6 mu=5  median=0.2000\n"
    "  lrssc-convex: lam=0.909091 gamma=0.6 mu=5  median=0.3000\n"
    "  lrssc-convex: lam=0.500000 gamma=0.6 mu=5  median=0.2333\n"
    "  lrssc-convex: lam=0.090909 gamma=0.6 mu=5  median=0.2667\n"
    "  lrssc-convex: lam=0.009901 gamma=0.6 mu=5  median=0.3000\n"
    "  lrssc-convex: lam=0.000999 gamma=0.6 mu=5  median=0.3000\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=1  median=0.1667\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=3  median=0.1667\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=5  median=0.1667\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=10  median=0.2000\n"
    "  lrssc-convex: lam=0.999001 gamma=0.6 mu=20  median=0.1667\n"
    "--> lrssc-convex: lam=0.999001 gamma=0.6 mu2_init=1 median CE=0.1667\n"
)


class TestTune:
    def test_default_flags(self):
        args = build_parser().parse_args(["tune"])
        assert args.algorithms == "gmc,lrssc-convex,s0l0"
        assert (args.per, args.var) == (50, 0.0)
        assert (args.trials, args.seed, args.jobs) == (10, 777, 4)

    def test_small_grid_prints_every_cell_and_the_winner(self, capsys):
        assert run(["tune", "--algorithms", "lrssc-convex", "--trials", "3", "--per", "10",
                    "--jobs", "1"]) == 0
        assert capsys.readouterr().out == TUNE_CONVEX_STDOUT

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--jobs", "0"], "--jobs must be at least 1, got 0"),
        (["--per", "0"], "dimensions and counts must be positive"),
        (["--var", "-1"], "noise_variance must be nonnegative, got -1.0"),
        (["--seed", "-1"], "--seed must be non-negative, got -1"),
        (["--algorithms", "gmc,gmc"], "--algorithms repeats 'gmc'"),
        (["--algorithms", "gmc,lrr"],
         "unknown algorithm(s) ['lrr'], expected subset of ['gmc', 'lrssc-convex', 's0l0']"),
    ], ids=["trials", "jobs", "per", "var", "seed", "repeat", "lrr"])
    def test_bad_flag_fails_before_any_search(self, capsys, monkeypatch, flags, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(cli, "grid_search", forbidden)
        assert run(["tune", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["synth", "cluster", "sweep"])
def test_negative_seed_fails_before_any_work(tmp_path, capsys, command):
    # the input does not exist, so an error about it would mean it was read
    argv = {"synth": ["synth", "--out-dir", tmp_path],
            "cluster": ["cluster", "--input", tmp_path / "absent.csv", "--clusters", "3",
                        "--labels-out", tmp_path / "pred.txt"],
            "sweep": ["sweep", "--out", tmp_path / "sweep.csv"]}[command]
    assert run(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_gmc_rejects_zero_gamma_before_the_data_svd(small_data_dir, tmp_path, capsys,
                                                    monkeypatch):
    def forbidden(*args):
        raise AssertionError("the input was read or its SVD ran")

    # the settings are checked before the input is even read
    monkeypatch.setattr(solvers, "GramSolver", forbidden)
    monkeypatch.setattr(datasets, "load_matrix", forbidden)
    labels_out = tmp_path / "pred.txt"
    code = run(["cluster", "--input", small_data_dir / "X.csv", "--algorithm", "gmc",
                "--clusters", "3", "--labels-out", labels_out, "--gamma", "0"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: gamma must lie in (0, 1] for firm-threshold updates, got 0.0\n")
    assert not labels_out.exists()


@pytest.mark.parametrize("command, expected", [
    ("cluster-lrr", {"gmc": 0, "lrr_noisy": 1, "clustering_error": 0,
                     "generate_synthetic": 0}),
    ("sweep-gmc-lrr", {"gmc": 1, "lrr_noisy": 1, "clustering_error": 2,
                       "generate_synthetic": 2}),
])
def test_commands_reach_layers_through_module_attributes(small_data_dir, tmp_path,
                                                         monkeypatch, command, expected):
    """Each layer is looked up through the name a wrapper can replace at run time."""
    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(cli._ITERATIVE, "gmc", counting("gmc", cli._ITERATIVE["gmc"]))
    monkeypatch.setattr(cli, "lrr_noisy", counting("lrr_noisy", cli.lrr_noisy))
    monkeypatch.setattr(cli, "clustering_error",
                        counting("clustering_error", cli.clustering_error))
    monkeypatch.setattr(datasets, "generate_synthetic",
                        counting("generate_synthetic", datasets.generate_synthetic))
    if command == "cluster-lrr":
        argv = ["cluster", "--input", small_data_dir / "X.csv", "--algorithm", "lrr",
                "--clusters", "3", "--labels-out", tmp_path / "pred.txt"]
    else:
        argv = ["sweep", "--jobs", "1", "--algorithms", "gmc,lrr", "--pers", "10",
                "--vars", "0.0", "--trials", "1", "--out", tmp_path / "sweep.csv"]
        argv += TestSweep.SMALL
    assert run(argv) == 0
    assert calls == expected


def test_import_leaves_scipy_optimize_unloaded():
    """Only scoring needs scipy.optimize, and cluster never scores.  Only the
    Lanczos embedding of a large affinity needs scipy.sparse.linalg."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lrssc.cli; "
         "print('scipy.optimize' in sys.modules, 'scipy.sparse.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"
