"""Synthetic data generation and plain-text matrix / label file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrssc import (
    SyntheticSpec,
    generate_synthetic,
    load_labels,
    load_matrix,
    save_labels,
    save_matrix,
)
from lrssc.datasets import _random_orthonormal


BENCH = SyntheticSpec(ambient_dim=100, subspace_dim=5, num_subspaces=3,
                      points_per_subspace=50, union_rank=10, seed=0)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(ambient_dim=0),
        dict(subspace_dim=0),
        dict(num_subspaces=0),
        dict(points_per_subspace=0),
        dict(noise_variance=-0.1),
        dict(noise_variance=float("nan")),
        dict(noise_variance=float("inf")),
        dict(noise_variance=float("-inf")),
        dict(union_rank=4),    # below subspace_dim + num_subspaces - 1
        dict(union_rank=16),   # above subspace_dim * num_subspaces
        dict(ambient_dim=8),   # cannot host union rank 10
        dict(seed=-1),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    def test_rank_bounds_inclusive(self):
        SyntheticSpec(union_rank=7)    # = subspace_dim + num_subspaces - 1
        SyntheticSpec(union_rank=15)   # = subspace_dim * num_subspaces

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), L=st.integers(1, 4), r=st.integers(0, 21),
           extra_points=st.integers(0, 2), seed=st.integers(0, 100))
    def test_constructs_exactly_on_drawable_ranks(self, d, L, r, extra_points, seed):
        """A spec constructs exactly when d + L - 1 <= r <= d * L (ambient
        room aside), and every spec that constructs draws a noiseless X of
        rank exactly r."""
        drawable = d + L - 1 <= r <= d * L
        try:
            spec = SyntheticSpec(ambient_dim=max(r, 1) + 1, subspace_dim=d, num_subspaces=L,
                                 points_per_subspace=d + extra_points, union_rank=r, seed=seed)
        except ValueError as err:
            assert not drawable
            assert str(err) == f"union_rank must lie in [{d + L - 1}, {d * L}], got {r}"
            return
        assert drawable
        assert np.linalg.matrix_rank(generate_synthetic(spec).X) == r


class TestGenerator:
    def test_benchmark_shape_and_labels(self):
        ds = generate_synthetic(BENCH)
        assert ds.X.shape == (100, 150)
        assert ds.truth.shape == (150,)
        for label in range(3):
            assert np.count_nonzero(ds.truth == label) == 50

    def test_union_rank_exact(self):
        ds = generate_synthetic(BENCH)
        s = np.linalg.svd(ds.X, compute_uv=False)
        assert s[9] > 1e-6 * s[0]       # ten directions genuinely present
        assert s[10] < 1e-10 * s[0]     # nothing beyond the target rank

    def test_noiseless_points_stay_in_their_subspace(self):
        ds = generate_synthetic(BENCH)
        for label in range(3):
            block = ds.X[:, ds.truth == label]
            U, s, _ = np.linalg.svd(block, full_matrices=False)
            assert np.count_nonzero(s > 1e-10 * s[0]) == 5
            resid = block - U[:, :5] @ (U[:, :5].T @ block)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(block)

    def test_seed_determinism(self):
        a = generate_synthetic(BENCH)
        b = generate_synthetic(BENCH)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_different_seeds_differ(self):
        a = generate_synthetic(BENCH)
        b = generate_synthetic(SyntheticSpec(seed=1))
        assert not np.array_equal(a.X, b.X)

    def test_noise_changes_data_but_not_labels(self):
        clean = generate_synthetic(BENCH)
        noisy = generate_synthetic(SyntheticSpec(noise_variance=0.3, seed=0))
        assert not np.array_equal(clean.X, noisy.X)
        np.testing.assert_array_equal(clean.truth, noisy.truth)

    def test_full_rank_union_gives_independent_subspaces(self):
        spec = SyntheticSpec(ambient_dim=30, subspace_dim=3, num_subspaces=3,
                             points_per_subspace=10, union_rank=9, seed=2)
        ds = generate_synthetic(spec)
        s = np.linalg.svd(ds.X, compute_uv=False)
        assert s[8] > 1e-6 * s[0]
        assert s[9] < 1e-10 * s[0]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_default_subspaces_are_dependent(self, seed):
        """At the defaults the windows are pool[0:5], pool[2:7] and pool[5:10]:
        S2 lies in S1 + S3, so X has the rank of S1 and S3 alone, 10.  At
        union_rank = d*L = 15 the three subspaces are independent."""
        def ranks(union_rank):
            ds = generate_synthetic(SyntheticSpec(union_rank=union_rank, seed=seed))
            block = [ds.X[:, ds.truth == label] for label in range(3)]
            pairs = [np.hstack([block[i], block[j]]) for i, j in ((0, 1), (1, 2), (0, 2))]
            return [np.linalg.matrix_rank(M) for M in [ds.X, *pairs]]
        assert ranks(10) == [10, 7, 8, 10]
        assert ranks(15) == [15, 10, 10, 10]

    def test_single_subspace(self):
        spec = SyntheticSpec(ambient_dim=10, subspace_dim=4, num_subspaces=1,
                             points_per_subspace=6, union_rank=4, seed=3)
        ds = generate_synthetic(spec)
        assert ds.X.shape == (10, 6)
        np.testing.assert_array_equal(ds.truth, np.zeros(6, dtype=int))

    @pytest.mark.parametrize("union_rank, subspaces", [(5, 3), (6, 3), (5, 2)])
    def test_coinciding_windows_rejected_before_drawing(self, union_rank, subspaces):
        """Two subspaces whose windows of the pool would start at the same
        column would be one subspace; such a spec fails at construction, so
        there is nothing to draw."""
        message = f"union_rank must lie in [{4 + subspaces}, {5 * subspaces}], got {union_rank}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(union_rank=union_rank, num_subspaces=subspaces)

    def test_orthonormal_helper(self):
        rng = np.random.default_rng(4)
        Q = _random_orthonormal(rng, 100, 10)
        np.testing.assert_allclose(Q.T @ Q, np.eye(10), atol=1e-12)


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path):
        """Entries are written byte for byte as format(v, ".17g") writes them,
        the sign of -0.0 included, which assert_array_equal cannot see, and
        read back exactly."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((7, 11)) * np.logspace(-8, 8, 11)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e-300, 1.0, 0.1]
        wide = rng.standard_normal(11) * 10.0 ** rng.uniform(-300, 300, 11)
        X = np.vstack([X, special, wide])
        path = tmp_path / "m.csv"
        save_matrix(path, X)
        assert path.read_text() == "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in X)
        np.testing.assert_array_equal(load_matrix(path), X)

    def test_one_dimensional_input_saved_as_row(self, tmp_path):
        path = tmp_path / "row.csv"
        save_matrix(path, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.0, 3.0]])

    def test_ragged_rows_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix(path)

    def test_bad_number_error_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2, column 2"):
            load_matrix(path)

    @pytest.mark.parametrize("token", [" 1.5 ", "1_0", "-0", "nan", "-Infinity", "1e309",
                                       "4.9e-324", "0x1p3", ""])
    def test_entry_parses_as_float_does(self, tmp_path, token):
        """An entry gets float()'s value bit for bit, or is rejected as float()
        rejects it, with its line and column named."""
        path = tmp_path / "tricky.csv"
        path.write_text(f"1,2,3\n4,{token},6\n")
        try:
            expected = float(token)
        except ValueError:
            with pytest.raises(ValueError, match=re.escape(
                    f"line 2, column 2: cannot parse {token.strip()!r} as a number")):
                load_matrix(path)
            return
        got = load_matrix(path)
        assert got.dtype == np.float64 and got.shape == (2, 3)
        assert got[1, 1].view(np.uint64) == np.float64(expected).view(np.uint64)
        np.testing.assert_array_equal(np.delete(got.ravel(), 4), [1, 2, 3, 4, 6])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2\n\n3,4\n")
        np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.csv")

    @pytest.mark.parametrize("X", [
        pytest.param(np.random.default_rng(6).standard_normal((4, 7)), id="float64"),
        pytest.param(np.asfortranarray(np.random.default_rng(6).standard_normal((4, 7))),
                     id="fortran-order"),
        pytest.param(np.arange(12, dtype=np.int32).reshape(3, 4), id="int32"),
        pytest.param(np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3), id="float32"),
    ])
    def test_npy_reads_as_c_ordered_float64(self, tmp_path, X):
        path = tmp_path / "m.npy"
        np.save(path, X)
        got = load_matrix(path)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, X.astype(float))

    @pytest.mark.parametrize("X, message", [
        pytest.param(np.ones(3), "expected a 2-d array of real numbers", id="1-d"),
        pytest.param(np.ones((2, 2, 2)), "expected a 2-d array of real numbers", id="3-d"),
        pytest.param(np.ones((2, 2), complex), "expected a 2-d array of real numbers",
                     id="complex"),
        pytest.param(np.ones((2, 2), bool), "expected a 2-d array of real numbers", id="bool"),
        pytest.param(np.ones((0, 3)), "empty matrix file", id="empty"),
        pytest.param(np.array([[1.0, None]], dtype=object), "cannot read it as a .npy array",
                     id="pickled"),
        pytest.param(b"1,2\n3,4\n", "cannot read it as a .npy array", id="not-npy"),
    ])
    def test_npy_errors_name_the_file(self, tmp_path, X, message):
        path = tmp_path / "bad.npy"
        if isinstance(X, bytes):
            path.write_bytes(X)
        else:
            np.save(path, X, allow_pickle=True)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_matrix(path)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 1, 0, 3])
        path = tmp_path / "labels.txt"
        save_labels(path, labels)
        np.testing.assert_array_equal(load_labels(path), labels)
        assert path.read_text() == "0\n2\n1\n1\n0\n3\n"

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n1\nx\n")
        with pytest.raises(ValueError, match="line 3"):
            load_labels(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            load_labels(path)
