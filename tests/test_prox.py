"""Thresholding operators: fixed values, prox optimality, and shape properties."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

from lrssc import prox
from lrssc import (
    NumericalError,
    ThresholdParams,
    firm_threshold,
    gmc_penalty_separable,
    hard_threshold,
    scaled_mc_penalty,
    soft_threshold,
    svt_firm,
    svt_hard,
    svt_soft,
)
from lrssc.prox import entrywise_firm, entrywise_hard
from conftest import (
    brute_force_prox_objective,
    firm_penalty,
    l0_penalty,
    l1_penalty,
    prox_candidates,
)

P12 = ThresholdParams(lam=1.0, a=2.0)


class TestScalarValues:
    def test_soft_values(self):
        assert soft_threshold(2.0, 1.0) == pytest.approx(1.0)
        assert soft_threshold(0.0, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_firm_values(self):
        assert firm_threshold(1.5, P12) == pytest.approx(1.0)
        assert firm_threshold(3.0, P12) == 3.0
        assert firm_threshold(-0.8, P12) == 0.0

    def test_hard_values(self):
        assert hard_threshold(2.0, 1.0) == 2.0
        assert hard_threshold(1.0, 1.0) == 0.0

    def test_hard_boundary_tie_goes_to_zero(self):
        assert hard_threshold(math.sqrt(2.0), 1.0) == 0.0

    def test_scalar_operators_accept_arrays(self):
        x = np.array([-3.0, -0.5, 0.0, 1.5, 4.0])
        assert soft_threshold(x, 1.0).shape == x.shape
        assert firm_threshold(x, P12).shape == x.shape
        assert hard_threshold(x, 1.0).shape == x.shape


class TestParameterValidation:
    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_soft_rejects_nonpositive_lam(self, lam):
        with pytest.raises(ValueError):
            soft_threshold(1.0, lam)

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_hard_rejects_nonpositive_lam(self, lam):
        with pytest.raises(ValueError):
            hard_threshold(1.0, lam)

    def test_threshold_params_reject_bad_knee(self):
        with pytest.raises(ValueError):
            ThresholdParams(lam=1.0, a=1.0)  # equality not allowed
        with pytest.raises(ValueError):
            ThresholdParams(lam=1.0, a=0.5)
        with pytest.raises(ValueError):
            ThresholdParams(lam=0.0, a=1.0)
        with pytest.raises(ValueError, match="knee a must be finite, got a=inf"):
            ThresholdParams(lam=1.0, a=np.inf)


class TestPenalties:
    def test_scaled_mc_values(self):
        assert scaled_mc_penalty(0.0, 1.0) == 0.0
        assert scaled_mc_penalty(2.0, 1.0) == pytest.approx(0.5)
        assert scaled_mc_penalty(0.5, 0.0) == pytest.approx(0.5)

    def test_scaled_mc_rejects_negative_b(self):
        with pytest.raises(ValueError):
            scaled_mc_penalty(1.0, -1.0)
        with pytest.raises(ValueError, match="b must be nonnegative, got nan"):
            scaled_mc_penalty(1.0, np.nan)

    def test_separable_values(self):
        assert gmc_penalty_separable(np.zeros(3), 0.7) == 0.0
        assert gmc_penalty_separable(np.array([2.0, 2.0]), 1.0) == pytest.approx(1.0)
        assert gmc_penalty_separable(np.array([1.0, -1.0]), 0.0) == pytest.approx(2.0)

    @given(
        z=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        b=st.floats(0.0, 5.0),
    )
    def test_penalty_sandwiched_between_zero_and_l1(self, z, b):
        z = np.asarray(z)
        value = gmc_penalty_separable(z, b)
        assert 0.0 <= value <= np.abs(z).sum() + 1e-12


class TestProxOptimality:
    """Each operator's output attains the brute-force objective minimum."""

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0])
    def test_hard_attains_minimum(self, lam):
        pen = l0_penalty(lam)
        for y in np.linspace(-5, 5, 41):
            x = hard_threshold(y, lam)
            best = brute_force_prox_objective(y, pen, prox_candidates(y, 6.0))
            attained = 0.5 * (y - x) ** 2 + pen(np.asarray(x))
            assert attained <= best + 1e-9

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_soft_attains_minimum(self, lam):
        pen = l1_penalty(lam)
        for y in np.linspace(-5, 5, 41):
            x = soft_threshold(y, lam)
            best = brute_force_prox_objective(y, pen, prox_candidates(y, 8.0))
            attained = 0.5 * (y - x) ** 2 + pen(np.asarray(x))
            assert attained <= best + 1e-9

    @pytest.mark.parametrize("lam,a", [(0.5, 1.0), (1.0, 2.0), (0.2, 3.0)])
    def test_firm_attains_minimum(self, lam, a):
        pen = firm_penalty(lam, a)
        for y in np.linspace(-5, 5, 41):
            x = firm_threshold(y, ThresholdParams(lam=lam, a=a))
            best = brute_force_prox_objective(y, pen, prox_candidates(y, 8.0))
            attained = 0.5 * (y - x) ** 2 + pen(np.asarray(x))
            assert attained <= best + 1e-9


class TestScalarShapes:
    def test_firm_approaches_soft_for_large_knee(self):
        params = ThresholdParams(lam=1.0, a=1e6)
        x = np.linspace(-5, 5, 1001)
        gap = np.abs(firm_threshold(x, params) - soft_threshold(x, 1.0))
        assert gap.max() <= 1e-5

    def test_firm_approaches_hard_for_tight_knee(self):
        lam = 1.0
        params = ThresholdParams(lam=lam, a=lam * (1 + 1e-9))
        for x in [-4.0, -1.5, -0.3, 0.4, 2.0, 5.0]:
            expect = x if abs(x) > lam * (1 + 1e-9) else 0.0
            assert firm_threshold(x, params) == pytest.approx(expect, abs=1e-8)

    @given(x=st.floats(-100, 100))
    def test_operators_are_odd(self, x):
        assert soft_threshold(-x, 1.0) == -soft_threshold(x, 1.0)
        assert firm_threshold(-x, P12) == -firm_threshold(x, P12)
        assert hard_threshold(-x, 1.0) == -hard_threshold(x, 1.0)

    def test_operators_nondecreasing_on_grid(self):
        x = np.linspace(-6, 6, 2001)
        for op in (lambda v: soft_threshold(v, 0.8),
                   lambda v: firm_threshold(v, P12),
                   lambda v: hard_threshold(v, 0.8)):
            values = op(x)
            assert np.all(np.diff(values) >= -1e-15)

    @given(x=st.floats(-50, 50), y=st.floats(-50, 50))
    def test_soft_nonexpansive(self, x, y):
        assert abs(soft_threshold(x, 1.3) - soft_threshold(y, 1.3)) <= abs(x - y) + 1e-12

    @given(x=st.floats(-50, 50))
    def test_hard_output_is_zero_or_input(self, x):
        out = hard_threshold(x, 2.0)
        assert out == 0.0 or out == x


class TestEntrywise:
    def test_entrywise_hard_values(self):
        M = np.array([[2.0, 1.0], [-3.0, 0.1]])
        np.testing.assert_array_equal(
            entrywise_hard(M, 1.0), np.array([[2.0, 0.0], [-3.0, 0.0]]))
        np.testing.assert_array_equal(entrywise_hard(np.zeros((3, 3)), 1.0),
                                      np.zeros((3, 3)))

    def test_entrywise_hard_tiny_threshold_passthrough(self):
        M = np.array([[2.0, -1.0], [0.5, 3.0]])
        np.testing.assert_array_equal(entrywise_hard(M, 1e-12), M)

    def test_entrywise_firm_values(self):
        np.testing.assert_allclose(entrywise_firm(np.array([[1.5]]), P12),
                                   np.array([[1.0]]))
        np.testing.assert_array_equal(entrywise_firm(np.array([[5.0]]), P12),
                                      np.array([[5.0]]))
        np.testing.assert_array_equal(entrywise_firm(np.zeros((2, 4)), P12),
                                      np.zeros((2, 4)))


class TestSingularValueThresholding:
    def test_svt_firm_on_diagonals(self):
        np.testing.assert_allclose(svt_firm(np.diag([3.0, 0.5]), P12),
                                   np.diag([3.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(svt_firm(np.diag([1.5]), P12),
                                   np.diag([1.0]), atol=1e-12)
        np.testing.assert_array_equal(svt_firm(np.zeros((3, 3)), P12),
                                      np.zeros((3, 3)))

    def test_svt_hard_on_diagonals(self):
        np.testing.assert_allclose(svt_hard(np.diag([2.0, 1.0]), 1.0),
                                   np.diag([2.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(svt_hard(np.diag([5.0]), 0.5), np.diag([5.0]))
        np.testing.assert_array_equal(svt_hard(np.zeros((2, 2)), 1.0),
                                      np.zeros((2, 2)))

    def test_svt_firm_matches_thresholded_spectrum(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            M = rng.standard_normal((10, 10))
            sv_in = np.linalg.svd(M, compute_uv=False)
            sv_out = np.linalg.svd(svt_firm(M, P12), compute_uv=False)
            expect = np.sort(firm_threshold(sv_in, P12))[::-1]
            np.testing.assert_allclose(sv_out, expect, atol=1e-8)

    def test_svt_does_not_increase_rank(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8))
        for out in (svt_firm(M, P12), svt_hard(M, 0.3), svt_soft(M, 0.3)):
            assert np.linalg.matrix_rank(out) <= np.linalg.matrix_rank(M)

    def test_svt_soft_shrinks_spectrum(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((6, 6))
        sv_in = np.linalg.svd(M, compute_uv=False)
        sv_out = np.linalg.svd(svt_soft(M, 0.7), compute_uv=False)
        np.testing.assert_allclose(sv_out, np.maximum(sv_in - 0.7, 0.0), atol=1e-10)

    @pytest.mark.parametrize("svt, param", [(svt_firm, P12), (svt_hard, 0.3),
                                            (svt_soft, 0.7)])
    def test_returned_spectrum_is_the_output_spectrum(self, svt, param):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 6))
        out, sv = svt(M, param, return_spectrum=True)
        np.testing.assert_array_equal(out, svt(M, param))
        np.testing.assert_allclose(sv, np.linalg.svd(out, compute_uv=False),
                                   rtol=1e-12, atol=1e-12)

    def test_svt_rejects_non_finite_input(self):
        from lrssc import NumericalError
        M = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            svt_soft(M, 0.5)


def _soft_formula(x, lam):
    """soft_threshold as one nested expression: the reference for its passes."""
    x = np.asarray(x, dtype=float)
    return (np.sign(x) * np.maximum(np.abs(x) - lam, 0.0))[()]


def _firm_formula(x, p):
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    ramp = p.a * (ax - p.lam) / (p.a - p.lam) * np.sign(x)
    return np.where(ax <= p.lam, 0.0, np.where(ax >= p.a, x, ramp))[()]


def _hard_formula(x, lam):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) > math.sqrt(2.0 * lam), x, 0.0)[()]


class TestEntrywiseAgainstFormulas:
    """The thresholds agree bit for bit (signed zeros included) with their
    one-expression formulas, on NaN, +-inf and exact ties at every boundary."""

    PARAMS = [ThresholdParams(lam=0.5, a=1.5),
              ThresholdParams(lam=0.5, a=0.5 * (1.0 + 1e-9)),
              ThresholdParams(lam=0.02, a=3.0)]

    @staticmethod
    def same(out, ref):
        assert type(out) is type(ref)
        assert np.shape(out) == np.shape(ref)
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    @staticmethod
    def values(p):
        t = math.sqrt(2.0 * p.lam)
        ties = [p.lam, p.a, t, (p.lam + p.a) / 2.0]
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324]
        return np.array(ties + [-v for v in ties] + special + [-v for v in special[5:]])

    @pytest.mark.parametrize("p", PARAMS, ids=["ramp", "knee", "wide"])
    def test_matrices(self, p):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((40, 30)) * p.a
        v = self.values(p)
        M.flat[rng.choice(M.size, 4 * v.size, replace=False)] = np.repeat(v, 4)
        self.same(firm_threshold(M, p), _firm_formula(M, p))
        self.same(soft_threshold(M, p.lam), _soft_formula(M, p.lam))
        self.same(hard_threshold(M, p.lam), _hard_formula(M, p.lam))
        self.same(entrywise_firm(M, p), _firm_formula(M, p))
        self.same(entrywise_hard(M, p.lam), _hard_formula(M, p.lam))

    @pytest.mark.parametrize("p", PARAMS, ids=["ramp", "knee", "wide"])
    def test_scalars_stay_numpy_scalars(self, p):
        for x in self.values(p).tolist():
            for out, ref in [(firm_threshold(x, p), _firm_formula(x, p)),
                             (soft_threshold(x, p.lam), _soft_formula(x, p.lam)),
                             (hard_threshold(x, p.lam), _hard_formula(x, p.lam))]:
                assert isinstance(out, np.float64)
                self.same(out, ref)


def _svt_case(kind, t):
    """(SVT, its argument, the same threshold on a vector), with dead zone [0, t].

    ``knee`` is the firm threshold at gamma = 1, whose knee the solvers nudge
    just above the threshold: a hard threshold, like ``hard``.
    """
    if kind in ("firm", "knee"):
        p = ThresholdParams(lam=t, a=(2.0 if kind == "firm" else 1.0 + 1e-9) * t)
        return svt_firm, p, lambda s: firm_threshold(s, p)
    if kind == "soft":
        return svt_soft, t, lambda s: soft_threshold(s, t)
    return svt_hard, t * t / 2.0, lambda s: hard_threshold(s, t * t / 2.0)


def _with_spectrum(shape, s, seed):
    """An m x n matrix whose nonzero singular values are s."""
    rng = np.random.default_rng(seed)
    m, n = shape
    U, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    return (U * s) @ V.T


def _rng_matrix(shape, seed, rank=None):
    rng = np.random.default_rng(seed)
    m, n = shape
    if rank is None:
        return rng.standard_normal(shape)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


# The LAPACK stages of the Gram kernel, in call order.
_STAGES = ("dsytrd_lwork", "dsytrd", "dsterf", "dstemr", "dstevd", "dormqr")
_VECTOR_STAGES = ("dstemr", "dstevd", "dormqr")


def _count_stages(monkeypatch, failing=None):
    """Count calls of each LAPACK stage; the ``failing`` one reports info = 1."""
    calls = dict.fromkeys(_STAGES, 0)
    for name in _STAGES:
        def counting(*args, _name=name, _real=getattr(lapack, name), **kw):
            calls[_name] += 1
            out = _real(*args, **kw)
            return (*out[:-1], 1) if _name == failing else out
        monkeypatch.setattr(lapack, name, counting)
    return calls


_LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
            "strided": lambda m: np.repeat(m, 2, axis=1)[:, ::2]}


@pytest.mark.parametrize("a_layout", list(_LAYOUTS))
@pytest.mark.parametrize("b_layout", list(_LAYOUTS))
def test_gemm_is_matmul_in_c_order(a_layout, b_layout):
    rng = np.random.default_rng(1)
    a = _LAYOUTS[a_layout](rng.standard_normal((7, 5)))
    b = _LAYOUTS[b_layout](rng.standard_normal((5, 4)))
    out = prox._gemm(a, b)
    assert out.flags.c_contiguous
    np.testing.assert_allclose(out, a @ b, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("shape", [(7, 5), (5, 1), (1, 5)])
def test_gram_is_the_lower_triangle_of_ata(layout, shape):
    A = _LAYOUTS[layout](np.random.default_rng(2).standard_normal(shape))
    G = prox._gram(A)
    assert G.flags.f_contiguous
    np.testing.assert_allclose(G, np.tril(A.T @ A), rtol=1e-14, atol=1e-14)


class TestGramKernel:
    """The Gram-eigendecomposition SVT against the SVD (gesdd) SVT it replaces."""

    @pytest.fixture(autouse=True)
    def lapack_stays_quiet(self, capfd):
        """LAPACK prints a message when handed an illegal argument (OpenBLAS on
        stdout, reference LAPACK on stderr); no case may hand it one."""
        yield
        assert capfd.readouterr() == ("", "")

    def check(self, monkeypatch, kind, M, t, fallback):
        svt, arg, shrink = _svt_case(kind, t)
        ref, ref_sv = prox._svt_gesdd(M, shrink, True)
        svds = []
        real_svd = scipy.linalg.svd

        def counting_svd(*args, **kw):
            svds.append(args)
            return real_svd(*args, **kw)

        monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
        out, sv = svt(M, arg, return_spectrum=True)
        assert len(svds) == int(fallback)
        assert out.shape == M.shape
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.all(np.diff(sv) <= 0.0)
        scale = 1e-10 * max(ref_sv[0], 1.0)
        np.testing.assert_allclose(sv, ref_sv, rtol=0, atol=scale)
        np.testing.assert_allclose(sv, np.linalg.svd(out, compute_uv=False),
                                   rtol=0, atol=scale)
        np.testing.assert_array_equal(svt(M, arg), out)
        return out, ref

    @pytest.mark.parametrize("kind", ["firm", "soft", "hard"])
    @pytest.mark.parametrize("shape, rank", [
        ((20, 20), None), ((30, 12), None), ((12, 30), None),
        ((20, 20), 4), ((30, 12), 5), ((12, 30), 3)])
    def test_matches_svd_path(self, monkeypatch, kind, shape, rank):
        M = _rng_matrix(shape, seed=sum(shape), rank=rank)
        s_max = np.linalg.norm(M, 2)
        for t in (0.05 * s_max, 0.3 * s_max, 2.0 * s_max):
            self.check(monkeypatch, kind, M, t, fallback=False)

    @pytest.mark.parametrize("kind", ["firm", "soft", "hard"])
    @pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
    def test_all_zero_input(self, monkeypatch, kind, shape):
        out, _ = self.check(monkeypatch, kind, np.zeros(shape), 0.5, fallback=False)
        np.testing.assert_array_equal(out, np.zeros(shape))

    @pytest.mark.parametrize("kind", ["firm", "soft", "hard"])
    @pytest.mark.parametrize("decades", [4, 8, 12, 16])
    def test_geometric_spectra_on_both_sides_of_the_cut(self, monkeypatch, kind, decades):
        n = 60
        s = np.logspace(0.0, -decades, n)
        for shape in ((n, n), (n + 20, n), (n, n + 20)):
            M = _with_spectrum(shape, s, seed=decades)
            cut = prox._GRAM_CUT * np.linalg.norm(M, 2)
            for factor in (10.0, 1e3):
                self.check(monkeypatch, kind, M, factor * cut, fallback=False)
            for factor in (0.1, 1e-4):
                out, ref = self.check(monkeypatch, kind, M, factor * cut, fallback=True)
                np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("kind", ["knee", "hard"])
    @pytest.mark.parametrize("shape", [(30, 30), (40, 30), (30, 40)])
    @pytest.mark.parametrize("kept", [5, 25])
    def test_both_sides_of_the_product(self, monkeypatch, kind, shape, kept):
        """A hard-type threshold keeps the top components unchanged and zeroes
        the rest.  With 5 of 30 kept the product runs over the kept side, with
        25 kept over the 5 changed ones (the complement); both match the SVD.
        The last three singular values, 1e-10, square to below rounding, so
        some come out of the Gram eigendecomposition as exact zeros; the
        complement must still remove them."""
        s = np.concatenate([np.linspace(1.0, 0.05, min(shape) - 3), np.full(3, 1e-10)])
        M = _with_spectrum(shape, s, seed=kept)
        t = (s[kept - 1] + s[kept]) / 2
        self.check(monkeypatch, kind, M, t, fallback=False)
        svt, arg, _ = _svt_case(kind, t)
        assert np.count_nonzero(svt(M, arg, return_spectrum=True)[1]) == kept

    @pytest.mark.parametrize("kind", ["firm", "knee", "hard"])
    @pytest.mark.parametrize("shape", [(40, 24), (24, 24), (24, 40)])
    @pytest.mark.parametrize("kept, stage", [
        (0, None), (2, "dstemr"), (12, "dstevd"), (22, "dstemr"), (24, None)])
    def test_partial_kernel_sides(self, monkeypatch, kind, shape, kept, stage):
        """The Gram kernel computes vectors for the smaller side only:
        none when nothing is kept (the result is zero) or nothing changes (the
        result is a copy of M), MRRR for 2 of 24 kept or changed (hard and
        knee), divide and conquer on all for a side above a quarter."""
        s = np.linspace(1.0, 0.05, 24)
        M = _with_spectrum(shape, s, seed=kept)
        t = s[-1] / 4 if kept == 24 else 2.0 if kept == 0 else (s[kept - 1] + s[kept]) / 2
        calls = _count_stages(monkeypatch)
        out, _ = self.check(monkeypatch, kind, M, t, fallback=False)
        vector_calls = {name: calls[name] for name in _VECTOR_STAGES}
        if stage is None:
            assert vector_calls == {"dstemr": 0, "dstevd": 0, "dormqr": 0}
            if kept == 0:
                np.testing.assert_array_equal(out, np.zeros(shape))
            else:
                np.testing.assert_array_equal(out, M)
                assert not np.shares_memory(out, M)
        elif kind != "firm":  # the firm ramp widens the changed side
            other = "dstevd" if stage == "dstemr" else "dstemr"
            assert (vector_calls[stage], vector_calls[other]) == (2, 0)  # check runs two SVTs

    @pytest.mark.parametrize("kind", ["firm", "knee", "hard"])
    @pytest.mark.parametrize("shape", [(30, 24), (24, 30)])
    @pytest.mark.parametrize("kept", [2, 8, 14])
    def test_partial_kernel_rank_deficient(self, monkeypatch, kind, shape, kept):
        s = np.concatenate([np.linspace(1.0, 0.05, 16), np.zeros(8)])
        M = _with_spectrum(shape, s, seed=kept)
        self.check(monkeypatch, kind, M, (s[kept - 1] + s[kept]) / 2, fallback=False)

    @pytest.mark.parametrize("kind", ["firm", "knee", "hard"])
    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("t", [2.0, 0.5, 0.1])
    def test_repeated_singular_values(self, monkeypatch, kind, rotated, t):
        """Identity blocks 3 I_6, I_24, 0.2 I_10: a diagonal Gram matrix, or
        (rotated) one whose repeated eigenvalues form tight clusters, the hard
        case for MRRR.  The thresholds keep 6, 30 and all 40."""
        s = np.repeat([3.0, 1.0, 0.2], [6, 24, 10])
        M = _with_spectrum((50, 40), s, seed=5) if rotated else np.diag(s)
        self.check(monkeypatch, kind, M, t, fallback=False)

    @pytest.mark.parametrize("kind", ["firm", "knee", "hard"])
    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), (1, 1), (6, 2), (2, 6), (2, 2)])
    def test_one_and_two_columns(self, monkeypatch, kind, shape):
        """n = 1 has no off-diagonal for dsterf; n = 2 has one."""
        M = _rng_matrix(shape, seed=sum(shape))
        sv = np.linalg.svd(M, compute_uv=False)
        for t in (sv[0] * 2, sv[0] / 2, sv[-1] / 4, (sv[0] + sv[-1]) / 2):
            self.check(monkeypatch, kind, M, t, fallback=False)

    @pytest.mark.parametrize("n, lo, hi", [(2, 0, 1), (3, 1, 3), (40, 0, 4), (40, 5, 40)])
    def test_reflectors_reach_dormqr_in_place(self, monkeypatch, n, lo, hi):
        """dormqr reads the reflectors inside dsytrd's output, as an n x (n-1)
        Fortran view from refl[1, 0]; it reads only the first n - 1 rows, so
        Q comes out bit-equal to the one from the copy refl[1:, :-1]."""
        reflectors, checked = [], []
        real_dsytrd, real_dormqr = lapack.dsytrd, lapack.dormqr

        def dsytrd(*args, **kw):
            out = real_dsytrd(*args, **kw)
            reflectors.append(out[0])
            return out

        def dormqr(side, trans, a, tau, c, lwork, **kw):
            copied = real_dormqr(side, trans, np.asfortranarray(reflectors[0][1:, :-1]), tau,
                                 np.array(c, order="F"), lwork, **kw)
            out = real_dormqr(side, trans, a, tau, c, lwork, **kw)
            assert a.shape == (n, n - 1) and a.flags.f_contiguous
            assert np.shares_memory(a, reflectors[0])
            np.testing.assert_array_equal(out[0].view(np.int64), copied[0].view(np.int64))
            checked.append(lwork)
            return out

        monkeypatch.setattr(lapack, "dsytrd", dsytrd)
        monkeypatch.setattr(lapack, "dormqr", dormqr)
        A = _rng_matrix((n + 5, n), seed=n)
        s, vectors = prox._tridiagonal_eigenpairs(prox._gram(A))
        V = vectors(lo, hi)
        assert len(checked) == 2  # the workspace query, then the product
        np.testing.assert_allclose(np.abs(V.T @ V), np.eye(hi - lo), rtol=0, atol=1e-12)
        np.testing.assert_allclose(A.T @ A @ V, V * s[lo:hi] ** 2, rtol=0,
                                   atol=1e-12 * s[0] ** 2)

    @pytest.mark.parametrize("kind", ["knee", "hard", "firm", "soft"])
    @pytest.mark.parametrize("shape", [(12, 10), (10, 10), (10, 12)])
    def test_exact_zero_singular_value(self, monkeypatch, kind, shape):
        """A zero column (row, if wide) gives the Gram matrix an exact zero
        eigenvalue.  Its component is dead, so it joins the changed set of the
        complement product with factor 1 and is never divided by; the spectrum
        is the threshold of the Gram spectrum, as before."""
        M = _rng_matrix(shape, seed=6)
        if shape[0] >= shape[1]:
            M[:, -1] = 0.0
        else:
            M[-1, :] = 0.0
        A = M if shape[0] >= shape[1] else M.T
        gram_s = prox._tridiagonal_eigenpairs(A.T @ A)[0]
        assert gram_s[-1] == 0.0
        t = 0.05 * gram_s[-2]
        self.check(monkeypatch, kind, M, t, fallback=False)
        svt, arg, shrink = _svt_case(kind, t)
        out, sv = svt(M, arg, return_spectrum=True)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(sv, shrink(gram_s))
        assert sv[-1] == 0.0

    @pytest.mark.parametrize("kind", ["firm", "soft", "hard"])
    def test_eigensolver_failure_falls_back_to_svd(self, monkeypatch, kind):
        """A failed tridiagonal eigensolver gives exactly the SVD result."""
        M = _rng_matrix((15, 10), seed=4)
        svt, arg, shrink = _svt_case(kind, 0.5)
        ref, ref_sv = prox._svt_gesdd(M, shrink, True)
        calls = _count_stages(monkeypatch, failing="dsterf")
        out, sv = svt(M, arg, return_spectrum=True)
        assert calls["dsterf"] == 1
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(sv, ref_sv)

    @pytest.mark.parametrize("kind", ["firm", "soft", "hard"])
    @pytest.mark.parametrize("stage, kept", [
        ("dsytrd_lwork", 2), ("dsytrd", 2), ("dsterf", 2), ("dstemr", 2), ("dormqr", 2),
        ("dstevd", 12), ("dormqr", 12)])
    def test_lapack_failure_falls_back_to_svd(self, monkeypatch, kind, stage, kept):
        """A nonzero info from any stage gives exactly the SVD result.  Two of
        24 kept components take their vectors from MRRR, twelve from divide
        and conquer."""
        s = np.linspace(1.0, 0.05, 24)
        M = _with_spectrum((30, 24), s, seed=kept)
        svt, arg, shrink = _svt_case(kind, (s[kept - 1] + s[kept]) / 2)
        ref, ref_sv = prox._svt_gesdd(M, shrink, True)
        calls = _count_stages(monkeypatch, failing=stage)
        out, sv = svt(M, arg, return_spectrum=True)
        assert calls[stage] >= 1
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(sv, ref_sv)

    def test_svd_retries_gesvd_then_fails_numerically(self, monkeypatch):
        """The fallback SVD retries a gesdd failure with gesvd, and a second
        failure is a NumericalError."""
        M = _rng_matrix((6, 4), seed=1)
        real_svd = scipy.linalg.svd
        drivers, failing = [], {"gesdd"}

        def svd(*args, lapack_driver="gesdd", **kw):
            drivers.append(lapack_driver)
            if lapack_driver in failing:
                raise np.linalg.LinAlgError(f"{lapack_driver} patched out")
            return real_svd(*args, lapack_driver=lapack_driver, **kw)

        monkeypatch.setattr(scipy.linalg, "svd", svd)
        U, s, Vt = prox._svd(M)
        assert drivers == ["gesdd", "gesvd"]
        np.testing.assert_allclose(s, np.linalg.svd(M, compute_uv=False), rtol=1e-12)
        np.testing.assert_allclose((U * s) @ Vt, M, rtol=0, atol=1e-12)
        drivers.clear()
        failing.add("gesvd")
        with pytest.raises(NumericalError, match="^SVD did not converge: gesvd patched out$"):
            prox._svd(M)
        assert drivers == ["gesdd", "gesvd"]

    @pytest.mark.parametrize("kind", ["firm", "soft", "hard"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_lapack(self, monkeypatch, kind, bad):
        def never(*args, **kw):
            raise AssertionError("LAPACK reached with a non-finite input")

        for name in ("eigh", "svd"):
            monkeypatch.setattr(scipy.linalg, name, never)
        monkeypatch.setattr(blas, "dsyrk", never)
        monkeypatch.setattr(lapack, "dsytrd", never)
        M = np.ones((4, 3))
        M[2, 1] = bad
        svt, arg, _ = _svt_case(kind, 0.5)
        with pytest.raises(NumericalError):
            svt(M, arg)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_firm_between_hard_shrinkage_and_identity(data):
    """|firm(x)| never exceeds |x| and never falls below the soft output."""
    x = data.draw(st.floats(-20, 20))
    lam = data.draw(st.floats(0.1, 3.0))
    a = lam * (1.0 + data.draw(st.floats(0.1, 10.0)))
    params = ThresholdParams(lam=lam, a=a)
    out = firm_threshold(x, params)
    assert abs(out) <= abs(x) + 1e-12
    assert abs(out) >= abs(soft_threshold(x, lam)) - 1e-12
