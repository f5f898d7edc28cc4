"""Thresholding operators: fixed values, prox optimality, and shape properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrssc import (
    GmcParams,
    ThresholdParams,
    entrywise_firm,
    entrywise_hard,
    firm_threshold,
    gmc_penalty_separable,
    hard_threshold,
    scaled_mc_penalty,
    soft_threshold,
    svt_firm,
    svt_hard,
    svt_soft,
)
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

    def test_gmc_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            GmcParams(b=-0.1, gamma=0.5)
        with pytest.raises(ValueError):
            GmcParams(b=1.0, gamma=1.5)
        with pytest.raises(ValueError):
            GmcParams.for_subproblem(weight=0.0, mu=1.0, gamma=0.5)

    def test_gmc_params_subproblem_scale(self):
        p = GmcParams.for_subproblem(weight=2.0, mu=8.0, gamma=0.5)
        assert p.b == pytest.approx(math.sqrt(8.0 * 0.5 / 2.0))


class TestPenalties:
    def test_scaled_mc_values(self):
        assert scaled_mc_penalty(0.0, 1.0) == 0.0
        assert scaled_mc_penalty(2.0, 1.0) == pytest.approx(0.5)
        assert scaled_mc_penalty(0.5, 0.0) == pytest.approx(0.5)

    def test_scaled_mc_rejects_negative_b(self):
        with pytest.raises(ValueError):
            scaled_mc_penalty(1.0, -1.0)

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
