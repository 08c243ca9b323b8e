import math

import numpy as np
import pytest
from scipy import integrate

from srrw_lab import special as sp
from srrw_lab.errors import ParameterError

ALPHA_GRID_99 = np.linspace(0.01, 0.99, 99)


class TestThetaK:
    def test_theta1_closed_form(self):
        for a in (0.1, 0.3, 0.5, 0.9):
            assert sp.theta_k(a, 1) == pytest.approx((1 - a) / (1 + a), abs=1e-12)

    def test_theta1_at_half_is_one_third(self):
        assert sp.theta_k(0.5, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_partial_sums_approach_one_minus_alpha_from_below(self):
        partial = sp.theta_partial_sum(0.5, 10_000)
        assert partial < 0.5
        assert abs(partial - 0.5) < 1e-6

    def test_positive_and_decreasing(self):
        vals = [sp.theta_k(0.3, k) for k in range(1, 30)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_integral_form(self):
        # (1-a)/a * int_0^1 x^(1/a) (1-x)^(k-1) dx by quadrature
        a = 0.37
        for k in range(1, 11):
            val, _ = integrate.quad(lambda x: x ** (1 / a) * (1 - x) ** (k - 1), 0, 1)
            assert sp.theta_k(a, k) == pytest.approx((1 - a) / a * val, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            sp.theta_k(0.0, 1)
        with pytest.raises(ParameterError):
            sp.theta_k(0.5, 0)


class TestHypergeometricConstant:
    def test_series_forms_agree_on_grid(self):
        for a in ALPHA_GRID_99:
            assert abs(sp.hyp2f1_half(a) - sp.hyp2f1_half_pochhammer(a)) < 1e-12

    def test_bounds_on_grid(self):
        for a in ALPHA_GRID_99:
            f = sp.hyp2f1_half(a)
            assert 2.0 / (1.0 + a) < f < 2.0

    def test_strictly_decreasing_on_grid(self):
        vals = [sp.hyp2f1_half(a) for a in ALPHA_GRID_99]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_limit_alpha_to_one_is_2log2(self):
        assert sp.hyp2f1_half(1 - 1e-8) == pytest.approx(2 * math.log(2), abs=1e-6)

    def test_limit_alpha_to_zero_is_2(self):
        assert sp.hyp2f1_half(1e-8) == pytest.approx(2.0, abs=1e-6)

    def test_value_at_half(self):
        assert sp.hyp2f1_half(0.5) == pytest.approx(1.5454, abs=5e-4)


class TestCutoffConstant:
    def test_value_at_half(self):
        assert sp.cutoff_constant(0.5) == pytest.approx(1.294, abs=1e-3)

    def test_bounds(self):
        for a in np.linspace(0.1, 0.9, 9):
            c = sp.cutoff_constant(a)
            assert 1.0 / (2.0 * (1.0 - a)) < c < (1.0 + a) / (2.0 * (1.0 - a))

    def test_monotone_increasing(self):
        vals = [sp.cutoff_constant(a) for a in np.linspace(0.1, 0.9, 9)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestBetaN:
    def test_convention_beta1(self):
        assert sp.beta_n(1, 0.7) == 1.0

    def test_beta2(self):
        for a in (0.0, 0.3, 0.5, 0.9):
            assert sp.beta_n(2, a) == pytest.approx((1 - a) / 2, abs=1e-12)

    def test_asymptotics(self):
        # n^(1+a) * beta_n -> 1/Gamma(1-a)
        a = 0.5
        n = 10**6
        val = n ** (1 + a) * sp.beta_n(n, a)
        assert val == pytest.approx(1.0 / math.gamma(1 - a), abs=1e-3)

    def test_product_and_loggamma_agree(self):
        for a in (0.2, 0.5, 0.8):
            for n in (2, 10, 100, 10_000):
                assert sp.beta_n(n, a) == pytest.approx(
                    sp.beta_n_product(n, a), rel=1e-10
                )


class TestGrowthA:
    def test_product_and_loggamma_agree(self):
        for a in (0.2, 0.5, 0.8):
            for m in (1, 2, 10, 100, 10_000):
                assert sp.growth_a(m, a) == pytest.approx(
                    sp.growth_a_product(m, a), rel=1e-10
                )

    def test_ratio_trivial_cases(self):
        assert sp.growth_ratio(7, 7, 0.3) == pytest.approx(1.0, abs=1e-14)
        assert sp.growth_ratio(1, 2, 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_no_overflow_at_huge_n(self):
        val = sp.growth_ratio(10**6, 10**9, 0.5)
        assert np.isfinite(val) and val > 1.0


class TestAlphaParams:
    def test_bundle(self):
        ap = sp.AlphaParams(0.5)
        assert ap.f_half == pytest.approx(sp.hyp2f1_half(0.5))
        assert ap.cutoff == pytest.approx(sp.cutoff_constant(0.5))
        assert ap.theta(1) == pytest.approx(1 / 3, abs=1e-12)
        assert ap.beta(2) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_endpoints(self):
        with pytest.raises(ParameterError):
            sp.AlphaParams(0.0)
        with pytest.raises(ParameterError):
            sp.AlphaParams(1.0)
