import math

import numpy as np
import pytest
from scipy import integrate, stats

from hetfb.analytic import ScheduledCqiMixture, coverage_prob, minimum_best_m
from hetfb.channel import Cluster, ImpairmentParams, SystemConfig
from hetfb.goodput import (
    IntegralArgs,
    StrategyParams,
    fixed_rate_metrics,
    i2,
    i3_jensen,
    i3_quadrature,
    i3_upper_bound,
    i4,
    jensen_mean,
    optimize_beta0,
    optimize_beta1,
    variable_rate_metrics,
)
from tests.conftest import two_cluster_system

JENSEN_B10_SW001 = 2.8996785714285713  # 0.99 * H_10


def marcum_ref(a, b):
    # independent Marcum-Q oracle through the noncentral chi-square tail
    if b == 0:
        return 1.0
    if a == 0:
        return math.exp(-0.5 * b * b)
    return stats.ncx2.sf(b * b, 2, a * a)


def expectation_quadrature(func, b, imp, extra_points=()):
    """Oracle: integrate func against d(F(x)^b), F exponential mean 1-sw2."""
    v = imp.estimate_var

    def integrand(x):
        log_sf = -x / v
        dens = b * math.exp((b - 1) * math.log(-math.expm1(log_sf)) + log_sf) / v
        return func(x) * dens

    hi = v * (math.log(max(b, 2)) + 45.0)
    pts = [v * math.log(max(b, 2))] + list(extra_points)
    val, _ = integrate.quad(integrand, 0.0, hi, points=pts, limit=400)
    return val


def i2_oracle(a, b, imp):
    varpi = imp.alpha_w * imp.delay_corr
    vth = imp.alpha_w * math.sqrt(a)
    return expectation_quadrature(lambda x: marcum_ref(varpi * math.sqrt(x), vth), b, imp)


def i4_oracle(a, b, imp):
    varpi = imp.alpha_w * imp.delay_corr
    return expectation_quadrature(
        lambda x: marcum_ref(varpi * math.sqrt(x), imp.alpha_w * math.sqrt(a * x)), b, imp
    )


def i3_oracle(a, b, imp, snr):
    varpi = imp.alpha_w * imp.delay_corr
    return expectation_quadrature(
        lambda x: marcum_ref(varpi * math.sqrt(x), imp.alpha_w * math.sqrt(a * x))
        * math.log2(1 + snr * a * x),
        b,
        imp,
    )


class TestStrategyParams:
    def test_validation(self):
        StrategyParams(beta0=0.0)
        StrategyParams(beta1=1.0)
        with pytest.raises(ValueError):
            StrategyParams(beta0=-0.1)
        with pytest.raises(ValueError):
            StrategyParams(beta1=1.1)


class TestIntegralArgs:
    def test_hyp_argument_strictly_inside_unit_interval(self, imp_default):
        for a in (0.01, 0.5, 1.0, 5.0, 40.0):
            for b in (1, 8, 40):
                args = IntegralArgs.build(a, b, imp_default)
                assert np.all(args.hyp_args < 1.0)
                assert np.all(args.hyp_args >= 0.0)
                assert np.all(args.varsigma > 0.0)

    def test_varsigma_product_form(self, imp_default):
        args = IntegralArgs.build(2.0, 5, imp_default)
        direct = np.sqrt(args.phi**2 - 4 * args.varpi**2 * args.vartheta**2)
        assert np.allclose(args.varsigma, direct, rtol=1e-12)

    def test_validation(self, imp_default):
        with pytest.raises(ValueError):
            IntegralArgs.build(-1.0, 3, imp_default)
        with pytest.raises(ValueError):
            IntegralArgs.build(1.0, 0, imp_default)


class TestI2:
    def test_zero_threshold_is_one(self, imp_default):
        for b in (1, 4, 30, 100):
            assert i2(0.0, b, imp_default) == 1.0

    def test_no_impairment_correlation_collapse(self):
        imp = ImpairmentParams(0.0, 0.0)
        for b in (1, 7, 20):
            assert i2(1.3, b, imp) == pytest.approx(math.exp(-1.3), abs=1e-10)

    @pytest.mark.parametrize("a,b", [(1.0, 8), (0.3, 1), (2.0, 20), (0.7, 40), (1.5, 75)])
    def test_matches_quadrature_oracle(self, a, b, imp_default):
        assert abs(i2(a, b, imp_default) - i2_oracle(a, b, imp_default)) < 1e-7

    def test_bounds(self, imp_default):
        for a in (0.1, 1.0, 5.0):
            for b in (1, 10, 50):
                assert 0.0 <= i2(a, b, imp_default) <= 1.0


class TestI4:
    def test_zero_backoff_is_one(self, imp_default):
        for b in (1, 6, 33, 90):
            assert i4(0.0, b, imp_default) == 1.0

    def test_no_impairment_single_user(self):
        imp = ImpairmentParams(0.0, 0.0)
        for a in (0.2, 0.7, 1.0):
            assert i4(a, 1, imp) == pytest.approx(1.0 / (1.0 + a), abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 8), (0.9, 1), (0.2, 20), (0.6, 40), (0.8, 70)])
    def test_matches_quadrature_oracle(self, a, b, imp_default):
        assert abs(i4(a, b, imp_default) - i4_oracle(a, b, imp_default)) < 1e-7


class TestI3:
    def test_zero_backoff(self, imp_default):
        assert i3_quadrature(0.0, 5, imp_default, 10.0) == 0.0
        assert i3_jensen(0.0, 5, imp_default, 10.0) == 0.0
        assert i3_upper_bound(0.0, 5, imp_default, 10.0) == 0.0

    def test_monotone_in_b(self, imp_default):
        vals = [i3_quadrature(0.5, b, imp_default, 10.0) for b in (1, 2, 5, 10, 20)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_dual_quadrature_schemes_agree(self, imp_default):
        for (a, b) in [(0.5, 8), (0.9, 2), (0.1, 30)]:
            x_scheme = i3_quadrature(a, b, imp_default, 10.0, scheme="x")
            u_scheme = i3_quadrature(a, b, imp_default, 10.0, scheme="u")
            assert abs(x_scheme - u_scheme) < 1e-8

    def test_matches_independent_oracle(self, imp_default):
        got = i3_quadrature(0.5, 8, imp_default, 10.0)
        assert abs(got - i3_oracle(0.5, 8, imp_default, 10.0)) < 1e-7

    def test_unknown_scheme(self, imp_default):
        with pytest.raises(ValueError):
            i3_quadrature(0.5, 8, imp_default, 10.0, scheme="w")


class TestI3UpperBound:
    def test_bounds_quadrature_at_low_snr(self, imp_default):
        for snr in (0.01, 0.1):
            for a in (0.1, 0.5, 0.9):
                for b in (1, 4, 20):
                    ub = i3_upper_bound(a, b, imp_default, snr)
                    exact = i3_quadrature(a, b, imp_default, snr)
                    assert ub >= exact

    def test_tightens_as_snr_vanishes(self, imp_default):
        ratios = []
        for snr in (0.1, 0.01, 0.001):
            ub = i3_upper_bound(0.5, 8, imp_default, snr)
            exact = i3_quadrature(0.5, 8, imp_default, snr)
            ratios.append(ub / exact)
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] < 1.01

    def test_single_order_matches_linearized_integrand(self, imp_default):
        # b = 1: quadrature of snr*a*x/ln2 * Q1 against the plain density
        snr = 0.05
        varpi = imp_default.alpha_w * imp_default.delay_corr
        ref = expectation_quadrature(
            lambda x: snr
            * 0.5
            * x
            / math.log(2)
            * marcum_ref(varpi * math.sqrt(x), imp_default.alpha_w * math.sqrt(0.5 * x)),
            1,
            imp_default,
        )
        assert abs(i3_upper_bound(0.5, 1, imp_default, snr) - ref) < 1e-7

    def test_mp_route_consistent(self, imp_default):
        from hetfb.goodput import _i3_ub_float, _i3_ub_mp

        val_float = _i3_ub_float(0.5, 20, imp_default, 0.01)
        val_mp = _i3_ub_mp(0.5, 20, imp_default, 0.01)
        assert abs(val_float - val_mp) < 1e-10


class TestJensen:
    def test_unit_mean(self):
        assert jensen_mean(1, ImpairmentParams(0.0, 0.5)) == 1.0

    def test_max_of_two(self):
        assert jensen_mean(2, ImpairmentParams(0.0, 0.5)) == 1.5

    def test_frozen_harmonic_value(self, imp_default):
        assert jensen_mean(10, imp_default) == pytest.approx(JENSEN_B10_SW001, abs=1e-12)

    def test_alternating_sum_identity(self, imp_default):
        for b in (1, 3, 8, 15):
            alt = b * imp_default.estimate_var * math.fsum(
                math.comb(b - 1, l) * (-1) ** l / (l + 1) ** 2 for l in range(b)
            )
            assert jensen_mean(b, imp_default) == pytest.approx(alt, rel=1e-10)

    def test_fig3_tightness(self, imp_default):
        # full-feedback b=20: mean-value approximation within 5% of quadrature
        for a in np.arange(0.05, 0.96, 0.1):
            exact = i3_quadrature(float(a), 20, imp_default, 10.0)
            approx = i3_jensen(float(a), 20, imp_default, 10.0)
            assert abs(approx / exact - 1.0) < 0.05

    def test_asymptotic_tightness(self, imp_default):
        ratios = [
            i3_quadrature(0.5, b, imp_default, 10.0) / i3_jensen(0.5, b, imp_default, 10.0)
            for b in (5, 10, 20, 50, 100)
        ]
        assert all(x < y for x, y in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)


class TestMetrics:
    def test_zero_parameters(self, imp_default):
        s = two_cluster_system(10, 4)
        assert fixed_rate_metrics(s, imp_default, 0.0) == (0.0, 0.0)
        assert variable_rate_metrics(s, imp_default, 0.0) == (0.0, 0.0)

    def test_full_feedback_closed_forms(self, imp_default):
        s = two_cluster_system(10, 16)
        r0, p0 = fixed_rate_metrics(s, imp_default, 2.0)
        assert r0 == pytest.approx(math.log2(21.0) * i2(2.0, 10, imp_default), rel=1e-12)
        assert p0 == pytest.approx(1.0 - i2(2.0, 10, imp_default), rel=1e-12)
        r1, p1 = variable_rate_metrics(s, imp_default, 0.8)
        assert r1 == pytest.approx(i3_quadrature(0.8, 10, imp_default, s.snr), rel=1e-10)
        assert p1 == pytest.approx(1.0 - i4(0.8, 10, imp_default), rel=1e-12)

    def test_fixed_rate_identity(self, imp_default):
        # R0 = log2(1+rho*b0) * (coverage - P0) follows from the shared expansion
        for m in (2, 4):
            s = two_cluster_system(8, m)
            r0, p0 = fixed_rate_metrics(s, imp_default, 1.5)
            rate = math.log2(1.0 + s.snr * 1.5)
            assert abs(r0 - rate * (coverage_prob(s) - p0)) < 1e-10

    def test_routes_agree(self, imp_default):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        for beta0 in (0.5, 2.0):
            a = fixed_rate_metrics(s, imp_default, beta0, method="coefficients")
            b = fixed_rate_metrics(s, imp_default, beta0, method="cdf")
            assert abs(a[0] - b[0]) < 1e-7 and abs(a[1] - b[1]) < 1e-7
        for beta1 in (0.3, 0.9):
            a = variable_rate_metrics(s, imp_default, beta1, method="coefficients")
            b = variable_rate_metrics(s, imp_default, beta1, method="cdf")
            assert abs(a[0] - b[0]) < 1e-6 and abs(a[1] - b[1]) < 1e-7

    def test_fast_mode_close_to_exact(self, imp_default):
        s = two_cluster_system(20, 16)
        exact, _ = variable_rate_metrics(s, imp_default, 0.5)
        fast, _ = variable_rate_metrics(s, imp_default, 0.5, fast=True)
        assert abs(fast / exact - 1.0) < 0.05

    def test_validation(self, imp_default):
        s = two_cluster_system(10, 4)
        with pytest.raises(ValueError):
            fixed_rate_metrics(s, imp_default, -1.0)
        with pytest.raises(ValueError):
            variable_rate_metrics(s, imp_default, 1.5)


class TestOptimizers:
    def test_beta1_matches_grid_scan(self, imp_default):
        s = two_cluster_system(10, 16)
        b1, val = optimize_beta1(s, imp_default)
        m_star = minimum_best_m(s, 0.99).exact
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        vals = [i3_jensen(float(b), 10, imp_default, s.snr) for b in grid]
        best = grid[int(np.argmax(vals))]
        assert abs(b1 - best) < 1e-3
        assert val == pytest.approx(max(vals), rel=1e-8)
        assert 1 <= m_star <= s.m_full

    def test_beta0_matches_grid_scan(self, imp_default):
        s = two_cluster_system(10, 16)
        b0, val = optimize_beta0(s, imp_default)
        hi = imp_default.estimate_var * (math.log(10) + 6.0)
        grid = np.arange(1e-3, hi, 1e-3)
        f = lambda b: math.log2(1.0 + s.snr * b) * i2(float(b), 10, imp_default)
        vals = [f(b) for b in grid]
        best = grid[int(np.argmax(vals))]
        assert abs(b0 - best) < 1e-2
        assert val >= max(vals) - 1e-9

    def test_beta0_grows_with_users(self):
        imp = ImpairmentParams(1e-4, 0.999)
        smaller, _ = optimize_beta0(two_cluster_system(4, 16), imp)
        larger, _ = optimize_beta0(two_cluster_system(40, 16), imp)
        assert larger > smaller

    def test_beta1_trends(self):
        s = two_cluster_system(10, 16)
        lows = []
        for sw2 in (0.0, 0.05, 0.1):
            b1, _ = optimize_beta1(s, ImpairmentParams(sw2, 0.95))
            lows.append(b1)
        assert lows[0] >= lows[1] >= lows[2]
        highs = []
        for alpha in (0.9, 0.95, 0.99):
            b1, _ = optimize_beta1(s, ImpairmentParams(0.02, alpha))
            highs.append(b1)
        assert highs[0] <= highs[1] <= highs[2]


class TestNearPerfectFeedback:
    """Limit of vanishing impairments on the default 20-user configuration."""

    BETA0, BETA1 = 1.5, 0.7

    @pytest.mark.parametrize("sw2,alpha", [(1e-9, 1.0), (0.0, 0.999999)])
    def test_metrics_finite(self, sw2, alpha):
        s = two_cluster_system(20, 4)
        imp = ImpairmentParams(sw2, alpha)
        for metrics in (
            fixed_rate_metrics(s, imp, self.BETA0),
            variable_rate_metrics(s, imp, self.BETA1),
        ):
            assert all(math.isfinite(v) for v in metrics)

    def test_fixed_rate_success_approaches_perfect_feedback(self):
        s = two_cluster_system(20, 4)
        r0, _ = fixed_rate_metrics(s, ImpairmentParams(1e-9, 1.0), self.BETA0)
        success = r0 / math.log2(1.0 + s.snr * self.BETA0)
        assert abs(success - ScheduledCqiMixture(s).sf(self.BETA0)) < 1e-6
