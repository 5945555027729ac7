import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from hetfb.analytic import (
    MinimumBestM,
    ReportedCqiLaw,
    ScheduledCqiMixture,
    _poly_mul,
    _poly_power_bruteforce,
    _xi_exact,
    average_sum_rate,
    coverage_prob,
    feedback_set_pmf,
    i1,
    minimum_best_m,
    reported_cqi_cdf,
    selection_coefficients,
    xi_coefficients,
)
from hetfb.channel import Cluster, SystemConfig, gen_subband_fading
from tests.conftest import two_cluster_system

I1_AT_1_1 = 0.860347382270886  # e * E1(1) / ln 2, cross-checked by quadrature
CP_SMALL_CONFIG = 3.9660003732034  # N=4, eta=(1,2), K=(2,2), M=1, rho=10


def i1_quadrature(a: float, b: int) -> float:
    def f(x):
        return math.log2(1 + a * x) * b * (1 - math.exp(-x)) ** (b - 1) * math.exp(-x)

    val, _ = integrate.quad(f, 0, math.log(b + 1) + 45, limit=300)
    return val


def order_stat_mix_poly(num_subbands: int, quota: int) -> list[Fraction]:
    """Monomial coefficients of the top-``quota`` order-statistic CDF average.

    Independent construction of the reported-CQI CDF: expand
    (1/quota) * sum_{j=S-quota+1}^{S} P(Bin(S, F) >= j) in powers of F.
    """
    s = num_subbands
    coeffs = [Fraction(0)] * (s + 1)
    for j in range(s - quota + 1, s + 1):
        for i in range(j, s + 1):
            # C(s,i) F^i (1-F)^{s-i} expanded
            for t in range(s - i + 1):
                coeffs[i + t] += (
                    Fraction(math.comb(s, i) * math.comb(s - i, t) * (-1) ** t, quota)
                )
    return coeffs


def xi_to_monomial(xi: list[Fraction], num_subbands: int) -> list[Fraction]:
    # sum_m xi[m] F^{S-m} as ascending monomial coefficients
    coeffs = [Fraction(0)] * (num_subbands + 1)
    for m, val in enumerate(xi):
        coeffs[num_subbands - m] += val
    return coeffs


class TestXiCoefficients:
    def test_single_report_is_maximum(self):
        s = SystemConfig(4, (Cluster(4, 1),), 1, 10.0)
        assert xi_coefficients(s, 0).tolist() == [1.0]

    def test_best_two_of_four(self):
        s = SystemConfig(4, (Cluster(1, 1), Cluster(2, 1)), 1, 10.0)
        assert _xi_exact(4, 2) == [Fraction(-1), Fraction(2)]
        assert xi_coefficients(s, 0).tolist() == [-1.0, 2.0]

    @pytest.mark.parametrize("s,quota", [(4, 2), (8, 3), (6, 5), (16, 4), (5, 5)])
    def test_sums_to_one_exactly(self, s, quota):
        assert sum(_xi_exact(s, quota)) == 1

    @pytest.mark.parametrize("s,quota", [(4, 2), (8, 3), (6, 5), (12, 2), (5, 5)])
    def test_matches_order_statistics_oracle(self, s, quota):
        assert xi_to_monomial(_xi_exact(s, quota), s) == order_stat_mix_poly(s, quota)


class TestReportedCdf:
    def _best2of4(self):
        return SystemConfig(4, (Cluster(1, 1), Cluster(2, 1)), 1, 10.0)

    def test_limits(self):
        s = self._best2of4()
        assert reported_cqi_cdf(0.0, s, 0) == 0.0
        assert reported_cqi_cdf(60.0, s, 0) == pytest.approx(1.0, abs=1e-12)

    def test_best_two_of_four_value(self):
        s = self._best2of4()
        x = math.log(2.0)  # F_Z(x) = 1/2
        assert reported_cqi_cdf(x, s, 0) == pytest.approx(0.1875, abs=1e-12)

    def test_matches_coefficient_expansion(self):
        s = SystemConfig(8, (Cluster(1, 1), Cluster(2, 1)), 2, 10.0)
        xi = xi_coefficients(s, 0)
        n_sub = s.num_subbands(0)
        for x in np.linspace(0.05, 6.0, 25):
            f = -math.expm1(-x)
            ref = sum(c * f ** (n_sub - m) for m, c in enumerate(xi))
            assert reported_cqi_cdf(float(x), s, 0) == pytest.approx(ref, abs=1e-12)

    def test_monte_carlo_ks(self):
        # reported value at a fixed subband, conditioned on being reported
        s = self._best2of4()
        rng = np.random.default_rng(123)
        z = rng.exponential(1.0, size=(40_000, 4))
        top2 = np.argsort(-z, axis=1)[:, :2]
        reported = (top2 == 0).any(axis=1)
        sample = z[reported, 0]
        cdf = lambda x: reported_cqi_cdf(x, s, 0)
        assert stats.kstest(sample, cdf).pvalue > 0.01

    def test_law_pdf_integrates_to_one(self):
        law = ReportedCqiLaw(8, 3, scale=1.0)
        val, _ = integrate.quad(law.pdf, 0.0, 60.0, limit=200)
        assert abs(val - 1.0) < 1e-9
        val_half = integrate.quad(law.pdf, 0.0, 1.3, limit=200)[0]
        assert abs(val_half - law.cdf(1.3)) < 1e-9


class TestSelectionCoefficients:
    def test_single_cluster_single_user_is_xi(self):
        s = SystemConfig(8, (Cluster(2, 3),), 2, 10.0)
        table = selection_coefficients(s, (1,))
        assert table.theta_exact == tuple(_xi_exact(4, 2))

    def test_two_cluster_example(self):
        s = SystemConfig(4, (Cluster(1, 1), Cluster(2, 1)), 1, 10.0)
        table = selection_coefficients(s, (1, 1))
        # cluster 1 reports its single best of 2 -> xi = [1]; convolution keeps [-1, 2]
        assert table.theta_exact == (Fraction(-1), Fraction(2))
        assert table.b_total == 6

    def test_recursion_equals_bruteforce_random_instances(self):
        rnd = random.Random(20240817)
        count = 0
        for _ in range(60):
            g = rnd.randint(1, 3)
            etas, quota_ok = [], True
            exponents = sorted(rnd.sample(range(0, 4), g))
            etas = [2**e for e in exponents]
            n = etas[-1] * 2 ** rnd.randint(0, 2)
            m = rnd.randint(1, max(1, min(3 * etas[0] // etas[-1], n // etas[-1])))
            if (etas[-1] // etas[0]) * m > 3:
                continue
            taus = [rnd.randint(0, 3) for _ in range(g)]
            if all(t == 0 for t in taus):
                taus[rnd.randrange(g)] = 1
            s = SystemConfig(n, tuple(Cluster(e, 3) for e in etas), m, 10.0)
            table = selection_coefficients(s, tuple(taus))
            ref = [Fraction(1)]
            for gg, t in enumerate(taus):
                xi = _xi_exact(s.num_subbands(gg), (etas[-1] // etas[gg]) * m)
                ref = _poly_mul(ref, _poly_power_bruteforce(xi, t))
            assert list(table.theta_exact) == ref
            assert sum(table.theta_exact) == 1
            count += 1
        assert count >= 30

    def test_full_feedback_cluster_zero_leading_coefficient(self):
        # quota == subbands makes xi[0] == 0; the recursion falls back
        s = SystemConfig(4, (Cluster(2, 2),), 2, 10.0)
        assert _xi_exact(2, 2)[0] == 0
        table = selection_coefficients(s, (2,))
        ref = _poly_power_bruteforce(_xi_exact(2, 2), 2)
        assert list(table.theta_exact) == ref

    def test_validation(self):
        s = SystemConfig(4, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        with pytest.raises(ValueError):
            selection_coefficients(s, (0, 0))
        with pytest.raises(ValueError):
            selection_coefficients(s, (3, 0))
        with pytest.raises(ValueError):
            selection_coefficients(s, (1,))


class TestFeedbackSetPmf:
    def test_full_feedback_is_deterministic(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(4, 3)), 2, 10.0)  # M == M_F
        dist = feedback_set_pmf(s)
        assert dist.probability((2, 3)) == 1.0
        assert dist.probability((1, 3)) == 0.0

    def test_binomial_example(self):
        s = SystemConfig(4, (Cluster(2, 2),), 1, 10.0)
        dist = feedback_set_pmf(s)
        assert dist.probability((1,)) == pytest.approx(0.5)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_normalizes_exactly(self, m):
        s = SystemConfig(16, (Cluster(1, 3), Cluster(4, 2)), m, 10.0)
        total = sum(dist_p for _, dist_p in feedback_set_pmf(s))
        assert abs(total - 1.0) < 1e-12
        exact = sum(
            feedback_set_pmf(s).probability_exact(tau)
            for tau in itertools.product(range(4), range(3))
        )
        assert exact == 1

    def test_lazy_iteration(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 1)), 1, 10.0)
        it = iter(feedback_set_pmf(s))
        tau, p = next(it)
        assert tau == (0, 0) and 0.0 <= p <= 1.0


class TestI1:
    def test_frozen_value(self):
        assert abs(i1_quadrature(1.0, 1) - I1_AT_1_1) < 1e-9
        assert i1(1.0, 1) == pytest.approx(I1_AT_1_1, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 3), (10.0, 20), (10.0, 40), (2.0, 75)])
    def test_matches_quadrature(self, a, b):
        assert abs(i1(a, b) - i1_quadrature(a, b)) < 1e-8

    def test_increasing_in_b(self):
        vals = [i1(10.0, b) for b in (1, 2, 5, 10, 25, 40, 80)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_route_crossovers_agree(self):
        from hetfb.analytic import _i1_mp, _i1_quad

        for a in (0.5, 10.0):
            assert abs(i1(a, 20) - _i1_mp(a, 20)) < 1e-9  # float vs mp
            assert abs(_i1_mp(a, 60) - _i1_quad(a, 60)) < 1e-8  # mp vs quad

    def test_domain(self):
        with pytest.raises(ValueError):
            i1(0.0, 3)
        with pytest.raises(ValueError):
            i1(1.0, 0)


class TestAverageSumRate:
    def test_full_feedback_shortcut_is_exact(self):
        s = two_cluster_system(20, 16)
        assert average_sum_rate(s) == i1(s.snr, 20)

    def test_single_user_single_subband(self):
        s = SystemConfig(4, (Cluster(4, 1),), 1, 10.0)
        assert average_sum_rate(s) == pytest.approx(i1(10.0, 1), abs=1e-12)

    def test_frozen_small_config(self, small_system):
        assert average_sum_rate(small_system) == pytest.approx(CP_SMALL_CONFIG, abs=1e-9)

    @pytest.mark.parametrize(
        "clusters,m,n",
        [
            ((Cluster(1, 2), Cluster(2, 2)), 1, 4),
            ((Cluster(1, 3),), 1, 4),
            ((Cluster(2, 2), Cluster(4, 1)), 1, 8),
            ((Cluster(1, 1), Cluster(2, 2), Cluster(4, 1)), 1, 4),
        ],
    )
    def test_routes_agree(self, clusters, m, n):
        s = SystemConfig(n, clusters, m, 10.0)
        a = average_sum_rate(s, method="coefficients")
        b = average_sum_rate(s, method="cdf")
        assert abs(a - b) < 1e-8

    def test_large_config_uses_cdf_route(self):
        s = two_cluster_system(20, 4)
        val = average_sum_rate(s)  # would be numerically impossible via floats
        assert 4.0 < val < 6.0

    def test_monotone_in_m_and_k(self):
        rates_m = [average_sum_rate(two_cluster_system(10, m)) for m in (1, 2, 4, 8, 16)]
        assert all(x <= y + 1e-12 for x, y in zip(rates_m, rates_m[1:]))
        rates_k = [average_sum_rate(two_cluster_system(k, 2)) for k in (4, 10, 20, 30)]
        assert all(x < y for x, y in zip(rates_k, rates_k[1:]))

    def test_unknown_method(self, small_system):
        with pytest.raises(ValueError):
            average_sum_rate(small_system, method="nope")


class TestConditionalCdfValidity:
    def test_theta_expansion_is_a_cdf(self):
        # conditional law given a feedback set: nondecreasing, 0 at 0, 1 at inf
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        for tau in ((1, 0), (2, 1), (1, 2)):
            table = selection_coefficients(s, tau)

            def cdf(x):
                f = -math.expm1(-x)
                return math.fsum(
                    th * f ** (table.b_total - m) for m, th in enumerate(table.theta)
                )

            xs = np.linspace(0.0, 40.0, 300)
            vals = np.array([cdf(float(x)) for x in xs])
            assert vals[0] == 0.0
            assert vals[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_i1_tiny_scale_overflow_guard(self):
        # (l+1)/a far beyond the exp overflow threshold stays finite
        val = i1(1e-5, 3)
        assert math.isfinite(val) and 0 < val < 1e-3


class TestScheduledCqiMixture:
    def test_cdf_limits_and_atom(self, small_system):
        mix = ScheduledCqiMixture(small_system)
        assert mix.cdf(1e-12) == pytest.approx((1 - small_system.report_prob) ** 4, rel=1e-9)
        assert mix.cdf(70.0) == pytest.approx(1.0, abs=1e-12)
        assert mix.sf(1.0) == pytest.approx(1.0 - mix.cdf(1.0), abs=1e-12)

    def test_pdf_mass_equals_coverage(self, small_system):
        mix = ScheduledCqiMixture(small_system)
        mass, _ = integrate.quad(mix.pdf, 0.0, mix.x_max, limit=300)
        assert abs(mass - coverage_prob(small_system)) < 1e-9

    def test_expect_log_rate_equals_density_route(self, small_system):
        mix = ScheduledCqiMixture(small_system)
        by_parts = mix.expect_log_rate(small_system.snr)
        density = mix.expect(lambda x: np.log2(1.0 + small_system.snr * x))
        assert abs(by_parts - density) < 1e-8


class TestMinimumBestM:
    def test_approx_formula(self):
        s = two_cluster_system(20, 1)
        res = minimum_best_m(s, 0.99)
        raw = 16 * (1 - 0.01 ** (1 / 20))
        assert res.approx == math.ceil(raw) == 4

    def test_gamma_near_one_needs_full_feedback(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        res = minimum_best_m(replace(s, best_m=1), 1 - 1e-9)
        assert res.exact == s.m_full

    def test_exact_below_full(self):
        s = two_cluster_system(20, 1)
        res = minimum_best_m(s, 0.9)
        assert 1 <= res.exact <= s.m_full
        full = i1(s.snr, 20)
        assert average_sum_rate(replace(s, best_m=res.exact)) / full >= 0.9
        if res.exact > 1:
            assert average_sum_rate(replace(s, best_m=res.exact - 1)) / full < 0.9

    def test_gamma_domain(self):
        s = two_cluster_system(10, 1)
        for gamma in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                minimum_best_m(s, gamma)

    def test_returns_dataclass(self):
        s = SystemConfig(4, (Cluster(2, 2),), 1, 10.0)
        res = minimum_best_m(s, 0.5)
        assert isinstance(res, MinimumBestM)

    def test_grid_matches_per_ratio_scans(self):
        # reference: the first best-M whose rate ratio reaches each target
        s = two_cluster_system(12, 1)
        full = i1(s.snr, 12)
        ratios = [average_sum_rate(replace(s, best_m=m)) / full for m in range(1, s.m_full + 1)]
        gammas = [0.99, 0.5, 0.9, 0.9, 1 - 1e-9]
        expected = [next((m for m, r in enumerate(ratios, 1) if r >= g), s.m_full) for g in gammas]
        results = minimum_best_m(s, gammas)
        assert [r.exact for r in results] == expected
        assert [r.approx for r in results] == [minimum_best_m(s, g).approx for g in gammas]


class TestCrossModelConsistency:
    def test_reported_cdf_against_simulation(self):
        # scheduled-CQI CDF at one block vs a direct simulation
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        mix = ScheduledCqiMixture(s)
        from hetfb.feedback import subband_reports
        from hetfb.scheduler import schedule

        values = []
        for seed in range(2000):
            real = gen_subband_fading(s, seed=seed)
            dec = schedule(subband_reports(real, s), s)
            if dec.user[0] >= 0:
                values.append(dec.cqi[0])
        values = np.array(values)
        # conditional CDF given the block is covered
        cover = coverage_prob(s)
        for x in (0.5, 1.5, 3.0):
            ref = (mix.cdf(x) - (1 - cover)) / cover
            emp = np.mean(values <= x)
            se = math.sqrt(ref * (1 - ref) / values.size)
            assert abs(emp - ref) < 3.5 * se
