import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
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
    selection_coefficients,
)
from hetfb import _quad, analytic
from hetfb.channel import Cluster, SystemConfig
from tests.conftest import two_cluster_system
from tests.oracles import (
    i1_mp,
    metric_over_sets,
    reported_cqi_cdf,
    reported_cqi_order_stats,
    xi_coefficients,
)
from tests.perdraw import gen_subband_fading, schedule, subband_reports

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


def _reported_law_mp(n: int, q: int, scale: float, x: float) -> tuple[float, float]:
    """(sf, pdf) of the reported CQI, summed term by term in 50-digit arithmetic."""
    with mp.workdps(50):
        t = mp.mpf(x) / scale
        s, f = mp.exp(-t), -mp.expm1(-t)
        pmf = [mp.binomial(n, k) * s**k * f ** (n - k) for k in range(n + 1)]
        # the j-th largest CQI exceeds x when at least j of them do
        sf = mp.fsum(mp.fsum(pmf[j:]) for j in range(1, q + 1)) / q
        pdf = mp.fsum(
            j * mp.binomial(n, j) * f ** (j - 1) * s ** (n - j + 1) for j in range(n - q + 1, n + 1)
        )
        return float(sf), float(pdf / (q * scale))


class TestReportedLawClosedForm:
    @pytest.mark.parametrize("scale", [1.0, 0.99, 3e-4])
    @pytest.mark.parametrize(
        "n,q", [(4, 2), (16, 1), (16, 4), (64, 4), (64, 16), (64, 63), (128, 40), (1024, 256)]
    )
    def test_matches_order_statistics_and_mpmath(self, n, q, scale):
        law = ReportedCqiLaw(n, q, scale)
        xs = scale * np.array([1e-3, 0.05, 0.3, 1.0, 2.0, math.log(n), math.log(n) + 3, 10.0, 30.0])
        sf, pdf = law.sf(xs), law.pdf(xs)
        ref_sf, ref_pdf = reported_cqi_order_stats(n, q, scale, xs)
        np.testing.assert_allclose(sf, ref_sf, rtol=1e-14, atol=0)
        # the oracle's log-binomial weights carry ~1e-12 relative error at n = 1024
        np.testing.assert_allclose(pdf, ref_pdf, rtol=1e-11, atol=0)
        np.testing.assert_allclose(law.cdf(xs), 1.0 - ref_sf, rtol=0, atol=1e-14)
        if n <= 128:
            exact = np.array([_reported_law_mp(n, q, scale, x) for x in xs])
            np.testing.assert_allclose(sf, exact[:, 0], rtol=1e-14, atol=0)
            np.testing.assert_allclose(pdf, exact[:, 1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scale", [1.0, 3e-4])
    def test_full_quota_raises(self, scale):
        # a cluster reporting every subband is at full feedback, which the
        # order-statistic integrals cover
        for quota in (8, np.array([3, 8])):
            with pytest.raises(ValueError, match="full feedback"):
                ReportedCqiLaw(8, quota, scale)
        full = two_cluster_system(6, 1)
        with pytest.raises(ValueError, match="full feedback"):
            ScheduledCqiMixture(replace(full, best_m=full.m_full), scale)
        with pytest.raises(ValueError, match=r"\[1, num_subbands\)"):
            ReportedCqiLaw(8, 0, scale)

    def test_limits(self):
        law = ReportedCqiLaw(16, 4, 0.5)
        assert law.sf(0.0) == 1.0 and law.sf(-1.0) == 1.0
        assert law.pdf(0.0) == 0.0 and law.pdf(-1.0) == 0.0
        assert law.cdf(0.0) == 0.0


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
        for a in (0.5, 10.0):
            assert abs(i1(a, 20) - i1_mp(a, 20)) < 1e-9  # float vs mp
            assert abs(i1(a, 21) - i1_mp(a, 21)) < 1e-8  # quad vs mp
            assert abs(i1(a, 60) - i1_mp(a, 60)) < 1e-8  # quad vs mp

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
        ref = metric_over_sets(s, lambda b: i1_mp(s.snr, b))
        assert abs(average_sum_rate(s) - ref) < 1e-8

    @pytest.mark.parametrize(
        "n,clusters,m",
        [(16, (Cluster(1, 1), Cluster(2, 1)), 3), (8, (Cluster(1, 3),), 4)],
    )
    def test_matches_exact_expansion(self, n, clusters, m):
        # selection coefficients up to ~4e5 in magnitude: a float sum of the
        # expansion over float I1 values is off in the 7th digit here
        s = SystemConfig(n, clusters, m, 10.0)
        ref = metric_over_sets(s, lambda b: i1_mp(s.snr, b))
        assert abs(average_sum_rate(s) - ref) < 1e-9

    def test_exact_expansion_refuses_amplified_rounding(self):
        # at 32 RBs with 3 + 3 users and M = 2, sum |theta| reaches 2.4e25,
        # so the rounding of the float 1 / b alone swamps the sum
        s = SystemConfig(32, (Cluster(1, 3), Cluster(4, 3)), 2, 10.0)
        with pytest.raises(ArithmeticError, match="amplified by the selection coefficients"):
            metric_over_sets(s, lambda b: 1.0 / b)
        exact = metric_over_sets(s, lambda b: Fraction(1, b), eps=0.0)
        unchecked = metric_over_sets(s, lambda b: 1.0 / b, eps=0.0)
        assert abs(unchecked - exact) > 100.0 * abs(exact)

    def test_large_config_uses_cdf_route(self):
        s = two_cluster_system(20, 4)
        val = average_sum_rate(s)  # would be numerically impossible via floats
        assert 4.0 < val < 6.0

    def test_monotone_in_m_and_k(self):
        rates_m = [average_sum_rate(two_cluster_system(10, m)) for m in (1, 2, 4, 8, 16)]
        assert all(x <= y + 1e-12 for x, y in zip(rates_m, rates_m[1:]))
        rates_k = [average_sum_rate(two_cluster_system(k, 2)) for k in (4, 10, 20, 30)]
        assert all(x < y for x, y in zip(rates_k, rates_k[1:]))


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


def figure_4b_system(k: int, frac: float) -> SystemConfig:
    k1 = round(frac * k)
    return SystemConfig(64, (Cluster(1, k1), Cluster(4, k - k1)), best_m=1, snr=10.0)


class TestBatchedSystems:
    """A sequence of systems through one batched call equals the per-system calls."""

    # partial and full feedback (16 = m_full), orders up to 20 and beyond: the
    # full-feedback orders 3, 8, 12, 20, 21 and 25 share one i1 call, so one
    # block of the mixture sum pads orders 3 to 20 to 20 terms
    SYSTEMS = [two_cluster_system(k, m) for k, m in
               ((4, 1), (10, 2), (25, 16), (30, 4), (21, 16), (7, 3), (12, 16), (45, 1),
                (3, 16), (8, 16), (20, 16))]

    def test_average_sum_rate(self):
        rates = average_sum_rate(self.SYSTEMS)
        assert rates.tolist() == [average_sum_rate(s) for s in self.SYSTEMS]

    @pytest.mark.parametrize(
        "systems,gamma",
        [
            ([two_cluster_system(k, 1) for k in range(5, 51)], (0.9, 0.99)),  # figure 4a
            ([figure_4b_system(k, round(0.1 * i, 1)) for k in (10, 20, 30, 40, 50)
              for i in range(1, 10)], 0.99),  # figure 4b
        ],
        ids=["figure_4a", "figure_4b"],
    )
    def test_minimum_best_m(self, systems, gamma):
        assert minimum_best_m(systems, gamma) == [minimum_best_m(s, gamma) for s in systems]

    def test_minimum_best_m_integrates_each_round_once(self, monkeypatch):
        # scanning the 81 systems one by one runs 1282 Gauss-Kronrod levels;
        # one batched call per round of best-M runs 48
        levels = []
        kronrod = _quad._gauss_kronrod
        monkeypatch.setattr(_quad, "_gauss_kronrod", lambda *a: levels.append(1) or kronrod(*a))
        minimum_best_m([two_cluster_system(k, 1) for k in range(5, 86)], (0.9, 0.99))
        assert len(levels) <= 60

    def test_i1_broadcasts_over_orders(self):
        a, b = [0.5, 10.0, 3.0, 10.0, 1.0], [5, 21, 40, 20, 21]
        assert i1(a, b).tolist() == [i1(x, k) for x, k in zip(a, b)]

    def test_padded_mixture_terms_are_exact_zeros(self):
        # one block pads order 1 with the terms of orders 2 and 3, at the means
        # 1/2 and 1/3, where this closed form is inf: they must add 0, not inf * 0
        def moment(b, floor):
            return analytic._order_moment(
                lambda mean, floor: np.where(mean >= floor, mean, np.inf),
                lambda x, floor: x, b, 1.0, floor,
            )

        mixed = moment([1, 3], [1.0, 0.1])
        assert mixed.tolist() == [moment(1, 1.0), moment(3, 0.1)]
        assert mixed.tolist() == pytest.approx([1.0, 1.0 + 1 / 2 + 1 / 3], rel=1e-15)

    def test_mixture_laws_broadcast_against_abscissae(self):
        systems = self.SYSTEMS[:2] + self.SYSTEMS[3:4]
        mix = ScheduledCqiMixture(systems, scale=0.9)
        x = np.array([[0.5], [2.0], [4.0], [9.0]])  # rows: abscissae, columns: systems
        for j, s in enumerate(systems):
            one = ScheduledCqiMixture(s, scale=0.9)
            for law in ("cdf", "sf", "pdf"):
                assert getattr(mix, law)(x)[:, j].tolist() == getattr(one, law)(x[:, 0]).tolist()
        assert mix.expect_log_rate([s.snr for s in systems]).tolist() == [
            ScheduledCqiMixture(s, scale=0.9).expect_log_rate(s.snr) for s in systems
        ]

    def test_reported_law_takes_an_array_of_quotas(self):
        quotas = [1, 3, 7]
        law = ReportedCqiLaw(8, np.array(quotas), scale=0.7)
        x = np.array([[0.0], [0.3], [1.0], [2.5]])
        for j, q in enumerate(quotas):
            one = ReportedCqiLaw(8, q, scale=0.7)
            assert law.sf(x)[:, j].tolist() == one.sf(x[:, 0]).tolist()
            assert law.pdf(x)[:, j].tolist() == one.pdf(x[:, 0]).tolist()

    def test_systems_must_share_blocks_and_subband_sizes(self):
        other = SystemConfig(32, (Cluster(1, 3), Cluster(4, 3)), best_m=1, snr=10.0)
        with pytest.raises(ValueError):
            average_sum_rate([two_cluster_system(6, 1), other])
        with pytest.raises(ValueError):
            minimum_best_m([two_cluster_system(6, 1), other], 0.9)


class TestRateDomainIntegral:
    """``expect_log_rate`` integrates over the rate u = log2(1 + snr x)."""

    @pytest.mark.parametrize("scale", [1.0, 0.9])
    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("snr_db", [0, 10, 30, 60, 120])
    def test_equals_density_route(self, snr_db, k, scale):
        snr = 10.0 ** (snr_db / 10.0)
        systems = [two_cluster_system(k, m, snr) for m in range(1, 16)]  # m_full = 16
        mix = ScheduledCqiMixture(systems, scale=scale)
        by_parts = mix.expect_log_rate([snr] * len(systems))
        density = mix.expect(lambda x: np.log2(1.0 + snr * x))
        np.testing.assert_allclose(by_parts, density, rtol=1e-10, atol=0)

    def test_nodes_per_integral_at_high_snr(self, monkeypatch):
        # the x-domain integrand graded its panels toward the pole at
        # x = -1/snr: 1785 nodes at 120 dB
        nodes = []
        sf = ScheduledCqiMixture.sf
        monkeypatch.setattr(ScheduledCqiMixture, "sf",
                            lambda self, x: nodes.append(np.size(x)) or sf(self, x))
        s = two_cluster_system(20, 1, snr=1e12)
        ScheduledCqiMixture(s).expect_log_rate(s.snr)
        assert 0 < sum(nodes) <= 300

    def test_breakpoints_do_not_depend_on_the_user_count(self, monkeypatch):
        # the systems of a batch at one snr share every node below their last
        # breakpoint, so a best-M round of many user counts meets few distinct nodes
        calls = []
        quad = analytic.quad_checked
        monkeypatch.setattr(analytic, "quad_checked", lambda f, a, b, points: (
            calls.append(np.asarray(points)) or quad(f, a, b, points=points)))
        systems = [two_cluster_system(k, 2) for k in (5, 50, 500)]
        ScheduledCqiMixture(systems).expect_log_rate([s.snr for s in systems])
        (points,) = calls
        assert points.shape == (3, 6) and (points == points[0]).all()


class TestDistinctNodes:
    """``ReportedCqiLaw`` takes its incomplete beta functions once per distinct node."""

    X = np.array([0.5, 2.0, 0.5, 0.0, -1.0, 2.0, 0.5, 7.0])
    QUOTAS = np.array([1, 3, 1, 3, 1, 1, 3, 3])

    def test_repeats_and_mixed_quotas_equal_elementwise_calls(self):
        law = ReportedCqiLaw(8, self.QUOTAS, scale=0.7)
        for name in ("sf", "pdf", "cdf"):
            expected = [getattr(ReportedCqiLaw(8, int(q), scale=0.7), name)(float(x))
                        for x, q in zip(self.X, self.QUOTAS)]
            assert getattr(law, name)(self.X).tolist() == expected
        # abscissae of several dimensions broadcast against the quotas
        grid = np.stack([self.X, self.X[::-1]], axis=1)[:, :, None]  # (8, 2, 1)
        quotas = np.array([1, 3, 1])
        table = ReportedCqiLaw(8, quotas, scale=0.7).sf(grid)
        assert table.shape == (8, 2, 3)
        for j, q in enumerate(quotas.tolist()):
            one = ReportedCqiLaw(8, q, scale=0.7)
            assert table[:, :, j].tolist() == one.sf(grid[:, :, 0]).tolist()

    def test_one_evaluation_per_distinct_pair(self, monkeypatch):
        sizes = []
        betainc = analytic.betainc
        monkeypatch.setattr(analytic, "betainc",
                            lambda a, b, x: sizes.append(np.size(x)) or betainc(a, b, x))
        ReportedCqiLaw(8, self.QUOTAS, scale=0.7).sf_pdf(self.X)
        # (0.5, 1), (2, 3), (0, 3), (0, 1) for x = -1, (2, 1), (0.5, 3), (7, 3)
        assert sizes == [7, 7]


class TestCrossModelConsistency:
    def test_reported_cdf_against_simulation(self):
        # scheduled-CQI CDF at one block vs a direct simulation
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        mix = ScheduledCqiMixture(s)
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
