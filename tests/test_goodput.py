import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from hetfb import goodput
from hetfb.analytic import ScheduledCqiMixture, coverage_prob, i1, minimum_best_m
from hetfb.channel import Cluster, ImpairmentParams, SystemConfig
from hetfb.goodput import (
    StrategyParams,
    fixed_rate_metrics,
    i2,
    i3_jensen,
    i3_quadrature,
    i3_upper_bound,
    i4,
    jensen_mean,
    optimize_beta0,
    optimize_beta0_grid,
    optimize_beta1,
    optimize_beta1_grid,
    variable_rate_metrics,
)
from tests.conftest import two_cluster_system
from tests.oracles import (
    i2_mp,
    i2_outage_mp,
    i3_quadrature_u,
    i3_ub_mp,
    i4_mp,
    i4_outage_mp,
    metric_over_sets,
    optimize_beta0_scalar,
    optimize_beta1_scalar,
)

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


class TestMomentDomain:
    """Domain of the moment integrals I1, I2, I4 and the I3 bound, on both
    sides of order 20 (closed form below, quadrature above)."""

    @staticmethod
    def moments(imp):
        return (
            lambda a, b: i1(a, b),
            lambda a, b: i2(a, b, imp),
            lambda a, b: i4(a, b, imp),
            lambda a, b: i3_upper_bound(a, b, imp, 10.0),
        )

    def test_validation(self, imp_default):
        for moment in self.moments(imp_default):
            for b in (5, 30):
                with pytest.raises(ValueError):
                    moment(-1.0, b)

    @staticmethod
    def ordered(imp):
        """Every function of an order b: the four moments, I3 by quadrature, Jensen."""
        return TestMomentDomain.moments(imp) + (
            lambda a, b: i3_quadrature(a, b, imp, 10.0),
            lambda a, b: i3_jensen(a, b, imp, 10.0),
        )

    @pytest.mark.parametrize("b", [0, -3, 0.5, 2.5, 20.5, 30.5, math.nan, math.inf])
    def test_rejects_invalid_order(self, imp_default, b):
        # a zero argument has a known value, which must not skip the order check
        for f in self.ordered(imp_default):
            for a in (0.0, 0.5):
                with pytest.raises(ValueError):
                    f(a, b)

    @pytest.mark.parametrize("b", [1, 5, 20, 30])
    def test_accepts_integral_order_types(self, imp_default, b):
        for f in self.ordered(imp_default):
            assert f(0.5, float(b)) == f(0.5, np.int64(b)) == f(0.5, b)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("b", [5, 30])
    def test_rejects_non_finite_argument(self, imp_default, a, b):
        for f in (i2, i4):
            with pytest.raises(ValueError):
                f(a, b, imp_default)
        with pytest.raises(ValueError):
            i2(np.array([1.0, a]), b, imp_default)

    @pytest.mark.parametrize("snr", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize("integral", [i3_upper_bound, i3_jensen, i3_quadrature])
    def test_rejects_non_positive_or_non_finite_snr(self, imp_default, integral, snr):
        for b in (5, 30):
            with pytest.raises(ValueError):
                integral(0.5, b, imp_default, snr)

    def test_finite_across_arguments(self, imp_default):
        # the 2F1 argument 4 varpi^2 vartheta^2 / phi^2 of the I3 bound stays
        # below one and the I4 root stays real at every threshold and order
        for b in (1, 8, 40):
            for a in (0.01, 0.5, 1.0, 5.0, 40.0):
                assert 0.0 < i2(a, b, imp_default) <= 1.0
                assert 0.0 < i4(a, b, imp_default) <= 1.0
            for a in (0.01, 0.5, 1.0):
                assert 0.0 < i3_upper_bound(a, b, imp_default, 10.0) < math.inf


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

    @pytest.mark.parametrize("n, b", [(1000, 20), (7, 21)], ids=["mixture", "quadrature"])
    def test_array_matches_scalar_calls(self, imp_default, n, b):
        # a block of order-20 mixture terms holds 409 elements, so the 900
        # positive thresholds of the mixture case span three blocks
        a = np.linspace(0.0, 5.0, n)
        a[::10] = 0.0
        assert i2(a, b, imp_default).tolist() == [i2(x, b, imp_default) for x in a.tolist()]


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
        # threshold-domain library quadrature vs the probability-domain oracle
        for (a, b) in [(0.5, 8), (0.9, 2), (0.1, 30)]:
            x_scheme = i3_quadrature(a, b, imp_default, 10.0)
            u_scheme = i3_quadrature_u(a, b, imp_default, 10.0)
            assert abs(x_scheme - u_scheme) < 1e-8

    def test_matches_independent_oracle(self, imp_default):
        got = i3_quadrature(0.5, 8, imp_default, 10.0)
        assert abs(got - i3_oracle(0.5, 8, imp_default, 10.0)) < 1e-7


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
        # float closed form at b = 20, linearized-integral quadrature beyond
        for b in (20, 21, 40):
            val = i3_upper_bound(0.5, b, imp_default, 0.01)
            assert abs(val - i3_ub_mp(0.5, b, imp_default, 0.01)) < 1e-10


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
    @pytest.mark.parametrize("m", [4, 16], ids=["partial", "full"])
    def test_zero_parameters(self, imp_default, m):
        s = two_cluster_system(10, m)
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

    @pytest.mark.parametrize("beta0", [0.5, 1.0])
    def test_full_feedback_fixed_goodput_matches_mpmath(self, imp_default, beta0):
        # the order-20 mixture sum of i2 cancels to ~1e-12; the stack's quadrature does not
        s = two_cluster_system(20, 16)
        r0, _ = fixed_rate_metrics(s, imp_default, beta0)
        ref = math.log2(1.0 + s.snr * beta0) * i2_mp(beta0, 20, imp_default)
        assert r0 == pytest.approx(ref, rel=1e-12, abs=0)

    def test_fixed_rate_identity(self, imp_default):
        # R0 = log2(1+rho*b0) * (coverage - P0) follows from the shared expansion
        for m in (2, 4):
            s = two_cluster_system(8, m)
            r0, p0 = fixed_rate_metrics(s, imp_default, 1.5)
            rate = math.log2(1.0 + s.snr * 1.5)
            assert abs(r0 - rate * (coverage_prob(s) - p0)) < 1e-10

    def test_routes_agree(self, imp_default):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        cover = coverage_prob(s)
        for beta0 in (0.5, 2.0):
            success = metric_over_sets(s, lambda b: i2_mp(beta0, b, imp_default))
            r0, p0 = fixed_rate_metrics(s, imp_default, beta0)
            assert abs(r0 - math.log2(1.0 + s.snr * beta0) * success) < 1e-7
            assert abs(p0 - (cover - success)) < 1e-7
        for beta1 in (0.3, 0.9):
            goodput = metric_over_sets(s, lambda b: i3_quadrature(beta1, b, imp_default, s.snr))
            success = metric_over_sets(s, lambda b: i4_mp(beta1, b, imp_default))
            r1, p1 = variable_rate_metrics(s, imp_default, beta1)
            assert abs(r1 - goodput) < 1e-6 and abs(p1 - (cover - success)) < 1e-7

    def test_fast_mode_close_to_exact(self, imp_default):
        # full feedback: the goodput is the order-20 integral, which the
        # mean-value approximation tracks
        s = two_cluster_system(20, 16)
        exact, _ = variable_rate_metrics(s, imp_default, 0.5)
        fast = i3_jensen(0.5, 20, imp_default, s.snr)
        assert abs(fast / exact - 1.0) < 0.05

    def test_validation(self, imp_default):
        s = two_cluster_system(10, 4)
        with pytest.raises(ValueError):
            fixed_rate_metrics(s, imp_default, -1.0)
        with pytest.raises(ValueError):
            variable_rate_metrics(s, imp_default, 1.5)


class TestOutage:
    """Outage as an integral of its own, against the mpmath outage forms."""

    IMPAIRMENTS = [ImpairmentParams(0.01, 0.98), ImpairmentParams(3e-4, 0.9997)]

    # the strategies' metric, oracle and two parameters each; (fixed, K = 20,
    # beta0 = 0.1, (0.01, 0.98)) and (variable, K = 20, beta1 in {0.05, 0.8})
    # are the cells whose outage subtraction was off by 0.28% to 7.5%
    @pytest.mark.parametrize("metrics, oracle, beta", [
        (fixed_rate_metrics, i2_outage_mp, 0.1),
        (fixed_rate_metrics, i2_outage_mp, 2.0),
        (variable_rate_metrics, i4_outage_mp, 0.05),
        (variable_rate_metrics, i4_outage_mp, 0.8),
    ], ids=["fixed-0.1", "fixed-2", "variable-0.05", "variable-0.8"])
    @pytest.mark.parametrize("users", [5, 10, 15, 20, 40])
    @pytest.mark.parametrize("imp", IMPAIRMENTS, ids=["sw2=0.01", "sw2=3e-4"])
    def test_full_feedback_matches_mpmath(self, metrics, oracle, beta, users, imp):
        s = two_cluster_system(users, 16)
        assert s.best_m == s.m_full
        _, outage = metrics(s, imp, beta)
        ref = oracle(beta, users, imp, extra_dps=30)
        tol = 1e-9 * ref if ref >= 1e-10 else 1e-11
        # the oracle itself is settled far below the tolerance
        assert abs(ref - oracle(beta, users, imp, extra_dps=60)) <= 0.01 * tol
        assert outage >= 0.0
        assert abs(outage - ref) <= tol

    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_table_equals_scalar_calls(self, imp_default, m):
        s = two_cluster_system(20, m)
        beta0, beta1 = [0.0, 0.5, 1.5, 4.0], [0.35, 0.0, 0.7, 1.0]
        r0, p0, r1, p1 = goodput._metrics_table(s, imp_default, beta0, beta1)
        fixed = [fixed_rate_metrics(s, imp_default, b) for b in beta0]
        variable = [variable_rate_metrics(s, imp_default, b) for b in beta1]
        assert list(zip(r0.tolist(), p0.tolist())) == fixed
        assert list(zip(r1.tolist(), p1.tolist())) == variable
        # zeros interleaved in both arrays are exactly 0.0, and the other
        # rows equal the table without them
        beta0, beta1 = [0.0, 1.5, 0.0, 4.0], [0.35, 0.0, 0.7, 0.0, 1.0]
        nonzero = goodput._metrics_table(
            s, imp_default, [b for b in beta0 if b], [b for b in beta1 if b]
        )
        tables = goodput._metrics_table(s, imp_default, beta0, beta1)
        for betas, table, reference in zip((beta0, beta0, beta1, beta1), tables, nonzero):
            zero = np.array(betas) == 0.0
            assert table[zero].tolist() == [0.0] * int(zero.sum())
            assert table[~zero].tolist() == reference.tolist()

    @pytest.mark.parametrize("m", [4, 16], ids=["partial", "full"])
    @pytest.mark.parametrize("beta", [0.0, 0.6])
    def test_metrics_are_plain_floats(self, imp_default, m, beta):
        s = two_cluster_system(10, m)
        for value in fixed_rate_metrics(s, imp_default, 5 * beta) + variable_rate_metrics(
            s, imp_default, beta
        ):
            assert type(value) is float


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

    def test_beta0_extends_its_domain(self):
        # at sigma_w^2 = 0.99 the first domain, 0.01 * (ln 10 + 6) = 0.083 wide,
        # holds no interior maximum, so the search has to leave it
        imp = ImpairmentParams(0.99, 0.1)
        s = two_cluster_system(10, 16)
        b0, val = optimize_beta0(s, imp)
        assert b0 > imp.estimate_var * (math.log(10) + 6.0)
        grid = np.arange(1e-3, 2.0, 1e-3)
        vals = [math.log2(1.0 + s.snr * b) * i2(float(b), 10, imp) for b in grid]
        assert abs(b0 - grid[int(np.argmax(vals))]) < 1e-3
        assert val >= max(vals) - 1e-9

    @pytest.mark.parametrize(
        "optimizer, objective",
        [(optimize_beta0_grid, "i2"), (optimize_beta1_grid, "i3_jensen")],
        ids=["beta0", "beta1"],
    )
    def test_no_repeated_evaluations(self, monkeypatch, optimizer, objective):
        # (0.99, 0.1) extends the beta0 domain, which must not grid any point again
        cells = [ImpairmentParams(sw2, alpha) for sw2, alpha in
                 [(0.01, 0.98), (0.05, 0.9), (0.3, 1.0), (0.99, 0.1)]]
        inner, args = getattr(goodput, objective), {}

        def record(a, b, imp, *rest):
            # each row of an array call belongs to the cell its impairment columns name
            for row, cell in zip(np.asarray(a), zip(imp.estimate_var[:, 0], imp.delay_corr[:, 0])):
                args.setdefault(cell, []).extend(row.tolist())
            return inner(a, b, imp, *rest)

        monkeypatch.setattr(goodput, objective, record)
        optimizer(two_cluster_system(20, 4), cells)
        assert len(args) == len(cells)
        for points in args.values():
            assert len(set(points)) == len(points)

    @pytest.mark.parametrize("users", [20, 40], ids=["mixture", "quadrature"])
    def test_grid_matches_scalar_oracle(self, users):
        # (1e-9, 1.0) puts the Marcum-Q arguments of beta1 near 1 in the
        # Gauss-Hermite branch, and its beta1 bracket, clipped at 1, needs one
        # golden step fewer; (0.9, 0.5) has a beta0 domain below 1, so the
        # floor of its tolerance leaves it fewer steps too.  40 users take the
        # quadrature route of i2.  No cell extends its beta0 domain, so both
        # searches evaluate the same points and must agree exactly.
        s = two_cluster_system(users, 16)
        cells = [ImpairmentParams(sw2, alpha) for sw2 in (1e-9, 0.01, 0.3)
                 for alpha in (0.9, 0.98, 1.0)] + [ImpairmentParams(0.9, 0.5)]
        b0, r0 = optimize_beta0_grid(s, cells)
        b1, r1 = optimize_beta1_grid(s, cells)
        for i, imp in enumerate(cells):
            assert (b0[i], r0[i]) == optimize_beta0_scalar(s, imp)
            assert (b1[i], r1[i]) == optimize_beta1_scalar(s, imp)
        assert optimize_beta0(s, cells[4]) == (b0[4], r0[4])
        assert optimize_beta1(s, cells[4]) == (b1[4], r1[4])

    @pytest.mark.parametrize("users", [20, 40])
    def test_extension_matches_scalar_oracle(self, users):
        # these cells grow their beta0 domain: the grid form grids only the
        # new intervals, the oracle the whole domain again, so the brackets
        # may differ by a grid step and the optima by the golden tolerance
        s = two_cluster_system(users, 16)
        cells = [ImpairmentParams(0.95, 0.5), ImpairmentParams(0.99, 0.1)]
        b0, r0 = optimize_beta0_grid(s, cells)
        for i, imp in enumerate(cells):
            ref_b0, ref_r0 = optimize_beta0_scalar(s, imp)
            assert b0[i] > imp.estimate_var * (math.log(users) + 6.0)
            assert abs(b0[i] - ref_b0) <= 2e-6 * max(ref_b0, 1.0)
            assert r0[i] == pytest.approx(ref_r0, rel=1e-10)

    @pytest.mark.parametrize("optimizer", [optimize_beta0_grid, optimize_beta1_grid],
                             ids=["beta0", "beta1"])
    def test_empty_grid(self, optimizer):
        x, f = optimizer(two_cluster_system(20, 16), [])
        assert x.shape == f.shape == (0,)

    def test_grid_memory(self):
        # figure 7's 399 cells at order 20: all mixture terms of one grid call
        # would take tens of MiB, a block of them at most 64 KiB
        cells = [ImpairmentParams(round(0.005 * i, 3), round(0.9 + 0.005 * j, 3))
                 for i in range(21) for j in range(19)]
        tracemalloc.start()
        try:
            optimize_beta0_grid(two_cluster_system(20, 16), cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_grid_memory_above_order_20(self):
        # at 40 users every i2 element is a quadrature: 48 cells of a 65-point
        # bracketing grid would take about 27 MiB as one batch of integrals,
        # one block of them well under 2 MiB
        cells = [ImpairmentParams(0.002 + 0.004 * i, 0.9 + 0.015 * j)
                 for i in range(8) for j in range(6)]
        tracemalloc.start()
        try:
            optimize_beta0_grid(two_cluster_system(40, 16), cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

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

    def test_full_backoff_on_the_diagonal(self):
        # beta1 = 1 at delay_corr = 1 puts both Marcum-Q arguments on the
        # diagonal, beyond the reach of the noncentral chi-square routines
        s = two_cluster_system(20, 4)
        metrics = variable_rate_metrics(s, ImpairmentParams(1e-9, 1.0), 1.0)
        assert all(math.isfinite(v) for v in metrics)

    @pytest.mark.parametrize("sw2,alpha", [(1e-9, 1.0), (0.0, 0.999999)])
    @pytest.mark.parametrize("b", [21, 40, 60])
    def test_quadrature_route_matches_closed_forms(self, sw2, alpha, b):
        imp = ImpairmentParams(sw2, alpha)
        assert abs(i2(self.BETA0, b, imp) - i2_mp(self.BETA0, b, imp)) < 1e-9
        for beta1 in (self.BETA1, 1.0):
            assert abs(i4(beta1, b, imp) - i4_mp(beta1, b, imp)) < 1e-9

    def test_fixed_rate_success_approaches_perfect_feedback(self):
        s = two_cluster_system(20, 4)
        r0, _ = fixed_rate_metrics(s, ImpairmentParams(1e-9, 1.0), self.BETA0)
        success = r0 / math.log2(1.0 + s.snr * self.BETA0)
        assert abs(success - ScheduledCqiMixture(s).sf(self.BETA0)) < 1e-6
