import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import hyperu as scipy_hyperu
from scipy.special import i0e as scipy_i0e

from hetfb import specfun
from hetfb.specfun import bessel_i0e, exp_integral_e1_scaled, gauss_2f1, marcum_q1, marcum_q1c
from tests.oracles import bessel_i0, exp_integral_e1, marcum_q1_craig

# Frozen oracle values, recomputed below by the independent oracles.
E1_AT_1 = 0.21938393439552029  # adaptive quadrature of int_1^inf exp(-t)/t dt
E1_AT_HALF = 0.5597735947761608
I0_AT_1 = 1.2660658777520082  # power series sum_k (x/2)^{2k}/(k!)^2
I0_AT_10 = 2815.716628466254
Q1_AT_0_1 = 0.6065306597126334  # exp(-1/2)
Q1_AT_1_1 = 0.7328798037968203  # quadrature of the defining integral
F21_HALF = 1.6568542494923801  # 2F1(1,3/2;2;1/2) = 4*(sqrt(2)-1)
Q1_AT_4472_4470 = 0.977255905284  # noncentral chi-square tail, checked below


def e1_quadrature(x: float) -> float:
    val, _ = integrate.quad(lambda t: math.exp(-t) / t, x, x + 200.0, limit=200)
    return val


def i0_power_series(x: float) -> float:
    terms = [1.0]
    for k in range(1, 120):
        terms.append(terms[-1] * (0.25 * x * x) / (k * k))
    return math.fsum(terms)


def q1_quadrature(a: float, b: float) -> float:
    def f(t):
        return t * math.exp(-0.5 * (t - a) ** 2) * scipy_i0e(a * t)

    val, _ = integrate.quad(f, b, a + 40.0, limit=300)
    return val


class TestExpIntegral:
    def test_oracle_values(self):
        assert abs(e1_quadrature(1.0) - E1_AT_1) < 1e-11
        assert abs(e1_quadrature(0.5) - E1_AT_HALF) < 1e-11
        assert abs(exp_integral_e1(1.0) - E1_AT_1) < 1e-10
        assert abs(exp_integral_e1(0.5) - E1_AT_HALF) < 1e-10

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.3, 0.999, 1.0, 1.001, 3.0, 25.0, 300.0])
    def test_matches_quadrature(self, x):
        assert abs(exp_integral_e1(x) - e1_quadrature(x)) < 1e-10

    def test_monotone_decay_and_underflow(self):
        grid = [0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 500.0, 700.0]
        vals = [exp_integral_e1(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert exp_integral_e1(700.0) < 1e-300
        assert exp_integral_e1(800.0) == 0.0

    def test_bracketing_bound(self):
        for x in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]:
            lo = math.exp(-x) / (x + 1.0)
            hi = math.exp(-x) / x
            assert lo < exp_integral_e1(x) < hi

    def test_scaled_variant(self):
        for x in [0.2, 1.0, 5.0, 50.0, 700.0, 5000.0]:
            scaled = exp_integral_e1_scaled(x)
            assert math.isfinite(scaled) and scaled > 0
            if x <= 600:
                assert abs(scaled - math.exp(x) * exp_integral_e1(x)) <= 1e-12 * scaled

    def test_scaled_calls_hyperu_beyond_split_only(self, monkeypatch):
        seen = []

        def recording_hyperu(a, b, x):
            seen.extend(np.atleast_1d(x).tolist())
            return scipy_hyperu(a, b, x)

        monkeypatch.setattr(specfun, "hyperu", recording_hyperu)
        exp_integral_e1_scaled(np.array([1.0, 10.0, 800.0, 1e4]))
        assert seen == [800.0, 1e4]

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            exp_integral_e1(x)
        with pytest.raises(ValueError):
            exp_integral_e1_scaled(x)


class TestBesselI0:
    def test_oracle_values(self):
        assert abs(i0_power_series(1.0) - I0_AT_1) < 1e-12
        assert abs(i0_power_series(10.0) / I0_AT_10 - 1.0) < 1e-13
        assert bessel_i0(0.0) == 1.0
        assert abs(bessel_i0(1.0) / I0_AT_1 - 1.0) < 1e-10
        assert abs(bessel_i0(10.0) / I0_AT_10 - 1.0) < 1e-10

    @pytest.mark.parametrize("x", [0.1, 2.0, 17.9, 18.1, 30.0, 100.0, 650.0])
    def test_series_asymptotic_consistency(self, x):
        # independent oracle: scipy's scaled Bessel
        assert abs(bessel_i0e(x) / scipy_i0e(x) - 1.0) < 1e-10
        if x < 700:
            assert abs(bessel_i0(x) * math.exp(-x) / bessel_i0e(x) - 1.0) < 1e-9

    def test_overflow_to_inf(self):
        assert bessel_i0(710.0) == math.inf
        assert math.isfinite(bessel_i0e(710.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i0(-0.1)
        with pytest.raises(ValueError):
            bessel_i0e(-0.1)


class TestMarcumQ1:
    def test_boundary_b_zero(self):
        for a in [0.0, 0.5, 3.0, 40.0]:
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_closed_form(self):
        assert abs(marcum_q1(0.0, 1.0) - Q1_AT_0_1) < 1e-12
        for b in [0.1, 1.0, 2.5, 7.0]:
            assert abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)) < 1e-12

    def test_oracle_value(self):
        assert abs(q1_quadrature(1.0, 1.0) - Q1_AT_1_1) < 1e-10
        assert abs(marcum_q1(1.0, 1.0) - Q1_AT_1_1) < 1e-9

    @pytest.mark.parametrize(
        "a,b",
        [(0.5, 0.2), (1.0, 2.0), (3.0, 1.0), (5.0, 5.0), (12.0, 10.0), (8.0, 15.0)],
    )
    def test_matches_defining_integral(self, a, b):
        assert abs(marcum_q1(a, b) - q1_quadrature(a, b)) < 1e-9

    @pytest.mark.parametrize("a,b", [(25.0, 20.0), (40.0, 45.0), (60.0, 58.0), (5.0, 60.0)])
    def test_matches_noncentral_chi2(self, a, b):
        # independent oracle through the noncentral chi-square tail
        ref = stats.ncx2.sf(b * b, 2, a * a)
        assert abs(marcum_q1(a, b) - ref) < 1e-9

    def test_monotone_grid(self):
        grid = np.linspace(0.0, 6.0, 13)
        for a in grid:
            vals = [marcum_q1(a, b) for b in grid]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        for b in grid:
            vals = [marcum_q1(a, b) for a in grid]
            assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_range(self, a, b):
        assert 0.0 <= marcum_q1(a, b) <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -1.0)

    def test_large_arguments_near_diagonal(self):
        # near-perfect feedback: alpha_w = 4472 at est_error_var=1e-7, delay_corr=1
        ref = stats.ncx2.sf(4470.0**2, 2, 4472.0**2)
        assert abs(ref - Q1_AT_4472_4470) < 1e-9
        assert abs(marcum_q1(4472.0, 4470.0) - ref) < 1e-9

    def test_large_arguments_deep_upper_tail(self):
        val = marcum_q1(44721.0, 44740.0)
        assert 0.0 <= val <= 1.0
        assert val < 1e-60

    @pytest.mark.parametrize("a", [40.0, 41.5, 300.0, 4472.0, 2.5e5, 3e5, 1e6])
    def test_large_arguments_match_craig_integral(self, a):
        # near-perfect feedback: both arguments large, within 40 of each other
        for d in (-39.0, -7.5, -1.0, -0.01, 0.3, 2.0, 12.0, 39.5):
            b = a + d
            if b >= 40.0:
                assert abs(marcum_q1(a, b) - marcum_q1_craig(a, b)) < 1e-12

    def test_large_arguments_on_the_diagonal(self):
        # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2
        for a in (40.0, 1e3, 3e5, 1e6):
            assert abs(marcum_q1(a, a) - 0.5 * (1.0 + scipy_i0e(a * a))) < 1e-12

    def test_array_call_matches_scalar_calls(self):
        a = np.array([0.0, 0.5, 3.0, 5.0, 12.0, 8.0, 60.0, 4472.0, 0.0, 100.0])
        b = np.array([1.0, 0.2, 1.0, 5.0, 10.0, 15.0, 58.0, 4470.0, 45.0, 50.0])
        vals = marcum_q1(a, b)
        assert vals.shape == a.shape
        assert vals[-2] == 0.0 and vals[-1] == 1.0  # |a - b| >= 40 rounds to 0 or 1
        assert np.array_equal(vals, [marcum_q1(x, y) for x, y in zip(a, b)])
        assert np.array_equal(marcum_q1(a[:, None], b).diagonal(), vals)


class TestMarcumQ1Complement:
    """1 - Q1 at full relative precision, branch by branch."""

    @pytest.mark.parametrize("a,b", [
        # b <= a, through chndtr
        (10.0, 5.0), (6.0, 3.0), (4.0, 1.0), (39.0, 30.0),
        # b > a near the origin and just above the diagonal, through chndtr
        (0.0, 1e-3), (0.0, 0.02), (1e-3, 0.02), (0.01, 0.0100001), (0.02, 0.04),
        # both arguments at least 40: Gauss-Hermite
        (60.0, 55.0), (300.0, 290.0), (300.0, 296.0), (4472.0, 4466.0), (2.5e5, 2.5e5 - 8.0),
    ])
    def test_matches_craig_integral(self, a, b):
        ref = marcum_q1_craig(a, b, dps=60, complement=True)
        assert ref < 1e-3
        assert abs(marcum_q1c(a, b) - ref) <= 1e-13 * ref

    def test_saturated(self):
        # |a - b| >= 40: the complement rounds to exactly 0 (b < a) or 1 (b > a)
        a = np.array([45.0, 100.0, 0.0, 20.0, 1e6])
        b = np.array([5.0, 60.0, 40.0, 100.0, 1e6 - 40.0])
        assert marcum_q1c(a, b).tolist() == [0.0, 0.0, 1.0, 1.0, 0.0]

    def test_complements_marcum_q1(self):
        # a grid across b = a, |a - b| = 40 and min(a, b) = 40, near the
        # origin and out to the Gauss-Hermite branch's large arguments
        offsets = np.array([-41.0, -40.0, -39.99, -5.0, -1.0, -0.1, -1e-3, -1e-9, 0.0, 1e-9,
                            1e-3, 0.01, 0.1, 0.5, 1.0, 5.0, 39.99, 40.0, 41.0])
        for a in np.concatenate([np.linspace(0.0, 90.0, 181), [39.999, 40.001, 4472.0, 1e6]]):
            b = np.concatenate([a + offsets, np.linspace(0.0, 90.0, 91)])
            b = b[b >= 0.0]
            assert np.all(np.abs(marcum_q1(a, b) + marcum_q1c(a, b) - 1.0) <= 4e-16)

    def test_array_call_matches_scalar_calls(self):
        a = np.array([0.0, 0.5, 3.0, 5.0, 12.0, 8.0, 60.0, 4472.0, 0.0, 100.0])
        b = np.array([1.0, 0.2, 1.0, 5.0, 10.0, 15.0, 58.0, 4470.0, 45.0, 50.0])
        vals = marcum_q1c(a, b)
        assert type(marcum_q1c(3.0, 1.0)) is np.float64
        assert np.array_equal(vals, [marcum_q1c(x, y) for x, y in zip(a, b)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_range(self, a, b):
        assert 0.0 <= marcum_q1c(a, b) <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError, match="Marcum Q1"):
            marcum_q1c(-1.0, 1.0)
        with pytest.raises(ValueError, match="Marcum Q1"):
            marcum_q1c(1.0, -1.0)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(1.0, 1.5, 2.0, 0.0) == 1.0

    def test_binomial_reduction(self):
        # 2F1(a,b;b;z) = (1-z)^(-a)
        assert abs(gauss_2f1(0.5, 1.0, 1.0, 0.75) - 2.0) < 1e-10
        for z in np.arange(0.0, 0.95, 0.1):
            for a in (0.5, 1.0, 1.5):
                val = gauss_2f1(a, 1.0, 1.0, float(z)) * (1.0 - z) ** a
                assert abs(val - 1.0) < 1e-9

    def test_oracle_value(self):
        # closed form 4*(sqrt(2)-1) for (1, 3/2; 2; 1/2)
        assert abs(F21_HALF - 4.0 * (math.sqrt(2.0) - 1.0)) < 1e-12
        assert abs(gauss_2f1(1.0, 1.5, 2.0, 0.5) / F21_HALF - 1.0) < 1e-10

    def test_c_equals_a_family(self):
        for z in (0.1, 0.4, 0.8):
            ref = (1.0 - z) ** -1.5
            assert abs(gauss_2f1(1.0, 1.5, 1.0, z) / ref - 1.0) < 1e-10

    def test_domain(self):
        for z in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                gauss_2f1(1.0, 1.5, 2.0, z)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.5, -2.0, 0.5)
