"""Reference evaluations that the library no longer carries, kept as test oracles.

* The arbitrary-precision closed forms of the moment integrals I1, I2, I4
  and the low-SNR I3 bound, and the outages 1 - I2 and 1 - I4 subtracted
  in mpmath.  The library integrates the defining integrals of I1, I4 and
  the I3 bound at every order; only I2 sums its alternating binomial
  series in floats, up to order 20, because the beta0 optimizer calls it
  at every golden-section step, and integrates beyond.  These sums, in
  mpmath with enough guard digits for the cancellation, check both routes
  at any order.
* The probability-domain parametrization of the variable-rate goodput
  integral, an independent quadrature of what ``i3_quadrature`` computes.
* The Craig/Simon single-integral form of the Marcum Q-function and its
  complement, which stay accurate at arguments far beyond the noncentral
  chi-square routines.
* The paper's per-feedback-set expansion of a partial-feedback metric,
  summed exactly over the rational selection coefficients, the reference
  for the library's mixture-CDF route; it refuses a sum that the rounding
  of its terms, amplified by the coefficients, could move by 1e-6.
* The reported-CQI law as the average of the top order statistics, the
  reference for the library's two-term incomplete-beta form.
* A partial-feedback variable-rate outage integrated over the scheduled
  estimate by fixed Gauss-Legendre panels, with the failure probability as
  its positive Bessel series: the reference where the per-feedback-set
  expansion cancels beyond any working precision.
* The scalar beta0 / beta1 searches, one impairment cell and one
  objective call at a time, with the beta0 domain extension that grids
  the whole grown domain again: the reference for the lockstep grid
  optimizers.
* Closed forms only the tests evaluate: the float expansion coefficients
  and the CDF of the reported CQI, the subcarrier correlation of the
  correlated model, the conditional density of the actual CQI given its
  estimate, and the unscaled E1 and I0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import betainc, exp1, gammaln, i0, ive

from hetfb import goodput
from hetfb.analytic import ReportedCqiLaw, _xi_exact, feedback_set_pmf, selection_coefficients
from hetfb.channel import ImpairmentParams, SystemConfig, cluster_feedback_quota
from hetfb.specfun import bessel_i0e, marcum_q1


def mp_dps(b: int) -> int:
    # digits lost to cancellation ~ log10 C(b-1, b//2) ~ 0.301*b
    return 30 + int(0.31 * b)


def i1_mp(a: float, b: int) -> float:
    """E[log2(1 + a X)], X the max of b unit exponentials, by the E1 closed form."""
    with mp.workdps(mp_dps(b)):
        am = mp.mpf(a)
        total = mp.mpf(0)
        for l in range(b):
            z = (l + 1) / am
            term = mp.binomial(b - 1, l) / (l + 1) * mp.exp(z) * mp.e1(z)
            total += term if l % 2 == 0 else -term
        return float(b * total / mp.ln(2))


def _i2_sum_mp(a: float, b: int, imp: ImpairmentParams) -> mp.mpf:
    """I2 by its closed form, at the working precision."""
    v = mp.mpf(imp.estimate_var)
    w2 = (mp.mpf(imp.alpha_w) * imp.delay_corr) ** 2
    t2 = mp.mpf(imp.alpha_w) ** 2 * a
    total = mp.mpf(0)
    for l in range(b):
        z = 2 * (l + 1) / v
        c = w2 + z
        bracket = mp.exp(-t2 / 2) + mp.exp(-z * t2 / (2 * c)) * (-mp.expm1(-w2 * t2 / (2 * c)))
        term = mp.binomial(b - 1, l) * bracket / z
        total += term if l % 2 == 0 else -term
    return 2 * b / v * total


def _i4_sum_mp(a: float, b: int, imp: ImpairmentParams) -> mp.mpf:
    """I4 by its closed form, at the working precision."""
    v = mp.mpf(imp.estimate_var)
    w = mp.mpf(imp.alpha_w) * imp.delay_corr
    t = mp.mpf(imp.alpha_w) * mp.sqrt(mp.mpf(a))
    total = mp.mpf(0)
    for l in range(b):
        z = 2 * (l + 1) / v
        psi = w**2 - t**2 + z
        sig = mp.sqrt(((w - t) ** 2 + z) * ((w + t) ** 2 + z))
        term = mp.binomial(b - 1, l) / z * (1 + psi / sig)
        total += term if l % 2 == 0 else -term
    return b / v * total


def i2_mp(a: float, b: int, imp: ImpairmentParams) -> float:
    """Fixed-rate success probability I2 by its closed form."""
    with mp.workdps(mp_dps(b)):
        return float(min(max(_i2_sum_mp(a, b, imp), mp.mpf(0)), mp.mpf(1)))


def i4_mp(a: float, b: int, imp: ImpairmentParams) -> float:
    """Variable-rate success probability I4 by its closed form."""
    with mp.workdps(mp_dps(b)):
        return float(min(max(_i4_sum_mp(a, b, imp), mp.mpf(0)), mp.mpf(1)))


def i2_outage_mp(a: float, b: int, imp: ImpairmentParams, extra_dps: int) -> float:
    """Fixed-rate outage 1 - I2, subtracted in mpmath at ``extra_dps`` digits over ``mp_dps``.

    A small outage is the difference of two numbers near 1, so it needs
    digits beyond those the binomial cancellation takes.
    """
    with mp.workdps(mp_dps(b) + extra_dps):
        return float(1 - _i2_sum_mp(a, b, imp))


def i4_outage_mp(a: float, b: int, imp: ImpairmentParams, extra_dps: int) -> float:
    """Variable-rate outage 1 - I4, subtracted in mpmath as in ``i2_outage_mp``."""
    with mp.workdps(mp_dps(b) + extra_dps):
        return float(1 - _i4_sum_mp(a, b, imp))


def _i3_ub_bracket(w2, t2, z, phi, f1, f2, f3, f4):
    """The bracket of one I3-bound term, from its four 2F1 factors."""
    return 1 + (t2 / phi) * (
        (w2 / phi) * f1 - f2 + (2 * z / phi) * ((w2 / phi) * f3 - 0.5 * f4)
    )


def i3_ub_mp(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """Low-SNR upper bound on the variable-rate goodput integral by its closed form."""
    with mp.workdps(mp_dps(b)):
        v = mp.mpf(imp.estimate_var)
        w2 = (mp.mpf(imp.alpha_w) * imp.delay_corr) ** 2
        t2 = mp.mpf(imp.alpha_w) ** 2 * a
        total = mp.mpf(0)
        for l in range(b):
            z = 2 * (l + 1) / v
            phi = w2 + t2 + z
            h = 4 * w2 * t2 / phi**2
            bracket = _i3_ub_bracket(
                w2,
                t2,
                z,
                phi,
                mp.hyp2f1(1, mp.mpf(3) / 2, 2, h),
                mp.hyp2f1(mp.mpf(1) / 2, 1, 1, h),
                mp.hyp2f1(mp.mpf(3) / 2, 2, 2, h),
                mp.hyp2f1(1, mp.mpf(3) / 2, 1, h),
            )
            term = mp.binomial(b - 1, l) * bracket / z**2
            total += term if l % 2 == 0 else -term
        return float(4 * snr * a * b / (v * mp.ln(2)) * total)


def i3_quadrature_u(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """Variable-rate goodput integral in the probability domain.

    Substitutes x(u) = F^{-1}(u^{1/b}), F the estimated-CQI CDF, so the
    order-statistic weight becomes du on [0, 1]; the integrand picks up a
    mild log singularity at u = 1 that ``scipy.integrate.quad`` resolves.
    """
    v = imp.estimate_var
    varpi = imp.alpha_w * imp.delay_corr
    aw = imp.alpha_w

    def integrand(u: float) -> float:
        if not 0.0 < u < 1.0:
            return 0.0
        x = -v * math.log(-math.expm1(math.log(u) / b))
        return float(marcum_q1(varpi * math.sqrt(x), aw * math.sqrt(a * x))) * math.log2(
            1.0 + snr * a * x
        )

    return integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400)[0]


def marcum_q1_craig(a: float, b: float, dps: int = 40, complement: bool = False) -> float:
    """Q1(a, b) for a != b by the Craig/Simon integral over one period.

    With zeta the ratio of the smaller to the larger argument r and
    D(phi) = (1 - zeta)^2 + 4 zeta sin^2(phi/2) = 1 - 2 zeta cos(phi) + zeta^2,
    Q1 = (1/2pi) int (1 - zeta cos phi) / D exp(-r^2 D / 2) dphi for b > a, and
    Q1 = 1 + (1/2pi) int zeta (zeta - cos phi) / D exp(-r^2 D / 2) dphi for
    b < a.  The mass sits within a few 1/r of phi = 0, so the range is split
    there.  With ``complement`` it returns 1 - Q1, subtracted at ``dps``
    digits before rounding to a float.
    """
    if a == b:
        raise ValueError("the Craig form is singular on the diagonal")
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        r, zeta = (b, a / b) if b > a else (a, b / a)

        def integrand(phi):
            s2 = 2 * mp.sin(phi / 2) ** 2  # 1 - cos(phi)
            d = (1 - zeta) ** 2 + 2 * zeta * s2
            num = (1 - zeta) + zeta * s2 if b > a else zeta * ((zeta - 1) + s2)
            return num / d * mp.exp(-r * r * d / 2)

        scales = sorted({min(mp.pi, k * s) for s in (1 / r, 1 - zeta) for k in (1, 10, 100)})
        total = mp.quad(integrand, [0] + scales + ([mp.pi] if scales[-1] < mp.pi else []))
        value = total / mp.pi  # the integrand is even in phi
        q = value if b > a else 1 + value
        return float(1 - q if complement else q)


def metric_over_sets(
    sys: SystemConfig, term: Callable[[int], float], eps: float = 2.0**-53
) -> float:
    """Sum over nonempty feedback sets of P(tau) * sum_m theta_m * term(b_total - m).

    ``term(b)`` is the metric's order-statistic integral for the maximum of
    b CQIs, held to relative precision ``eps`` (2^-53 for a float).  The
    probabilities and selection coefficients are exact rationals and the sum
    is formed exactly, so the only rounding is that of each ``term`` value,
    amplified by sum |theta_m|.  Its bound eps * sum P(tau) sum |theta_m term|
    is carried next to the sum, and an ``ArithmeticError`` is raised when it
    exceeds 1e-6 of the result.
    """
    dist = feedback_set_pmf(sys)
    values: dict[int, Fraction] = {}
    total = magnitude = Fraction(0)
    for tau, _ in dist:
        if not any(tau):
            continue
        table = selection_coefficients(sys, tau)
        inner = inner_abs = Fraction(0)
        for m, th in enumerate(table.theta_exact):
            b = table.b_total - m
            if b not in values:
                values[b] = Fraction(term(b))
            part = th * values[b]
            inner += part
            inner_abs += abs(part)
        p = dist.probability_exact(tau)
        total += p * inner
        magnitude += p * inner_abs
    result = float(total)
    bound = eps * float(magnitude)
    if bound > 1e-6 * abs(result):
        raise ArithmeticError(
            f"the terms' rounding, amplified by the selection coefficients, "
            f"reaches {bound:.3g} on a sum of {result:.3g}"
        )
    return result


def xi_coefficients(sys: SystemConfig, g: int) -> np.ndarray:
    """Expansion coefficients of the reported-CQI CDF for cluster ``g``.

    The reported CQI of a cluster-``g`` user has CDF
    ``sum_m xi[m] * F(x)**(num_subbands - m)`` with F the base CQI CDF.
    """
    return np.array(
        [float(x) for x in _xi_exact(sys.num_subbands(g), cluster_feedback_quota(sys, g))]
    )


def reported_cqi_order_stats(n: int, q: int, scale: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(sf, pdf) at x > 0 of the reported CQI as the average of the top ``q`` order statistics.

    The reported value is one of the ``q`` largest of ``n`` i.i.d.
    exponential CQIs with mean ``scale``, uniformly, so its law averages
    theirs: the j-th smallest of n exceeds x with probability
    I_S(n-j+1, j), S the base survival, and has density
    j C(n, j) F^(j-1) S^(n-j+1) / scale, F = 1 - S.
    """
    j = np.arange(n - q + 1, n + 1)
    log_c = gammaln(n + 1) - gammaln(j) - gammaln(n - j + 1)  # log of j C(n, j)
    log_s = (-np.asarray(x, dtype=float) / scale)[..., None]
    sf = betainc(n - j + 1, j, np.exp(log_s)).mean(axis=-1)
    log_f = np.log(-np.expm1(log_s))
    pdf = np.exp(log_c + (j - 1) * log_f + (n - j + 1) * log_s).mean(axis=-1) / scale
    return sf, pdf


def reported_cqi_cdf(x, sys: SystemConfig, g: int):
    """CDF of the CQI a cluster-``g`` user reports for a covered subband."""
    return ReportedCqiLaw(sys.num_subbands(g), cluster_feedback_quota(sys, g)).cdf(x)


def variable_outage_over_estimate(sys: SystemConfig, imp: ImpairmentParams, beta: float,
                                  nodes: int) -> float:
    """Variable-rate outage under partial feedback, integrated over the scheduled estimate.

    The outage is the integral of the failure probability 1 - Q1(a, b),
    a = alpha_w * alpha * sqrt(x) and b = alpha_w * sqrt(beta x), against the
    density W * sum_g K_g p f_g / (1 - p S_g) of the scheduled estimated CQI,
    W = prod_g (1 - p S_g)^K_g, with (S_g, f_g) the reported-CQI law of
    ``reported_cqi_order_stats``.  For b < a the failure probability is the
    positive series exp(-(a - b)^2 / 2) sum_{k >= 1} (b/a)^k ive(k, ab), which
    neither cancels nor calls a Marcum-Q routine.  It decays like exp(-x/d),
    d = 2 / (alpha_w (alpha - sqrt(beta)))^2, so the panels double from d/64
    to 4096 d, each with ``nodes`` Gauss-Legendre nodes: the failure
    probability beyond is of order exp(-4096).
    """
    alpha = imp.delay_corr
    if not math.sqrt(beta) < alpha:
        raise ValueError("the series needs b < a, i.e. sqrt(beta) < alpha")
    d = 2.0 / (imp.alpha_w * (alpha - math.sqrt(beta))) ** 2
    edges = d * np.concatenate([[0.0], 2.0 ** np.arange(-6, 13)])
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)[:, None]
    x = ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half * t).ravel()
    weights = (half * w).ravel()
    a = imp.alpha_w * alpha * np.sqrt(x)
    b = imp.alpha_w * np.sqrt(beta * x)
    k = np.arange(1, 400)
    failure = np.exp(-0.5 * (a - b) ** 2) * (
        (b / a)[:, None] ** k * ive(k, (a * b)[:, None])
    ).sum(axis=1)
    p = sys.report_prob
    log_w = np.zeros_like(x)
    ratio = np.zeros_like(x)
    for g, cluster in enumerate(sys.clusters):
        sf, pdf = reported_cqi_order_stats(
            sys.num_subbands(g), cluster_feedback_quota(sys, g), imp.estimate_var, x
        )
        log_w += cluster.num_users * np.log1p(-p * sf)
        ratio += cluster.num_users * p * pdf / (1.0 - p * sf)
    return float(np.sum(weights * failure * np.exp(log_w) * ratio))


def subcarrier_correlation(pdp, n1: int, n2: int, num_subcarriers: int) -> complex:
    """Correlation between the gains at subcarriers n1 and n2."""
    pdp = np.asarray(pdp, dtype=float)
    l = np.arange(pdp.size)
    return complex(np.sum(pdp * np.exp(-2j * math.pi * l * (n2 - n1) / num_subcarriers)))


def conditional_pdf_actual(x: float, chi_hat: float, imp: ImpairmentParams) -> float:
    """Density of the actual CQI given the reported estimate ``chi_hat``.

    Noncentral-exponential law of |h_tilde|^2 given |h_hat|^2; evaluated
    through the scaled Bessel function so large arguments cannot overflow.
    """
    if x < 0 or chi_hat < 0:
        raise ValueError("CQI values must be nonnegative")
    aw2 = imp.alpha_w**2
    a = imp.delay_corr
    bessel_arg = aw2 * a * math.sqrt(chi_hat * x)
    exponent = -0.5 * aw2 * (math.sqrt(x) - a * math.sqrt(chi_hat)) ** 2
    return 0.5 * aw2 * bessel_i0e(bessel_arg) * math.exp(exponent)


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x!r}")
    return exp1(x)[()]


def bessel_i0(x):
    """Modified Bessel function I0(x) for x >= 0 (inf on overflow)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"bessel_i0 requires x >= 0, got {x!r}")
    return i0(x)[()]


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximum of the scalar ``f`` on [lo, hi], to a bracket ``tol`` wide."""
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def grid_bracket(f, hi: float, n: int) -> tuple[float, float]:
    """The grid neighbours of the best of ``n`` points on [0, hi], clipped to the grid."""
    xs = np.linspace(0.0, hi, n)
    idx = int(np.argmax([f(x) for x in xs]))
    return xs[max(idx - 1, 0)], xs[min(idx + 1, n - 1)]


def optimize_beta1_scalar(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """beta1* and the mean-value goodput there, one ``i3_jensen`` call per point."""
    k, snr = sys.num_users, sys.snr

    def f(b1: float) -> float:
        return goodput.i3_jensen(b1, k, imp, snr)

    lo, hi = grid_bracket(f, 1.0, 41)
    return golden_max(f, lo, hi, 1e-6)


def optimize_beta0_scalar(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """beta0* and the goodput there; each domain extension grids [0, hi] again.

    The rate factor is numpy's log1p over ln 2, as the library's, so that
    both searches compare the same objective values.
    """
    k, snr = sys.num_users, sys.snr

    def f(b0: float) -> float:
        return np.log1p(snr * b0) / math.log(2.0) * goodput.i2(b0, k, imp)

    hi = imp.estimate_var * (math.log(k) + 6.0)
    for _ in range(40):
        lo, hi_b = grid_bracket(f, hi, 65)
        if hi_b < hi:  # the bracket lies inside the domain
            break
        hi *= 1.6
    return golden_max(f, lo, hi_b, 1e-6 * max(hi, 1.0))
