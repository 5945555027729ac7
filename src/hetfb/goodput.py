"""Imperfect-feedback analytic engine.

Average goodput and outage probability under the fixed-rate and
variable-rate strategies, the mean-value (Jensen) and low-SNR bounds for
the variable-rate integral, and the optimization of the rate-adaptation
parameters beta0 / beta1.

The moment integrals over the scheduled estimated CQI follow the same
three-regime policy as the perfect-feedback engine: plain floats for
small orders, arbitrary precision once the alternating binomial weights
outgrow doubles, defining-integral quadrature beyond the series cap.
Partial-feedback metrics route through the per-feedback-set coefficient
expansion when it is numerically safe and otherwise through the stable
mixture-CDF quadrature.  Every quadrature integrand is array-valued: the
Marcum-Q factor is evaluated on all nodes of a refinement level at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from ._quad import QuadratureError, quad_checked
from .analytic import (
    ScheduledCqiMixture,
    _B_FLOAT_MAX,
    _B_SERIES_MAX,
    _metric_over_sets,
    _mp_dps,
    _route,
    _signed_binomials,
    coverage_prob,
)
from .channel import ImpairmentParams, SystemConfig
from .specfun import gauss_2f1, marcum_q1

__all__ = [
    "StrategyParams",
    "IntegralArgs",
    "QuadratureError",
    "i2",
    "i4",
    "i3_quadrature",
    "i3_upper_bound",
    "jensen_mean",
    "i3_jensen",
    "fixed_rate_metrics",
    "variable_rate_metrics",
    "optimize_beta0",
    "optimize_beta1",
]

_LN2 = math.log(2.0)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class StrategyParams:
    """Rate-adaptation parameters; set the one matching the strategy."""

    beta0: float | None = None  # fixed-rate CQI threshold
    beta1: float | None = None  # variable-rate backoff factor

    def __post_init__(self) -> None:
        if self.beta0 is not None and self.beta0 < 0:
            raise ValueError("beta0 must be nonnegative")
        if self.beta1 is not None and not 0.0 <= self.beta1 <= 1.0:
            raise ValueError("beta1 must lie in [0, 1]")


@dataclass(frozen=True)
class IntegralArgs:
    """Shared symbols of the imperfect-feedback moment integrals.

    Built for a threshold ``a`` and expansion order ``b``; the
    hypergeometric argument 4*varpi^2*vartheta^2/phi^2 stays strictly
    below one because every zeta term is positive.
    """

    varpi: float
    vartheta: float
    zeta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    varsigma: np.ndarray

    @classmethod
    def build(cls, a: float, b: int, imp: ImpairmentParams) -> "IntegralArgs":
        if a < 0:
            raise ValueError("threshold must be nonnegative")
        if b < 1:
            raise ValueError("order must be a positive integer")
        aw = imp.alpha_w
        varpi = aw * imp.delay_corr
        vartheta = aw * math.sqrt(a)
        ell = np.arange(b)
        zeta = 2.0 * (ell + 1) / imp.estimate_var
        phi = varpi**2 + vartheta**2 + zeta
        psi = varpi**2 - vartheta**2 + zeta
        # phi^2 - 4 varpi^2 vartheta^2 in product form (no cancellation)
        varsigma = np.sqrt(((varpi - vartheta) ** 2 + zeta) * ((varpi + vartheta) ** 2 + zeta))
        args = cls(varpi, vartheta, zeta, phi, psi, varsigma)
        hyp = 4.0 * varpi**2 * vartheta**2 / phi**2
        if np.any(hyp >= 1.0):
            raise ValueError("hypergeometric argument left [0, 1); invalid parameters")
        return args

    @property
    def hyp_args(self) -> np.ndarray:
        return 4.0 * self.varpi**2 * self.vartheta**2 / self.phi**2


def _estimated_cqi_density_weights(b: int, v: float):
    """d(F(x)^b) = b * F^{b-1} f dx for F the exponential CDF with mean v."""

    def density(x: np.ndarray) -> np.ndarray:
        log_sf = -x / v
        return b * np.exp((b - 1) * np.log(-np.expm1(log_sf)) + log_sf) / v

    return density


def _order_x_max(b: int, v: float) -> float:
    return v * (math.log(max(b, 2)) + 45.0)


def _order_points(b: int, v: float) -> list[float]:
    return [v * math.log(max(b, 2)), v * (math.log(max(b, 2)) + 4.0)]


# ---------------------------------------------------------------------------
# I2: fixed-rate success probability
# ---------------------------------------------------------------------------


def i2(a: float, b: int, imp: ImpairmentParams) -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(a))] for X the max of b estimates.

    Success probability of the fixed-rate strategy against threshold
    ``a`` when the scheduled estimate is the largest of ``b`` i.i.d.
    estimated CQIs.
    """
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    if a == 0:
        return 1.0
    if b <= _B_FLOAT_MAX:
        return _i2_float(a, b, imp)
    if b <= _B_SERIES_MAX:
        return _i2_mp(a, b, imp)
    return _i2_quad(a, b, imp)


def _i2_float(a: float, b: int, imp: ImpairmentParams) -> float:
    args = IntegralArgs.build(a, b, imp)
    v = imp.estimate_var
    w2, t2 = args.varpi**2, args.vartheta**2
    z = args.zeta
    c = w2 + z
    bracket = math.exp(-0.5 * t2) + np.exp(-0.5 * z * t2 / c) * -np.expm1(-0.5 * w2 * t2 / c)
    return min(max(2.0 * b / v * math.fsum(_signed_binomials(b) * bracket / z), 0.0), 1.0)


def _i2_mp(a: float, b: int, imp: ImpairmentParams) -> float:
    with mp.workdps(_mp_dps(b)):
        v = mp.mpf(imp.estimate_var)
        w2 = (mp.mpf(imp.alpha_w) * imp.delay_corr) ** 2
        t2 = mp.mpf(imp.alpha_w) ** 2 * a
        total = mp.mpf(0)
        for l in range(b):
            z = 2 * (l + 1) / v
            c = w2 + z
            bracket = mp.exp(-t2 / 2) + mp.exp(-z * t2 / (2 * c)) * (
                -mp.expm1(-w2 * t2 / (2 * c))
            )
            term = mp.binomial(b - 1, l) * bracket / z
            total += term if l % 2 == 0 else -term
        return float(min(max(2 * b / v * total, mp.mpf(0)), mp.mpf(1)))


def _i2_quad(a: float, b: int, imp: ImpairmentParams) -> float:
    v = imp.estimate_var
    varpi = imp.alpha_w * imp.delay_corr
    vth = imp.alpha_w * math.sqrt(a)
    dens = _estimated_cqi_density_weights(b, v)
    val = quad_checked(
        lambda x: marcum_q1(varpi * np.sqrt(x), vth) * dens(x),
        0.0,
        _order_x_max(b, v),
        points=_order_points(b, v),
    )
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# I4: variable-rate success probability
# ---------------------------------------------------------------------------


def i4(a: float, b: int, imp: ImpairmentParams) -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(a X))]; backoff success probability."""
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    if a == 0:
        return 1.0
    if b <= _B_FLOAT_MAX:
        return _i4_float(a, b, imp)
    if b <= _B_SERIES_MAX:
        return _i4_mp(a, b, imp)
    return _i4_quad(a, b, imp)


def _i4_float(a: float, b: int, imp: ImpairmentParams) -> float:
    args = IntegralArgs.build(a, b, imp)
    v = imp.estimate_var
    terms = _signed_binomials(b) / args.zeta * (1.0 + args.psi / args.varsigma)
    return min(max(b / v * math.fsum(terms), 0.0), 1.0)


def _i4_mp(a: float, b: int, imp: ImpairmentParams) -> float:
    with mp.workdps(_mp_dps(b)):
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
        return float(min(max(b / v * total, mp.mpf(0)), mp.mpf(1)))


def _i4_quad(a: float, b: int, imp: ImpairmentParams) -> float:
    v = imp.estimate_var
    varpi = imp.alpha_w * imp.delay_corr
    aw = imp.alpha_w
    dens = _estimated_cqi_density_weights(b, v)
    val = quad_checked(
        lambda x: marcum_q1(varpi * np.sqrt(x), aw * np.sqrt(a * x)) * dens(x),
        0.0,
        _order_x_max(b, v),
        points=_order_points(b, v),
    )
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# I3: variable-rate goodput integral (quadrature, bound, approximation)
# ---------------------------------------------------------------------------


def i3_quadrature(a: float, b: int, imp: ImpairmentParams, snr: float, scheme: str = "x") -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(aX)) * log2(1 + snr*a*X)] by quadrature.

    Reference evaluation of the variable-rate goodput integral; no closed
    form exists.  ``scheme`` picks one of two independent parameterizations
    ("x": threshold domain, "u": probability domain) used to cross-check
    each other.
    """
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    if a == 0.0:
        return 0.0
    v = imp.estimate_var
    varpi = imp.alpha_w * imp.delay_corr
    aw = imp.alpha_w

    def value_at(x: np.ndarray) -> np.ndarray:
        return marcum_q1(varpi * np.sqrt(x), aw * np.sqrt(a * x)) * np.log2(1.0 + snr * a * x)

    if scheme == "x":
        dens = _estimated_cqi_density_weights(b, v)
        return quad_checked(
            lambda x: value_at(x) * dens(x),
            0.0,
            _order_x_max(b, v),
            points=_order_points(b, v),
        )
    if scheme == "u":
        # x(u) = F^{-1}(u^{1/b}); the integrand picks up a mild log
        # singularity at u=1 that the adaptive rule resolves.
        def integrand(u: np.ndarray) -> np.ndarray:
            inside = (u > 0.0) & (u < 1.0)
            out = np.zeros(u.shape)
            out[inside] = value_at(-v * np.log(-np.expm1(np.log(u[inside]) / b)))
            return out

        return quad_checked(integrand, 0.0, 1.0, limit=400, abs_fail=1e-6)
    raise ValueError(f"unknown scheme {scheme!r}")


def i3_upper_bound(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """Low-SNR closed-form upper bound on the variable-rate goodput integral.

    Linearizes the log inside the goodput integral; tight as snr -> 0.
    """
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    if a == 0.0:
        return 0.0
    if b <= _B_FLOAT_MAX:
        return _i3_ub_float(a, b, imp, snr)
    if b <= _B_SERIES_MAX:
        return _i3_ub_mp(a, b, imp, snr)
    return _i3_ub_quad(a, b, imp, snr)


def _i3_ub_bracket(w2, t2, z, phi, f1, f2, f3, f4):
    return 1 + (t2 / phi) * (
        (w2 / phi) * f1 - f2 + (2 * z / phi) * ((w2 / phi) * f3 - 0.5 * f4)
    )


def _i3_ub_float(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    args = IntegralArgs.build(a, b, imp)
    v = imp.estimate_var
    w2, t2 = args.varpi**2, args.vartheta**2
    hyp = args.hyp_args
    bracket = _i3_ub_bracket(
        w2,
        t2,
        args.zeta,
        args.phi,
        gauss_2f1(1.0, 1.5, 2.0, hyp),
        gauss_2f1(0.5, 1.0, 1.0, hyp),
        gauss_2f1(1.5, 2.0, 2.0, hyp),
        gauss_2f1(1.0, 1.5, 1.0, hyp),
    )
    terms = _signed_binomials(b) * bracket / args.zeta**2
    return 4.0 * snr * a * b / (v * _LN2) * math.fsum(terms)


def _i3_ub_mp(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    with mp.workdps(_mp_dps(b)):
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


def _i3_ub_quad(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    # defining integral of the bound: log linearized to snr*a*x
    v = imp.estimate_var
    varpi = imp.alpha_w * imp.delay_corr
    aw = imp.alpha_w
    dens = _estimated_cqi_density_weights(b, v)
    return quad_checked(
        lambda x: snr * a * x / _LN2 * marcum_q1(varpi * np.sqrt(x), aw * np.sqrt(a * x))
        * dens(x),
        0.0,
        _order_x_max(b, v),
        points=_order_points(b, v),
    )


def jensen_mean(b: int, imp: ImpairmentParams) -> float:
    """Mean of the largest of b estimated CQIs: (1-sigma_w^2) * H_b."""
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    return imp.estimate_var * math.fsum(1.0 / j for j in range(1, b + 1))


def i3_jensen(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """Mean-value approximation of the variable-rate goodput integral."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    mean = jensen_mean(b, imp)
    q = marcum_q1(
        imp.alpha_w * imp.delay_corr * math.sqrt(mean), imp.alpha_w * math.sqrt(a * mean)
    )
    return q * math.log2(1.0 + snr * a * mean)


# ---------------------------------------------------------------------------
# Goodput / outage metrics under partial feedback
# ---------------------------------------------------------------------------


def fixed_rate_metrics(
    sys: SystemConfig, imp: ImpairmentParams, beta0: float, method: str = "auto"
) -> tuple[float, float]:
    """Average goodput and outage probability of the fixed-rate strategy.

    The outage probability is the unconditioned probability that a block
    is scheduled and its transmission fails (blocks nobody reported are
    excluded from the outage event, not renormalized).
    """
    if beta0 < 0:
        raise ValueError("beta0 must be nonnegative")
    rho = sys.snr
    rate = math.log2(1.0 + rho * beta0)
    if beta0 == 0.0:
        return 0.0, 0.0
    if sys.best_m == sys.m_full:
        success = i2(beta0, sys.num_users, imp)
        return rate * success, 1.0 - success
    if _route(sys, method) == "coefficients":
        success = _metric_over_sets(sys, lambda b: i2(beta0, b, imp))
    else:
        mix = ScheduledCqiMixture(sys, scale=imp.estimate_var)
        varpi = imp.alpha_w * imp.delay_corr
        vth = imp.alpha_w * math.sqrt(beta0)
        success = mix.expect(lambda x: marcum_q1(varpi * np.sqrt(x), vth))
    return rate * success, coverage_prob(sys) - success


def variable_rate_metrics(
    sys: SystemConfig,
    imp: ImpairmentParams,
    beta1: float,
    method: str = "auto",
    fast: bool = False,
) -> tuple[float, float]:
    """Average goodput and outage probability of the variable-rate strategy.

    ``fast`` replaces the per-order goodput quadrature with the mean-value
    approximation on the coefficient route; outage is always closed form.
    """
    if not 0.0 <= beta1 <= 1.0:
        raise ValueError("beta1 must lie in [0, 1]")
    rho = sys.snr
    if beta1 == 0.0:
        return 0.0, 0.0
    goodput_term = (
        (lambda b: i3_jensen(beta1, b, imp, rho))
        if fast
        else (lambda b: i3_quadrature(beta1, b, imp, rho))
    )
    if sys.best_m == sys.m_full:
        k = sys.num_users
        return goodput_term(k), 1.0 - i4(beta1, k, imp)
    if _route(sys, method) == "coefficients":
        goodput = _metric_over_sets(sys, goodput_term)
        success = _metric_over_sets(sys, lambda b: i4(beta1, b, imp))
    else:
        mix = ScheduledCqiMixture(sys, scale=imp.estimate_var)
        varpi = imp.alpha_w * imp.delay_corr
        aw = imp.alpha_w

        def q1_at(x: np.ndarray) -> np.ndarray:
            return marcum_q1(varpi * np.sqrt(x), aw * np.sqrt(beta1 * x))

        goodput = mix.expect(lambda x: q1_at(x) * np.log2(1.0 + rho * beta1 * x))
        success = mix.expect(q1_at)
    return goodput, coverage_prob(sys) - success


# ---------------------------------------------------------------------------
# Optimization of the rate-adaptation parameters
# ---------------------------------------------------------------------------


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
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


def _refine_newton(f, x: float, lo: float, hi: float, steps: int = 3) -> tuple[float, float]:
    """A few guarded central-difference Newton steps on a smooth maximizer."""
    h = 1e-5 * max(hi - lo, 1.0)
    best_x, best_f = x, f(x)
    for _ in range(steps):
        f0, fp, fm = f(x), f(x + h), f(x - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / (h * h)
        if d2 >= 0:
            break
        step = d1 / d2
        x = min(max(x - step, lo), hi)
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
        if abs(step) < 1e-9:
            break
    return best_x, best_f


def _grid_bracket(f, lo: float, hi: float, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(x) for x in xs])
    return int(np.argmax(vals)), xs, vals


def optimize_beta1(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """Backoff maximizing the full-feedback mean-value goodput at ``sys.snr``.

    Optimizes over [0, 1] by a coarse bracket plus golden-section search
    (a derivative refinement polishes the result).  Returns (beta1*,
    goodput approximation at the optimum).  The matched feedback amount M*
    does not depend on the impairments: callers take it once per system
    from ``minimum_best_m(sys, gamma).exact``.
    """
    k, snr = sys.num_users, sys.snr

    def f(b1: float) -> float:
        return i3_jensen(b1, k, imp, snr)

    idx, xs, _ = _grid_bracket(f, 0.0, 1.0, 41)
    lo = xs[max(idx - 1, 0)]
    hi = xs[min(idx + 1, xs.size - 1)]
    x, _ = _golden_max(f, lo, hi, 1e-6)
    return _refine_newton(f, x, 0.0, 1.0)


def optimize_beta0(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """Threshold maximizing the full-feedback fixed-rate goodput at ``sys.snr``.

    The search domain starts at (1-sigma_w^2)*(ln K + 6), where the max
    of K estimates concentrates, and extends geometrically while the
    maximizer sits at the boundary; a coarse grid brackets the optimum
    before refinement because unimodality is not guaranteed.
    """
    k, snr = sys.num_users, sys.snr

    def f(b0: float) -> float:
        return math.log2(1.0 + snr * b0) * i2(b0, k, imp)

    hi = imp.estimate_var * (math.log(k) + 6.0)
    for _ in range(40):
        idx, xs, _ = _grid_bracket(f, 0.0, hi, 65)
        if idx < xs.size - 2:
            break
        hi *= 1.6
    lo_b = xs[max(idx - 1, 0)]
    hi_b = xs[min(idx + 1, xs.size - 1)]
    x, fx = _golden_max(f, lo_b, hi_b, 1e-6 * max(hi, 1.0))
    x, fx = _refine_newton(f, x, 0.0, hi)
    return x, fx
