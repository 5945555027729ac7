"""Imperfect-feedback analytic engine.

Average goodput and outage probability under the fixed-rate and
variable-rate strategies, the mean-value (Jensen) and low-SNR bounds for
the variable-rate integral, and the optimization of the rate-adaptation
parameters beta0 / beta1.

The moment integrals I2, I4 and the I3 bound over the scheduled estimated
CQI go through ``analytic._order_moment``, as I1 does: each gives its
integrand and the integrand's closed-form expectation over one exponential,
and the helper picks the mixture sum or quadrature by order.  Near perfect
feedback the Marcum-Q arguments grow like 1/sqrt(est_error_var);
``marcum_q1`` switches to Gauss-Hermite quadrature there, so both stay
cheap and finite.  Full feedback uses these order-statistic integrals directly;
partial-feedback metrics integrate the same conditional success and rate
against the scheduled estimated-CQI mixture, the one route of
``analytic``.  Every quadrature integrand is array-valued: the Marcum-Q
factor is evaluated on all nodes of a refinement level at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# quad_checked stays bound here: perfbench/selftest.py checks its tracing in this module
from ._quad import QuadratureError, quad_checked  # noqa: F401
from .analytic import ScheduledCqiMixture, _order_expect, _order_moment, coverage_prob
from .channel import ImpairmentParams, SystemConfig
from .specfun import gauss_2f1, marcum_q1

__all__ = [
    "StrategyParams",
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
    """Rate-adaptation parameters of one strategy: exactly one of beta0/beta1."""

    beta0: float | None = None  # fixed-rate CQI threshold
    beta1: float | None = None  # variable-rate backoff factor

    def __post_init__(self) -> None:
        if (self.beta0 is None) == (self.beta1 is None):
            raise ValueError("set exactly one of beta0/beta1")
        if self.beta0 is not None and not 0.0 <= self.beta0 < math.inf:
            raise ValueError("beta0 must be finite and nonnegative")
        if self.beta1 is not None and not 0.0 <= self.beta1 <= 1.0:
            raise ValueError("beta1 must lie in [0, 1]")


# ---------------------------------------------------------------------------
# I2: fixed-rate success probability
# ---------------------------------------------------------------------------


def i2(a: float, b: int, imp: ImpairmentParams) -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(a))] for X the max of b estimates.

    Success probability of the fixed-rate strategy against threshold
    ``a`` when the scheduled estimate is the largest of ``b`` i.i.d.
    estimated CQIs.
    """
    if a < 0:
        raise ValueError("threshold must be nonnegative")
    if a == 0:
        return 1.0
    varpi, vartheta = _marcum_args(a, imp)
    w2, t2 = varpi**2, vartheta**2

    def closed_form(mean: np.ndarray) -> np.ndarray:
        z = 2.0 / mean
        c = w2 + z
        return math.exp(-0.5 * t2) + np.exp(-0.5 * z * t2 / c) * -np.expm1(-0.5 * w2 * t2 / c)

    val = _order_moment(closed_form, _threshold_q1(a, imp), b, imp.estimate_var)
    return min(max(val, 0.0), 1.0)


def _marcum_args(a: float, imp: ImpairmentParams) -> tuple[float, float]:
    """(varpi, vartheta) = alpha_w * (alpha, sqrt(a)): the Q1 arguments at unit CQI."""
    return imp.alpha_w * imp.delay_corr, imp.alpha_w * math.sqrt(a)


def _threshold_q1(a: float, imp: ImpairmentParams):
    """x -> Q1(varpi*sqrt(x), alpha_w*sqrt(a)), the fixed-rate success given estimate x."""
    varpi, vth = _marcum_args(a, imp)
    return lambda x: marcum_q1(varpi * np.sqrt(x), vth)


# ---------------------------------------------------------------------------
# I4: variable-rate success probability
# ---------------------------------------------------------------------------


def i4(a: float, b: int, imp: ImpairmentParams) -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(a X))]; backoff success probability."""
    if a < 0:
        raise ValueError("backoff must be nonnegative")
    if a == 0:
        return 1.0
    varpi, vartheta = _marcum_args(a, imp)

    def closed_form(mean: np.ndarray) -> np.ndarray:
        z = 2.0 / mean
        # sqrt(phi^2 - 4 varpi^2 vartheta^2) in product form (no cancellation)
        varsigma = np.sqrt(((varpi - vartheta) ** 2 + z) * ((varpi + vartheta) ** 2 + z))
        return 0.5 * (1.0 + (varpi**2 - vartheta**2 + z) / varsigma)

    val = _order_moment(closed_form, _backoff_q1(a, imp), b, imp.estimate_var)
    return min(max(val, 0.0), 1.0)


def _backoff_q1(a: float, imp: ImpairmentParams):
    """x -> Q1(varpi*sqrt(x), alpha_w*sqrt(a x)), the backoff success given estimate x."""
    varpi = imp.alpha_w * imp.delay_corr
    aw = imp.alpha_w
    return lambda x: marcum_q1(varpi * np.sqrt(x), aw * np.sqrt(a * x))


# ---------------------------------------------------------------------------
# I3: variable-rate goodput integral (quadrature, bound, approximation)
# ---------------------------------------------------------------------------


def i3_quadrature(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(aX)) * log2(1 + snr*a*X)] by quadrature.

    Reference evaluation of the variable-rate goodput integral; no closed
    form exists.
    """
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    if a == 0.0:
        return 0.0
    q1_at = _backoff_q1(a, imp)
    return _order_expect(lambda x: q1_at(x) * np.log2(1.0 + snr * a * x), b, imp.estimate_var)


# (a, b, c) of the four 2F1 factors of the I3 bound, in ``_i3_ub_bracket`` order
_I3_UB_2F1 = ((1.0, 1.5, 2.0), (0.5, 1.0, 1.0), (1.5, 2.0, 2.0), (1.0, 1.5, 1.0))


def i3_upper_bound(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """Low-SNR closed-form upper bound on the variable-rate goodput integral.

    Linearizes the log inside the goodput integral; tight as snr -> 0.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    if a == 0.0:
        return 0.0
    varpi, vartheta = _marcum_args(a, imp)
    w2, t2 = varpi**2, vartheta**2

    def closed_form(mean: np.ndarray) -> np.ndarray:
        z = 2.0 / mean
        phi = w2 + t2 + z
        # 4 varpi^2 vartheta^2 / phi^2 < 1: phi^2 - 4 varpi^2 vartheta^2 > 0 as z > 0
        hyp = 4.0 * w2 * t2 / phi**2
        f = [gauss_2f1(p, q, r, hyp) for p, q, r in _I3_UB_2F1]
        return snr * a * mean / _LN2 * _i3_ub_bracket(w2, t2, z, phi, *f)

    q1_at = _backoff_q1(a, imp)
    return _order_moment(
        closed_form, lambda x: snr * a * x / _LN2 * q1_at(x), b, imp.estimate_var
    )


def _i3_ub_bracket(w2, t2, z, phi, f1, f2, f3, f4):
    return 1 + (t2 / phi) * (
        (w2 / phi) * f1 - f2 + (2 * z / phi) * ((w2 / phi) * f3 - 0.5 * f4)
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
    return _backoff_q1(a, imp)(mean) * math.log2(1.0 + snr * a * mean)


# ---------------------------------------------------------------------------
# Goodput / outage metrics under partial feedback
# ---------------------------------------------------------------------------


def fixed_rate_metrics(
    sys: SystemConfig, imp: ImpairmentParams, beta0: float
) -> tuple[float, float]:
    """Average goodput and outage probability of the fixed-rate strategy.

    The outage probability is the unconditioned probability that a block
    is scheduled and its transmission fails (blocks nobody reported are
    excluded from the outage event, not renormalized).
    """
    if not 0.0 <= beta0 < math.inf:
        raise ValueError("beta0 must be finite and nonnegative")
    rho = sys.snr
    rate = math.log2(1.0 + rho * beta0)
    if beta0 == 0.0:
        return 0.0, 0.0
    if sys.best_m == sys.m_full:
        success = i2(beta0, sys.num_users, imp)
        return rate * success, 1.0 - success
    mix = ScheduledCqiMixture(sys, scale=imp.estimate_var)
    success = mix.expect(_threshold_q1(beta0, imp))
    return rate * success, coverage_prob(sys) - success


def variable_rate_metrics(
    sys: SystemConfig, imp: ImpairmentParams, beta1: float
) -> tuple[float, float]:
    """Average goodput and outage probability of the variable-rate strategy."""
    if not 0.0 <= beta1 <= 1.0:
        raise ValueError("beta1 must lie in [0, 1]")
    rho = sys.snr
    if beta1 == 0.0:
        return 0.0, 0.0
    if sys.best_m == sys.m_full:
        k = sys.num_users
        return i3_quadrature(beta1, k, imp, rho), 1.0 - i4(beta1, k, imp)
    mix = ScheduledCqiMixture(sys, scale=imp.estimate_var)
    q1_at = _backoff_q1(beta1, imp)
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


def _grid_bracket(f, hi: float, n: int) -> tuple[float, float]:
    """The grid neighbours of the best of ``n`` points on [0, hi], clipped to the grid."""
    xs = np.linspace(0.0, hi, n)
    idx = int(np.argmax([f(x) for x in xs]))
    return xs[max(idx - 1, 0)], xs[min(idx + 1, n - 1)]


def optimize_beta1(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """Backoff maximizing the full-feedback mean-value goodput at ``sys.snr``.

    Optimizes over [0, 1] by a coarse grid bracket, then golden-section
    search.  Returns (beta1*, goodput approximation at the optimum).  The
    matched feedback amount M* does not depend on the impairments: callers
    take it once per system from ``minimum_best_m(sys, gamma).exact``.
    """
    k, snr = sys.num_users, sys.snr

    def f(b1: float) -> float:
        return i3_jensen(b1, k, imp, snr)

    lo, hi = _grid_bracket(f, 1.0, 41)
    return _golden_max(f, lo, hi, 1e-6)


def optimize_beta0(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """Threshold maximizing the full-feedback fixed-rate goodput at ``sys.snr``.

    The search domain starts at (1-sigma_w^2)*(ln K + 6), where the max
    of K estimates concentrates, and extends geometrically while the
    maximizer sits at the boundary; a coarse grid brackets the optimum
    before golden-section search because unimodality is not guaranteed.
    """
    k, snr = sys.num_users, sys.snr

    def f(b0: float) -> float:
        return math.log2(1.0 + snr * b0) * i2(b0, k, imp)

    hi = imp.estimate_var * (math.log(k) + 6.0)
    for _ in range(40):
        lo, hi_b = _grid_bracket(f, hi, 65)
        if hi_b < hi:  # the bracket lies inside the domain
            break
        hi *= 1.6
    return _golden_max(f, lo, hi_b, 1e-6 * max(hi, 1.0))
