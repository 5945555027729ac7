"""Closed-form perfect-feedback engine.

Distribution of the scheduled CQI under heterogeneous best-M feedback, the
average sum rate, and the smallest feedback amount reaching a target
fraction of the full-feedback rate.

Partial-feedback metrics have one evaluation route: the metric is integrated
by vectorized quadrature against the unconditioned scheduled-CQI law
(``ScheduledCqiMixture``).  Its per-cluster reported-CQI law
(``ReportedCqiLaw``) takes two regularized incomplete beta functions at any
quota, on a whole array of abscissae at once, and is stable at any size.
The paper's closed form instead sums, over feedback sets, selection
coefficients that expand the conditional CDF of the scheduled CQI into
powers of the base CDF.  Those coefficients alternate and grow
combinatorially, so summed in floats they lose digits; they are built here
in exact rational arithmetic (``selection_coefficients``,
``feedback_set_pmf``) as tables, and the tests sum them exactly as the
reference for the mixture route.

The order-statistic moment integrals (I1 here, I2, I4 and the I3 bound in
``goodput``) are expectations over the maximum of b i.i.d. exponentials, a
signed mixture of b exponentials.  Each passes one helper,
``_order_moment``, its integrand and that integrand's closed-form
expectation over one exponential, with their parameters as arrays that
broadcast: the helper sums the mixture up to order 20, one block of
elements at a time, and integrates the integrand by quadrature
(``_order_expect``) at each element beyond.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import betainc

from ._quad import quad_checked
from .channel import SystemConfig, cluster_feedback_quota
from .specfun import exp_integral_e1_scaled

__all__ = [
    "CoefficientTable",
    "FeedbackSetDistribution",
    "MinimumBestM",
    "ReportedCqiLaw",
    "ScheduledCqiMixture",
    "selection_coefficients",
    "feedback_set_pmf",
    "i1",
    "average_sum_rate",
    "minimum_best_m",
    "coverage_prob",
]

_LN2 = math.log(2.0)

# ``_order_moment`` sums its signed mixture in floats up to this order;
# beyond it the binomial scale ~2^b eats the double-precision digits.
_B_FLOAT_MAX = 20
# Bytes of one (elements, order) array of mixture terms: ``_order_moment``
# sums a block of elements at a time, so a whole grid adds little to the
# peak memory.
_BLOCK_BYTES = 64 * 1024


@functools.lru_cache(maxsize=None)
def _signed_binomials(b: int) -> np.ndarray:
    """(-1)^l * C(b-1, l) for l < b: the weights of the closed-form order sums."""
    out = np.array([(-1) ** l * math.comb(b - 1, l) for l in range(b)], dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Selection coefficients (exact rational arithmetic)
# ---------------------------------------------------------------------------


def _xi_exact(num_subbands: int, quota: int) -> list[Fraction]:
    s, mp_ = num_subbands, quota
    out = []
    for m in range(mp_):
        acc = Fraction(0)
        for i in range(m, mp_):
            acc += (
                Fraction(mp_ - i, mp_)
                * math.comb(s, i)
                * math.comb(i, m)
                * (-1) ** (i - m)
            )
        out.append(acc)
    return out


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_power_bruteforce(coeffs: list[Fraction], exponent: int) -> list[Fraction]:
    """Repeated convolution; reference for the recursive form."""
    out = [Fraction(1)]
    for _ in range(exponent):
        out = _poly_mul(out, coeffs)
    return out


def _poly_power_recursive(coeffs: list[Fraction], exponent: int) -> list[Fraction]:
    """Coefficients of (sum_m coeffs[m] y^m)^exponent by the power recursion.

    Requires a nonzero constant term; callers fall back to brute-force
    convolution when coeffs[0] == 0 (e.g. a fully reporting cluster).
    """
    mp_ = len(coeffs)
    top = exponent * (mp_ - 1)
    lam = [Fraction(0)] * (top + 1)
    lam[0] = coeffs[0] ** exponent
    for m in range(1, top):
        acc = Fraction(0)
        for l in range(1, min(m, mp_ - 1) + 1):
            acc += ((exponent + 1) * l - m) * coeffs[l] * lam[m - l]
        lam[m] = acc / (m * coeffs[0])
    if top >= 1:
        lam[top] = coeffs[mp_ - 1] ** exponent
    return lam


def _lambda_exact(coeffs: list[Fraction], exponent: int) -> list[Fraction]:
    if exponent == 0:
        return [Fraction(1)]
    if coeffs[0] == 0:
        return _poly_power_bruteforce(coeffs, exponent)
    return _poly_power_recursive(coeffs, exponent)


@dataclass(frozen=True)
class CoefficientTable:
    """Selection coefficients of the scheduled-CQI CDF for one feedback set.

    Conditioned on ``tau`` (reporting users per cluster), the scheduled
    CQI has CDF ``sum_m theta[m] * F(x)**(b_total - m)`` where
    ``b_total = sum_g num_subbands(g) * tau[g]``.  The exact rational
    values are kept alongside the float ``theta``.
    """

    tau: tuple[int, ...]
    theta: np.ndarray
    b_total: int
    theta_exact: tuple[Fraction, ...]


def selection_coefficients(sys: SystemConfig, tau) -> CoefficientTable:
    """Build the coefficient table for feedback-set vector ``tau``."""
    tau = tuple(int(t) for t in tau)
    if len(tau) != sys.num_clusters:
        raise ValueError("tau must have one entry per cluster")
    if all(t == 0 for t in tau):
        raise ValueError("tau must contain at least one reporting user")
    for g, t in enumerate(tau):
        if not 0 <= t <= sys.clusters[g].num_users:
            raise ValueError(f"tau[{g}]={t} outside [0, {sys.clusters[g].num_users}]")

    theta = [Fraction(1)]
    b_total = 0
    for g, t in enumerate(tau):
        xi_g = _xi_exact(sys.num_subbands(g), cluster_feedback_quota(sys, g))
        theta = _poly_mul(theta, _lambda_exact(xi_g, t))
        b_total += sys.num_subbands(g) * t
    return CoefficientTable(
        tau=tau,
        theta=np.array([float(x) for x in theta]),
        b_total=b_total,
        theta_exact=tuple(theta),
    )


# ---------------------------------------------------------------------------
# Feedback-set distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackSetDistribution:
    """Law of the per-block reporting-user counts (one entry per cluster)."""

    counts: tuple[int, ...]
    report_prob: Fraction

    def probability_exact(self, tau) -> Fraction:
        tau = tuple(int(t) for t in tau)
        p = self.report_prob
        total = sum(tau)
        prob = p**total * (1 - p) ** (sum(self.counts) - total)
        for k, t in zip(self.counts, tau):
            if not 0 <= t <= k:
                return Fraction(0)
            prob *= math.comb(k, t)
        return prob

    def probability(self, tau) -> float:
        return float(self.probability_exact(tau))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], float]]:
        for tau in itertools.product(*(range(k + 1) for k in self.counts)):
            yield tau, self.probability(tau)


def feedback_set_pmf(sys: SystemConfig) -> FeedbackSetDistribution:
    """Per-block PMF of how many users of each cluster reported the block."""
    p = Fraction(sys.eta_max * sys.best_m, sys.num_rbs)
    return FeedbackSetDistribution(
        counts=tuple(c.num_users for c in sys.clusters), report_prob=p
    )


def coverage_prob(sys: SystemConfig) -> float:
    """Probability that at least one user reports a given block."""
    p = Fraction(sys.eta_max * sys.best_m, sys.num_rbs)
    return float(1 - (1 - p) ** sys.num_users)


# ---------------------------------------------------------------------------
# Stable pointwise laws (incomplete-beta form)
# ---------------------------------------------------------------------------


class ReportedCqiLaw:
    """Reported-CQI law of one cluster, in closed form.

    A user reporting a subband shows one of its ``quota`` largest CQI
    values, uniformly, out of ``num_subbands`` i.i.d. exponential CQIs with
    mean ``scale``.  With S the base survival at x and N ~ Bin(n, S) the
    number of CQIs above x (n = ``num_subbands``, q = ``quota``), the
    survival is E[min(q, N)] / q = (n/q) S I_F(n-q, q) + I_S(q+1, n-q),
    F = 1 - S and I the regularized incomplete beta function, and the
    density is (n/q) (S/scale) I_F(n-q, q).  Both are sums of nonnegative
    terms, stable at any size; a cluster reporting every subband (q = n)
    is the base exponential itself.  ``cdf``, ``sf`` and ``pdf`` take a
    scalar or an array.
    """

    def __init__(self, num_subbands: int, quota: int, scale: float = 1.0):
        if not 1 <= quota <= num_subbands:
            raise ValueError("quota must lie in [1, num_subbands]")
        self.num_subbands = num_subbands
        self.quota = quota
        self.scale = scale

    def _within_quota(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x as an array, S, E[N; N <= q] / q = (n/q) S I_F(n-q, q)) at max(x, 0)."""
        x = np.asarray(x, dtype=float)
        t = np.maximum(x, 0.0) / self.scale
        s = np.exp(-t)
        n, q = self.num_subbands, self.quota
        if q == n:
            return x, s, s
        return x, s, n / q * s * betainc(n - q, q, -np.expm1(-t))

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def _sf(self, s: np.ndarray, within: np.ndarray) -> np.ndarray:
        n, q = self.num_subbands, self.quota
        return within + betainc(q + 1, n - q, s) if q < n else within

    def sf(self, x):
        _, s, within = self._within_quota(x)
        return self._sf(s, within)[()]

    def pdf(self, x):
        return self.sf_pdf(x)[1]

    def sf_pdf(self, x):
        """(sf, pdf) at x, sharing one evaluation of the I_F(n-q, q) term."""
        x, s, within = self._within_quota(x)
        return self._sf(s, within)[()], np.where(x <= 0, 0.0, within / self.scale)[()]


class ScheduledCqiMixture:
    """Unconditioned law of the scheduled CQI, mixed over feedback sets.

    ``cdf`` carries an atom of mass (1-p)^K at zero (blocks nobody
    reported); metric integrals run over the continuous part only, which
    matches summing the per-feedback-set expansion over nonempty sets.
    ``scale`` is the mean of the base exponential CQI (1 for perfect
    feedback, 1 - est_error_var for the estimated CQI).  ``cdf``, ``sf``
    and ``pdf`` take a scalar or an array.
    """

    def __init__(self, sys: SystemConfig, scale: float = 1.0):
        self.sys = sys
        self.scale = scale
        self.p = sys.report_prob
        self.laws = [
            ReportedCqiLaw(sys.num_subbands(g), cluster_feedback_quota(sys, g), scale)
            for g in range(sys.num_clusters)
        ]
        self.counts = [c.num_users for c in sys.clusters]

    def cdf(self, x):
        return np.exp(self._log_cdf(x))[()]

    def sf(self, x):
        return (-np.expm1(self._log_cdf(x)))[()]

    def _log_terms(self, x) -> list[np.ndarray]:
        """log P(a given cluster-g user does not report above x), per cluster."""
        return [np.log1p(-self.p * law.sf(x)) for law in self.laws]

    def _log_cdf(self, x) -> np.ndarray:
        return sum(k * q for k, q in zip(self.counts, self._log_terms(x)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        laws = [law.sf_pdf(x) for law in self.laws]
        terms = [np.log1p(-self.p * sf) for sf, _ in laws]
        log_w = sum(k * q for k, q in zip(self.counts, terms))
        total = np.zeros(x.shape)
        for k, (_, pdf), q in zip(self.counts, laws, terms):
            if k:
                total += k * self.p * pdf * np.exp(log_w - q)
        return np.where(x <= 0, 0.0, total)[()]

    @property
    def x_max(self) -> float:
        k = max(self.sys.num_users, 2)
        s = max(law.num_subbands for law in self.laws)
        return self.scale * (math.log(k * s) + 45.0)

    def _points(self) -> list[float]:
        k = max(self.sys.num_users, 2)
        return [self.scale * math.log1p(k), self.scale * (math.log1p(k) + 4.0)]

    def expect(self, func: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of the array-valued ``func`` against the continuous part of the law."""
        return quad_checked(
            lambda x: func(x) * self.pdf(x), 0.0, self.x_max, points=self._points()
        )

    def expect_log_rate(self, snr: float) -> float:
        """E[log2(1 + snr X)] over the continuous part, by parts (no pdf)."""
        c = snr / _LN2
        return quad_checked(
            lambda x: c / (1.0 + snr * x) * self.sf(x), 0.0, self.x_max, points=self._points()
        )


# ---------------------------------------------------------------------------
# Order-statistic moments and the rate integral I1
# ---------------------------------------------------------------------------


def _order_expect(func: Callable[[np.ndarray], np.ndarray], b: int, scale: float) -> float:
    """E[func(X)] for X the maximum of b i.i.d. exponentials with mean ``scale``.

    Integrates the array-valued ``func`` against d(F^b) = b F^(b-1) dF, F the
    exponential CDF; the mass sits around scale * ln b.
    """

    def integrand(x: np.ndarray) -> np.ndarray:
        log_sf = -x / scale
        return func(x) * (b * np.exp((b - 1) * np.log(-np.expm1(log_sf)) + log_sf) / scale)

    log_b = math.log(max(b, 2))
    return quad_checked(
        integrand, 0.0, scale * (log_b + 45.0), points=[scale * log_b, scale * (log_b + 4.0)]
    )


def _order(b) -> int:
    """The order b as an int; an integral float or numpy integer passes."""
    if not (b >= 1 and float(b).is_integer()):
        raise ValueError("b must be a positive integer")
    return int(b)


def _order_moment(
    closed_form: Callable[..., np.ndarray],
    func: Callable[..., np.ndarray],
    b: int,
    scale,
    *params,
):
    """E[func(X, *params)] for X the maximum of b i.i.d. exponentials with mean ``scale``.

    X has the signed mixture density sum_l b (-1)^l C(b-1, l)/(l+1) times
    the exponential density of mean scale/(l+1), l < b.  ``closed_form``
    maps an array of means, with the order l along a trailing axis, and the
    parameters, each with a trailing axis of one, to E[func(Y, *params)]
    for Y exponential with each mean.  The result is taken elementwise over
    the broadcast of ``scale`` and ``params``, a float for scalars: up to
    order 20 the mixture of closed forms is summed, beyond it ``func`` is
    integrated by ``_order_expect`` at each element.
    """
    b = _order(b)
    args = np.broadcast_arrays(scale, *params)
    shape = args[0].shape
    args = [arg.ravel() for arg in args]
    out = np.empty(args[0].size)
    if b > _B_FLOAT_MAX:
        for i, (s, *p) in enumerate(zip(*(arg.tolist() for arg in args))):
            out[i] = _order_expect(lambda x: func(x, *p), b, s)
    else:
        order = np.arange(1, b + 1)
        weights = _signed_binomials(b) / order
        step = _BLOCK_BYTES // (8 * b)
        for i in range(0, out.size, step):
            s, *p = (arg[i : i + step, None] for arg in args)
            terms = weights * closed_form(s / order, *p)
            # the alternating sum amplifies any rounding of the closed form by
            # the binomial-to-result ratio, so each element is summed exactly
            # rounded
            out[i : i + step] = [math.fsum(row) for row in terms.tolist()]
        out *= b
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def i1(a: float, b: int) -> float:
    """E[log2(1 + a X)] for X the maximum of b unit-mean exponentials.

    E[log2(1 + a Y)] = exp(1/(a m)) E1(1/(a m)) / ln 2 for Y exponential
    with mean m.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    return _order_moment(
        lambda mean: exp_integral_e1_scaled(1.0 / (a * mean)) / _LN2,
        lambda x: np.log2(1.0 + a * x),
        b,
        1.0,
    )


# ---------------------------------------------------------------------------
# Average sum rate and minimum best-M
# ---------------------------------------------------------------------------


def average_sum_rate(sys: SystemConfig) -> float:
    """Average sum rate (bits/s/Hz per resource block) with perfect feedback.

    Partial feedback integrates the rate against the scheduled-CQI mixture;
    full feedback short-circuits to the order-statistics rate integral.
    """
    if sys.best_m == sys.m_full:
        return i1(sys.snr, sys.num_users)
    return ScheduledCqiMixture(sys).expect_log_rate(sys.snr)


@dataclass(frozen=True)
class MinimumBestM:
    exact: int
    approx: int


def minimum_best_m(
    sys: SystemConfig, gamma: float | Sequence[float]
) -> MinimumBestM | list[MinimumBestM]:
    """Smallest base best-M whose sum rate reaches ``gamma`` of full feedback.

    ``exact`` scans the base feedback amount upward; ``approx`` inverts
    the coverage-only approximation of the rate ratio.  ``gamma`` may be a
    sequence of ratios: one scan, up to the first amount that reaches the
    largest, then answers each of them, and the results come as a list.
    """
    gammas = [gamma] if np.ndim(gamma) == 0 else list(gamma)
    if not all(0.0 < g < 1.0 for g in gammas):
        raise ValueError("gamma must lie in (0, 1)")
    full = i1(sys.snr, sys.num_users)
    pending = sorted(set(gammas))
    exact: dict[float, int] = {}
    for m in range(1, sys.m_full + 1):
        if not pending:
            break
        ratio = average_sum_rate(replace(sys, best_m=m)) / full
        while pending and ratio >= pending[0]:
            exact[pending.pop(0)] = m
    results = []
    for g in gammas:
        raw = sys.m_full * (1.0 - (1.0 - g) ** (1.0 / sys.num_users))
        approx = min(max(math.ceil(raw), 1), sys.m_full)
        results.append(MinimumBestM(exact=exact.get(g, sys.m_full), approx=approx))
    return results[0] if np.ndim(gamma) == 0 else results
