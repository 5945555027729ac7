"""Closed-form perfect-feedback engine.

Distribution of the scheduled CQI under heterogeneous best-M feedback, the
average sum rate, and the smallest feedback amount reaching a target
fraction of the full-feedback rate.

Two evaluation routes are provided and cross-checked:

* a coefficient route that expands the conditional CDF of the scheduled
  CQI into powers of the base CDF (selection coefficients are built in
  exact rational arithmetic, per feedback-set vector);
* a mixture-CDF route that evaluates the unconditioned scheduled-CQI CDF
  through regularized incomplete beta functions, on a whole array of
  abscissae at once, and integrates the metric by vectorized quadrature.

The coefficient route is exact but its alternating coefficients grow
combinatorially (beyond roughly 1e6 the float contraction of the final
sum loses the answer), so metric evaluation auto-selects the mixture
route for anything but small configurations.  Both agree to ~1e-9 where
they overlap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import mpmath as mp
import numpy as np
from scipy.special import betainc, gammaln

from ._quad import quad_checked
from .channel import SystemConfig
from .feedback import cluster_feedback_quota
from .specfun import exp_integral_e1_scaled

__all__ = [
    "CoefficientTable",
    "FeedbackSetDistribution",
    "MinimumBestM",
    "ReportedCqiLaw",
    "ScheduledCqiMixture",
    "xi_coefficients",
    "reported_cqi_cdf",
    "selection_coefficients",
    "feedback_set_pmf",
    "i1",
    "average_sum_rate",
    "minimum_best_m",
    "coverage_prob",
]

_LN2 = math.log(2.0)

# Alternating binomial sums: plain float arithmetic below this order,
# arbitrary precision up to the series cap, defining-integral quadrature
# beyond it (the binomial scale ~2^b swamps double precision near b=50).
_B_FLOAT_MAX = 20
_B_SERIES_MAX = 60

# Coefficient-route guards: beyond these the alternating selection
# coefficients cancel catastrophically in double precision.
_SERIES_TAU_SPACE_MAX = 4096
_SERIES_LOG_COEFF_MAX = 6.0
_SERIES_B_MAX = _B_SERIES_MAX


def _mp_dps(b: int) -> int:
    # digits lost to cancellation ~ log10 C(b-1, b//2) ~ 0.301*b
    return 30 + int(0.31 * b)


@functools.lru_cache(maxsize=None)
def _signed_binomials(b: int) -> np.ndarray:
    """(-1)^l * C(b-1, l) for l < b: the weights of the float-tier order sums."""
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


def xi_coefficients(sys: SystemConfig, g: int) -> np.ndarray:
    """Expansion coefficients of the reported-CQI CDF for cluster ``g``.

    The reported CQI of a cluster-``g`` user has CDF
    ``sum_m xi[m] * F(x)**(num_subbands - m)`` with F the base CQI CDF.
    """
    return np.array(
        [float(x) for x in _xi_exact(sys.num_subbands(g), cluster_feedback_quota(sys, g))]
    )


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
    ``b_total = sum_g num_subbands(g) * tau[g]``.  Exact rational values
    are kept alongside the float views.
    """

    tau: tuple[int, ...]
    xi: tuple[np.ndarray, ...]
    lam: tuple[np.ndarray, ...]
    theta: np.ndarray
    b_total: int
    xi_exact: tuple[tuple[Fraction, ...], ...]
    lam_exact: tuple[tuple[Fraction, ...], ...]
    theta_exact: tuple[Fraction, ...]

    @property
    def phi(self) -> int:
        return len(self.theta) - 1


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

    xi_ex, lam_ex = [], []
    theta = [Fraction(1)]
    b_total = 0
    for g, t in enumerate(tau):
        xi_g = _xi_exact(sys.num_subbands(g), cluster_feedback_quota(sys, g))
        lam_g = _lambda_exact(xi_g, t)
        xi_ex.append(tuple(xi_g))
        lam_ex.append(tuple(lam_g))
        theta = _poly_mul(theta, lam_g)
        b_total += sys.num_subbands(g) * t
    return CoefficientTable(
        tau=tau,
        xi=tuple(np.array([float(x) for x in v]) for v in xi_ex),
        lam=tuple(np.array([float(x) for x in v]) for v in lam_ex),
        theta=np.array([float(x) for x in theta]),
        b_total=b_total,
        xi_exact=tuple(xi_ex),
        lam_exact=tuple(lam_ex),
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

    def support_size(self) -> int:
        return math.prod(k + 1 for k in self.counts)

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
# Stable pointwise laws (order-statistics form)
# ---------------------------------------------------------------------------


class ReportedCqiLaw:
    """Reported-CQI law of one cluster, evaluated in a cancellation-free form.

    A user reporting a subband shows one of its ``quota`` largest CQI
    values, uniformly; the CDF is therefore the average of the top
    ``quota`` order-statistic CDFs of ``num_subbands`` i.i.d. exponential
    CQIs with mean ``scale``, computed through regularized incomplete
    beta functions.  Identical to the coefficient expansion, but stable
    for any size.  ``cdf``, ``sf`` and ``pdf`` take a scalar or an array
    and broadcast the order index over a trailing axis.
    """

    def __init__(self, num_subbands: int, quota: int, scale: float = 1.0):
        if not 1 <= quota <= num_subbands:
            raise ValueError("quota must lie in [1, num_subbands]")
        self.num_subbands = num_subbands
        self.quota = quota
        self.scale = scale
        self._j = np.arange(num_subbands - quota + 1, num_subbands + 1)
        # log of j * C(num_subbands, j) = num_subbands! / ((j-1)!(num_subbands-j)!)
        self._logc = (
            gammaln(num_subbands + 1) - gammaln(self._j) - gammaln(num_subbands - self._j + 1)
        )

    def _log_sf(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(x as an array, log of the base survival at max(x, 0))."""
        x = np.asarray(x, dtype=float)
        return x, -np.maximum(x, 0.0) / self.scale

    def cdf(self, x):
        x, log_sf = self._log_sf(x)
        base = -np.expm1(log_sf)[..., None]
        vals = betainc(self._j, self.num_subbands - self._j + 1, base).mean(axis=-1)
        return np.where(x <= 0, 0.0, vals)[()]

    def sf(self, x):
        x, log_sf = self._log_sf(x)
        base_sf = np.exp(log_sf)[..., None]
        vals = betainc(self.num_subbands - self._j + 1, self._j, base_sf).mean(axis=-1)
        return np.where(x <= 0, 1.0, vals)[()]

    def pdf(self, x):
        x, log_sf = self._log_sf(x)
        log_sf = np.where(x > 0, log_sf, -1.0)[..., None]  # keeps log(F) finite at x <= 0
        log_f = np.log(-np.expm1(log_sf))
        terms = self._logc + (self._j - 1) * log_f + (self.num_subbands - self._j + 1) * log_sf
        vals = np.exp(terms).mean(axis=-1) / self.scale
        return np.where(x <= 0, 0.0, vals)[()]


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
        terms = self._log_terms(x)
        log_w = sum(k * q for k, q in zip(self.counts, terms))
        total = np.zeros(x.shape)
        for k, law, q in zip(self.counts, self.laws, terms):
            if k:
                total += k * self.p * law.pdf(x) * np.exp(log_w - q)
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


def reported_cqi_cdf(x, sys: SystemConfig, g: int):
    """CDF of the CQI a cluster-``g`` user reports for a covered subband."""
    return ReportedCqiLaw(sys.num_subbands(g), cluster_feedback_quota(sys, g)).cdf(x)


# ---------------------------------------------------------------------------
# Rate integral I1
# ---------------------------------------------------------------------------


def i1(a: float, b: int) -> float:
    """E[log2(1 + a X)] for X the maximum of b unit-mean exponentials.

    Closed form through exp(x)E1(x) for moderate b (arbitrary precision
    once the alternating binomial sum outgrows doubles), defining-integral
    quadrature beyond the series cap.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    b = int(b)
    if b < 1:
        raise ValueError("b must be a positive integer")
    if b <= _B_FLOAT_MAX:
        # the alternating sum amplifies any E1 rounding by the
        # binomial-to-result ratio, so it is summed exactly rounded
        order = np.arange(1, b + 1)
        weights = _signed_binomials(b) / order
        return b * math.fsum(weights * exp_integral_e1_scaled(order / a)) / _LN2
    if b <= _B_SERIES_MAX:
        return _i1_mp(a, b)
    return _i1_quad(a, b)


def _i1_mp(a: float, b: int) -> float:
    with mp.workdps(_mp_dps(b)):
        am = mp.mpf(a)
        total = mp.mpf(0)
        for l in range(b):
            z = (l + 1) / am
            term = mp.binomial(b - 1, l) / (l + 1) * mp.exp(z) * mp.e1(z)
            total += term if l % 2 == 0 else -term
        return float(b * total / mp.ln(2))


def _i1_quad(a: float, b: int) -> float:
    def integrand(x: np.ndarray) -> np.ndarray:
        return np.log2(1.0 + a * x) * b * np.exp((b - 1) * np.log(-np.expm1(-x)) - x)

    hi = math.log(b) + 45.0
    return quad_checked(integrand, 0.0, hi, points=[math.log(b), math.log(b) + 4.0])


# ---------------------------------------------------------------------------
# Average sum rate and minimum best-M
# ---------------------------------------------------------------------------


def _coefficient_route_feasible(sys: SystemConfig) -> bool:
    dist = feedback_set_pmf(sys)
    if dist.support_size() > _SERIES_TAU_SPACE_MAX:
        return False
    b_max = sum(sys.num_subbands(g) * c.num_users for g, c in enumerate(sys.clusters))
    if b_max > _SERIES_B_MAX:
        return False
    log_coeff = 0.0
    for g, c in enumerate(sys.clusters):
        xi = _xi_exact(sys.num_subbands(g), cluster_feedback_quota(sys, g))
        log_coeff += c.num_users * math.log10(float(sum(abs(x) for x in xi)))
    return log_coeff <= _SERIES_LOG_COEFF_MAX


def _route(sys: SystemConfig, method: str) -> str:
    """Evaluation route of a partial-feedback metric: "coefficients" or "cdf"."""
    if method == "auto":
        return "coefficients" if _coefficient_route_feasible(sys) else "cdf"
    if method in ("coefficients", "cdf"):
        return method
    raise ValueError(f"unknown method {method!r}")


def _metric_over_sets(sys: SystemConfig, term: Callable[[int], float]) -> float:
    """sum over nonempty feedback sets of P(tau) * sum_m theta_m * term(b-m)."""
    cache: dict[int, float] = {}

    def cached(b: int) -> float:
        if b not in cache:
            cache[b] = term(b)
        return cache[b]

    total = 0.0
    for tau, prob in feedback_set_pmf(sys):
        if prob == 0.0 or all(t == 0 for t in tau):
            continue
        table = selection_coefficients(sys, tau)
        inner = math.fsum(
            th * cached(table.b_total - m) for m, th in enumerate(table.theta)
        )
        total += prob * inner
    return total


def average_sum_rate(sys: SystemConfig, method: str = "auto") -> float:
    """Average sum rate (bits/s/Hz per resource block) with perfect feedback.

    ``method`` selects the evaluation route: "coefficients" (per
    feedback-set expansion), "cdf" (mixture quadrature), or "auto".
    Full feedback short-circuits to the order-statistics rate integral.
    """
    if sys.best_m == sys.m_full:
        return i1(sys.snr, sys.num_users)
    if _route(sys, method) == "coefficients":
        return _metric_over_sets(sys, lambda b: i1(sys.snr, b))
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
