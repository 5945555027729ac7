"""Closed-form perfect-feedback engine.

Distribution of the scheduled CQI under heterogeneous best-M feedback, the
average sum rate, and the smallest feedback amount reaching a target
fraction of the full-feedback rate.

Partial-feedback metrics have one evaluation route: the metric is integrated
by vectorized quadrature against the unconditioned scheduled-CQI law
(``ScheduledCqiMixture``).  Its per-cluster reported-CQI law
(``ReportedCqiLaw``) takes two regularized incomplete beta functions at any
partial-feedback quota, on a whole array of abscissae at once, once per
distinct (abscissa, quota) pair, and is stable at any size.  The sum rate
is integrated by parts over the rate u = log2(1 + snr x), as the survival
at x = (2^u - 1)/snr: its breakpoints are fixed multiples of the CQI scale
mapped to u, so the nodes do not crowd toward the pole of 1/(1 + snr x)
at high SNR, and systems that differ only in their user count share them.
The paper's closed form instead sums, over feedback
sets, selection coefficients that expand the conditional CDF of the
scheduled CQI into powers of the base CDF.  Those coefficients alternate
and grow combinatorially, so summed in floats they lose digits; they are
built here in exact rational arithmetic (``selection_coefficients``,
``feedback_set_pmf``) as tables, and the tests sum them exactly as the
reference for the mixture route.

The order-statistic moment integrals (I1 here, I2, I4 and the I3 bound in
``goodput``) are expectations over the maximum of b i.i.d. exponentials, a
signed mixture of b exponentials.  I1, I4 and the I3 bound integrate their
integrand against that law at every order (``_order_expect``), I1 through
``_order_moment``'s blocks of elements.  Only I2, which the optimizer calls
at every golden-section step, also passes the helper its integrand's
closed-form expectation over one exponential: up to order 20 the helper
sums their mixture, far cheaper than quadrature, with each element's terms
padded with zeros to the block's largest order.

The laws take per-system parameters as arrays, so one mixture covers a
sequence of systems that share the block count and subband sizes:
``average_sum_rate`` integrates such a sequence in one batched quadrature,
and ``minimum_best_m`` scans a sequence with one such call per best-M, whose
systems evaluate each reported-CQI law on their shared nodes once.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import betainc

from ._quad import quad_checked
from .channel import SystemConfig, cluster_feedback_quota

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
# Interior breakpoints of ``expect_log_rate``, in multiples of the mixture
# scale: they bracket where the scheduled CQI's mass sits, scale * ln K,
# for any user count up to millions.
_RATE_POINTS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
# Bytes of one block of mixture terms or first quadrature nodes:
# ``_order_moment`` takes a block of elements at a time, so a whole grid
# adds little to the peak memory.
_BLOCK_BYTES = 64 * 1024
# Row b - 1 holds (-1)^l * C(b-1, l) for l < b, then zeros: the weights of
# the closed-form order sums.
_SIGNED_BINOMIALS = np.array(
    [[(-1) ** l * math.comb(b - 1, l) for l in range(_B_FLOAT_MAX)]
     for b in range(1, _B_FLOAT_MAX + 1)],
    dtype=float,
)
_SIGNED_BINOMIALS.flags.writeable = False


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
    """Reported-CQI law of one partially reporting cluster, in closed form.

    A user reporting a subband shows one of its ``quota`` largest CQI
    values, uniformly, out of ``num_subbands`` i.i.d. exponential CQIs with
    mean ``scale``.  With S the base survival at x and N ~ Bin(n, S) the
    number of CQIs above x (n = ``num_subbands``, q = ``quota``), the
    survival is E[min(q, N)] / q = (n/q) S I_F(n-q, q) + I_S(q+1, n-q),
    F = 1 - S and I the regularized incomplete beta function, and the
    density is (n/q) (S/scale) I_F(n-q, q).  Both are sums of nonnegative
    terms, stable at any size.  The quota lies in [1, n): a cluster that
    reports every subband is at full feedback, which the order-statistic
    integrals cover.  ``quota`` may be an array that broadcasts against the
    abscissae, one law per element.  ``cdf``, ``sf`` and ``pdf`` take a
    scalar or an array.
    """

    def __init__(self, num_subbands: int, quota, scale: float = 1.0):
        n, q = num_subbands, np.asarray(quota)
        if np.any(q == n):
            raise ValueError(
                "a cluster that reports every subband is at full feedback, "
                "which the order-statistic integrals cover"
            )
        if not np.all((1 <= q) & (q < n)):
            raise ValueError("quota must lie in [1, num_subbands)")
        self.num_subbands = n
        self.quota = q
        self.scale = scale

    def _laws(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x as an array, sf, E[N; N <= q] / q = (n/q) S I_F(n-q, q)) at max(x, 0).

        Each distinct (abscissa, quota) pair is evaluated once: the rows of a
        stack of integrals, and the systems of one batch, share most nodes.
        """
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(x.shape, self.quota.shape)
        pairs = np.empty(shape, dtype=complex)
        pairs.real, pairs.imag = np.maximum(x, 0.0), self.quota
        pairs, inverse = np.unique(pairs, return_inverse=True)
        # the inverse's shape for an array of several dimensions varies by numpy version
        inverse = inverse.reshape(shape)
        t, q = pairs.real / self.scale, pairs.imag
        s = np.exp(-t)
        n = self.num_subbands
        within = n / q * s * betainc(n - q, q, -np.expm1(-t))
        return x, (within + betainc(q + 1, n - q, s))[inverse], within[inverse]

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def sf(self, x):
        return self._laws(x)[1][()]

    def pdf(self, x):
        return self.sf_pdf(x)[1]

    def sf_pdf(self, x):
        """(sf, pdf) at x, sharing one evaluation of the I_F(n-q, q) term."""
        x, sf, within = self._laws(x)
        return sf[()], np.where(x <= 0, 0.0, within / self.scale)[()]


class ScheduledCqiMixture:
    """Unconditioned law of the scheduled CQI, mixed over feedback sets.

    ``cdf`` carries an atom of mass (1-p)^K at zero (blocks nobody
    reported); metric integrals run over the continuous part only, which
    matches summing the per-feedback-set expansion over nonempty sets.
    ``scale`` is the mean of the base exponential CQI (1 for perfect
    feedback, 1 - est_error_var for the estimated CQI).

    ``sys`` is one system or a sequence of systems that share ``num_rbs``
    and the cluster subband sizes.  For a sequence, the report probability
    ``p``, the per-cluster user ``counts`` and the laws' quotas are arrays
    with one entry per system: ``cdf``, ``sf`` and ``pdf`` take abscissae
    that broadcast against them, and ``expect`` and ``expect_log_rate``
    integrate every system in one batched quadrature and return an array.
    """

    def __init__(self, sys: SystemConfig | Sequence[SystemConfig], scale: float = 1.0):
        systems = [sys] if isinstance(sys, SystemConfig) else list(sys)
        if not systems:
            raise ValueError("a mixture needs at least one system")
        first = systems[0]
        sizes = [c.subband_size for c in first.clusters]
        if any(s.num_rbs != first.num_rbs or [c.subband_size for c in s.clusters] != sizes
               for s in systems):
            raise ValueError("the systems of one mixture must share num_rbs and subband sizes")
        per_system = (lambda v: np.array(v[0])) if isinstance(sys, SystemConfig) else np.array
        self.sys = sys
        self.scale = scale
        self.p = per_system([s.report_prob for s in systems])
        self.num_users = per_system([s.num_users for s in systems])
        self.laws = [
            ReportedCqiLaw(
                first.num_subbands(g),
                per_system([cluster_feedback_quota(s, g) for s in systems]),
                scale,
            )
            for g in range(first.num_clusters)
        ]
        self.counts = [per_system([s.clusters[g].num_users for s in systems])
                       for g in range(first.num_clusters)]

    def _at(self, which: np.ndarray) -> "ScheduledCqiMixture":
        """The mixture with each per-system parameter taken at the systems ``which`` names."""
        out = copy.copy(self)
        out.p = np.take(self.p, which)
        out.laws = [ReportedCqiLaw(law.num_subbands, np.take(law.quota, which), law.scale)
                    for law in self.laws]
        out.counts = [np.take(k, which) for k in self.counts]
        return out

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
        total = np.zeros_like(log_w)
        for k, (_, pdf), q in zip(self.counts, laws, terms):
            if k.any():
                total += k * self.p * pdf * np.exp(log_w - q)
        return np.where(x <= 0, 0.0, total)[()]

    def _per_system(self, value: Callable[[int], object]):
        """``value(users)`` for the one system, or an array of it over the sequence."""
        if self.num_users.ndim == 0:
            return value(int(self.num_users))
        return np.array([value(k) for k in self.num_users.tolist()])

    @property
    def x_max(self):
        s = max(law.num_subbands for law in self.laws)
        return self._per_system(lambda k: self.scale * (math.log(max(k, 2) * s) + 45.0))

    def _points(self):
        return self._per_system(lambda k: [self.scale * math.log1p(max(k, 2)),
                                           self.scale * (math.log1p(max(k, 2)) + 4.0)])

    def _integrate(self, integrand, system: np.ndarray, upper, points) -> np.ndarray:
        """Integral i of ``integrand(mix, x, at)`` over the continuous part of system ``system[i]``.

        All of them in one batched quadrature: ``mix`` is the mixture at each
        abscissa's system, and ``at(v)`` takes a per-integral array (or a
        scalar) ``v`` at each abscissa's integral.  Integral i runs from 0 to
        ``upper[i]`` with the interior breakpoints ``points[i]``; both
        broadcast.
        """
        return quad_checked(
            lambda x, which: integrand(self._at(system[which]), x, lambda v: np.take(v, which)),
            np.zeros(system.size),
            upper,
            points=points,
        )

    def expect(self, func: Callable[[np.ndarray], np.ndarray]):
        """Integral of the array-valued ``func`` against the continuous part of the law.

        Over a sequence of systems, one integral of ``func`` per system.
        """
        values = self._integrate(
            lambda mix, x, at: func(x) * mix.pdf(x),
            np.arange(self.num_users.size), self.x_max, self._points(),
        )
        return float(values[0]) if isinstance(self.sys, SystemConfig) else values

    def expect_log_rate(self, snr):
        """E[log2(1 + snr X)] over the continuous part, by parts over the rate (no pdf).

        With the rate u = log2(1 + snr x), the expectation is the integral of
        sf((2^u - 1) / snr) over [0, log2(1 + snr x_max)], broken at the
        rates of ``_RATE_POINTS`` times the scale: the breakpoints do not
        depend on the user count, so the systems of a batch at one snr share
        every node below their last breakpoint.  ``snr`` is a scalar or, for
        a sequence of systems, one per system.
        """
        snr = np.asarray(snr, dtype=float)
        with np.errstate(over="ignore"):  # a rate past the float range is an inf limit, refused
            top = np.log1p(snr * self.x_max) / _LN2
            points = np.log1p(snr[..., None] * np.multiply(self.scale, _RATE_POINTS)) / _LN2
        values = self._integrate(
            lambda mix, u, at: mix.sf(np.expm1(u * _LN2) / at(snr)),
            np.arange(self.num_users.size), top, points,
        )
        return float(values[0]) if isinstance(self.sys, SystemConfig) else values


# ---------------------------------------------------------------------------
# Order-statistic moments and the rate integral I1
# ---------------------------------------------------------------------------


def _order_expect(func: Callable[..., np.ndarray], b, scale, points=None) -> np.ndarray:
    """E[func(X)] for X the maximum of b i.i.d. exponentials with mean ``scale``, per element.

    ``b`` and ``scale`` broadcast to one dimension; element i integrates
    ``func`` against d(F^b) = b F^(b-1) dF, F the exponential CDF, whose
    mass sits around scale * ln b.  All elements go through one batched
    quadrature: ``func(x, which)`` gets the abscissae and each abscissa's
    element index.  The interior breakpoints are ``points``
    (``_order_points(b, scale)``), per element.
    """
    b, scale = np.broadcast_arrays(np.atleast_1d(b), np.atleast_1d(scale).astype(float))

    def integrand(x: np.ndarray, which: np.ndarray) -> np.ndarray:
        k, s = b[which], scale[which]
        log_sf = -x / s
        return func(x, which) * (k * np.exp((k - 1) * np.log(-np.expm1(log_sf)) + log_sf) / s)

    return quad_checked(
        integrand, 0.0, scale * (_log_order(b) + 45.0),
        points=_order_points(b, scale) if points is None else points,
    )


def _log_order(b) -> np.ndarray:
    """ln(max(b, 2)) per element: where the maximum of b exponentials sits, in means."""
    return np.array([math.log(max(k, 2)) for k in np.atleast_1d(b).tolist()])


def _order_points(b, scale) -> np.ndarray:
    """``_order_expect``'s default breakpoints: scale * (ln b, ln b + 4), one row per element."""
    log_b = _log_order(b)
    return np.stack([scale * log_b, scale * (log_b + 4.0)], axis=1)


def _order(b) -> np.ndarray:
    """The order b as an int array, 0-d for a scalar order.

    An integral float or numpy integer passes.
    """
    value = np.asarray(b, dtype=float)
    if not ((value >= 1) & np.isfinite(value) & (value == np.floor(value))).all():
        raise ValueError("b must be a positive integer")
    return value.astype(int)


def _mixture_sum(closed_form, b: np.ndarray, scale: np.ndarray, *params: np.ndarray) -> np.ndarray:
    """b sum_l (-1)^l C(b-1, l)/(l+1) closed_form(scale/(l+1), *params), l < b, per element.

    Each element has its own order b <= ``_B_FLOAT_MAX``; its terms are
    padded with exact zeros up to the largest order of the block.
    """
    order = np.arange(1, b.max() + 1)
    weights = _SIGNED_BINOMIALS[b - 1, : order.size] / order
    # a closed form at a padded mean may not be finite: mask it before the
    # zero weight meets it
    values = np.where(order <= b[:, None],
                      closed_form(scale[:, None] / order, *(p[:, None] for p in params)), 0.0)
    terms = weights * values
    # the alternating sum amplifies any rounding of the closed form by the
    # binomial-to-result ratio, so each element is summed exactly rounded
    return b * np.array([math.fsum(row) for row in terms.tolist()])


def _order_moment(
    closed_form: Callable[..., np.ndarray] | None,
    func: Callable[..., np.ndarray],
    b,
    scale,
    *params,
):
    """E[func(X, *params)] for X the maximum of b i.i.d. exponentials with mean ``scale``.

    X has the signed mixture density sum_l b (-1)^l C(b-1, l)/(l+1) times
    the exponential density of mean scale/(l+1), l < b.  ``closed_form``
    maps an array of means, with the order l along a trailing axis, and the
    parameters, each with a trailing axis of one, to E[func(Y, *params)]
    for Y exponential with each mean, or is ``None``.  The result is taken
    elementwise over the broadcast of ``b``, ``scale`` and ``params``, a
    float for scalars.  Two passes run over the flat element indices: the
    shallow pass sums the mixture of closed forms (``_mixture_sum``) for
    every element up to order ``_B_FLOAT_MAX``, and the deep pass
    integrates ``func`` by ``_order_expect`` for every other element (all
    of them without a closed form), one batched quadrature per block.  The
    float sum loses digits to the binomial weights, so only ``i2``, which
    the optimizer calls in its loop, passes a closed form.  Blocks are
    taken from the broadcast arguments without copying the whole grid,
    sized so that a block's mixture terms (up to ``_B_FLOAT_MAX`` per
    element) or first quadrature nodes fit in ``_BLOCK_BYTES``.
    """
    orders, *args = np.broadcast_arrays(_order(b), scale, *params)
    out = np.empty(orders.shape)

    def shallow(k, s, *p):
        return _mixture_sum(closed_form, k, s, *p)

    def deep(k, s, *p):
        return _order_expect(lambda x, which: func(x, *(v[which] for v in p)), k, s)

    beyond = orders > (0 if closed_form is None else _B_FLOAT_MAX)
    # a first quadrature level has 3 panels of 21 nodes per element
    for route, elements, width in ((shallow, np.flatnonzero(~beyond), _B_FLOAT_MAX),
                                   (deep, np.flatnonzero(beyond), 63)):
        step = _BLOCK_BYTES // (8 * width)
        for i in range(0, elements.size, step):
            block = elements[i : i + step]
            out.flat[block] = route(*(arg.flat[block] for arg in (orders, *args)))
    return out if out.ndim else float(out)


def i1(a, b):
    """E[log2(1 + a X)] for X the maximum of b unit-mean exponentials.

    ``a`` and ``b`` broadcast, a float for scalars.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(a > 0):
        raise ValueError("a must be positive")
    return _order_moment(None, lambda x, a: np.log1p(a * x) / _LN2, b, 1.0, a)


# ---------------------------------------------------------------------------
# Average sum rate and minimum best-M
# ---------------------------------------------------------------------------


def average_sum_rate(sys: SystemConfig | Sequence[SystemConfig]):
    """Average sum rate (bits/s/Hz per resource block) with perfect feedback.

    Partial feedback integrates the rate against the scheduled-CQI mixture;
    full feedback short-circuits to the order-statistics rate integral.
    ``sys`` may be a sequence of systems that share ``num_rbs`` and the
    cluster subband sizes: one batched quadrature then integrates every
    partial-feedback system, one ``i1`` call serves every full-feedback
    one, and the rates come as an array.
    """
    systems = [sys] if isinstance(sys, SystemConfig) else list(sys)
    at_full = np.array([s.best_m == s.m_full for s in systems], dtype=bool)
    rates = np.empty(len(systems))
    if at_full.any():
        full = [s for s, f in zip(systems, at_full) if f]
        rates[at_full] = i1([s.snr for s in full], [s.num_users for s in full])
    if not at_full.all():
        partial = [s for s, f in zip(systems, at_full) if not f]
        rates[~at_full] = ScheduledCqiMixture(partial).expect_log_rate([s.snr for s in partial])
    return float(rates[0]) if isinstance(sys, SystemConfig) else rates


@dataclass(frozen=True)
class MinimumBestM:
    exact: int
    approx: int


def minimum_best_m(
    sys: SystemConfig | Sequence[SystemConfig], gamma: float | Sequence[float]
):
    """Smallest base best-M whose sum rate reaches ``gamma`` of full feedback.

    ``exact`` scans the base feedback amount upward; ``approx`` inverts
    the coverage-only approximation of the rate ratio.  ``gamma`` may be a
    sequence of ratios: one scan, up to the first amount that reaches the
    largest, then answers each of them, and the results come as a list.
    ``sys`` may be a sequence of systems that share ``num_rbs`` and the
    cluster subband sizes: round m of the scan integrates the rate at
    best-M m of every system still short of its largest ratio in one
    ``average_sum_rate`` call, and the answers come as a list with one
    entry (a result, or a list of them) per system.
    """
    systems = [sys] if isinstance(sys, SystemConfig) else list(sys)
    gammas = [gamma] if np.ndim(gamma) == 0 else list(gamma)
    if not all(0.0 < g < 1.0 for g in gammas):
        raise ValueError("gamma must lie in (0, 1)")
    targets = sorted(set(gammas))
    full = i1([s.snr for s in systems], [s.num_users for s in systems]).tolist() if systems else []
    reached = [0] * len(systems)  # targets met so far, per system
    exact: list[dict[float, int]] = [{} for _ in systems]
    for m in range(1, max((s.m_full for s in systems), default=0) + 1):
        short = [i for i, n in enumerate(reached) if n < len(targets)]
        if not short:
            break
        rates = average_sum_rate([replace(systems[i], best_m=m) for i in short])
        for i, rate in zip(short, rates.tolist()):
            ratio = rate / full[i]
            while reached[i] < len(targets) and ratio >= targets[reached[i]]:
                exact[i][targets[reached[i]]] = m
                reached[i] += 1
    results = []
    for s, found in zip(systems, exact):
        per_gamma = []
        for g in gammas:
            raw = s.m_full * (1.0 - (1.0 - g) ** (1.0 / s.num_users))
            approx = min(max(math.ceil(raw), 1), s.m_full)
            per_gamma.append(MinimumBestM(exact=found.get(g, s.m_full), approx=approx))
        results.append(per_gamma[0] if np.ndim(gamma) == 0 else per_gamma)
    return results[0] if isinstance(sys, SystemConfig) else results
