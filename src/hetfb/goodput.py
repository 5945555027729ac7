"""Imperfect-feedback analytic engine.

Average goodput and outage probability under the fixed-rate and
variable-rate strategies, the mean-value (Jensen) and low-SNR bounds for
the variable-rate integral, and the optimization of the rate-adaptation
parameters beta0 / beta1.

The moment integrals over the scheduled estimated CQI are integrated at
every order (``analytic._order_expect``), as I1 is, except I2: the beta0
optimizer calls it at every golden-section step, so up to order 20 it sums
its closed form as a mixture (``analytic._order_moment``), a fraction of
the quadrature's cost.  I2 takes arrays of thresholds and impairments, so
one call covers a whole grid, a block at a time.  The I3 integrals take a
positive, finite SNR and raise ``ValueError`` otherwise.
Near perfect feedback the Marcum-Q arguments grow like 1/sqrt(est_error_var);
``marcum_q1`` switches to Gauss-Hermite quadrature there, so both stay
cheap and finite, and I2's closed form scales its squared argument by a
power of two, so it stays finite down to the smallest accepted
est_error_var at delay_corr = 1.

The goodput and outage metrics of a whole table (arrays of beta0 and beta1
on one system) come from one batched quadrature.  Each outage is an
integral of its own, of the failure probability 1 - Q1 that ``marcum_q1c``
gives at full relative precision, never coverage or 1 minus a success: its
integrand is nonnegative, so is the outage, and a small outage keeps its
relative precision: the quadrature holds every integral to 1e-10 of its
own value, with no absolute floor, so an outage of 1e-46 gets the digits
that one of 0.1 gets.  Near perfect feedback the variable-rate failure
decays on a scale far below the first panels, so those outage rows start
with breakpoints at that scale.  A beta's success and failure integrals
share most quadrature nodes, so each distinct Marcum-Q argument pair of a
level is evaluated once, by ``marcum_q1_pair``.  The stack holds the
fixed-rate success and outage and the variable-rate goodput and outage of
every beta.
Under partial feedback it is integrated against the scheduled
estimated-CQI mixture, the one route of ``analytic``; at full feedback it
is one ``_order_expect`` stack at every order, so even a small order skips
the cancelling mixture sum of ``i2``.  ``fixed_rate_metrics`` and
``variable_rate_metrics`` are the one-beta tables.  Every quadrature
integrand is array-valued: the Marcum-Q factor is evaluated on all nodes
of a refinement level at once.

The optimizers search a whole list of impairment cells in lockstep
(``optimize_beta0_grid``, ``optimize_beta1_grid``): one array call of
``i2`` or ``i3_jensen`` evaluates the bracketing grid of every cell, then
each golden-section step evaluates one point for every cell still
searching, each cell making its own comparisons and stopping at its own
tolerance.  ``optimize_beta0`` and ``optimize_beta1`` run the same search
on a single cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# quad_checked stays bound here: perfbench/selftest.py checks its tracing in this module
from ._quad import QuadratureError, quad_checked  # noqa: F401
from .analytic import ScheduledCqiMixture, _order, _order_expect, _order_moment, _order_points
from .channel import ImpairmentParams, SystemConfig
from .specfun import marcum_q1, marcum_q1_pair

__all__ = [
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
    "optimize_beta0_grid",
    "optimize_beta1_grid",
]

_LN2 = math.log(2.0)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# I2: fixed-rate success probability
# ---------------------------------------------------------------------------


def i2(a, b: int, imp):
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(a))] for X the max of b estimates.

    Success probability of the fixed-rate strategy against threshold
    ``a`` when the scheduled estimate is the largest of ``b`` i.i.d.
    estimated CQIs.  ``a`` and the ``alpha_w``, ``delay_corr`` and
    ``estimate_var`` of ``imp`` broadcast, so one call serves an array of
    thresholds over the impairment cells of an optimizer's column arrays;
    a scalar threshold and one ``ImpairmentParams`` give a scalar.
    """
    a = np.asarray(a, dtype=float)
    if not np.all((0.0 <= a) & (a < math.inf)):
        raise ValueError("threshold must be finite and nonnegative")
    # the Q1 arguments at unit CQI
    varpi, vartheta = imp.alpha_w * imp.delay_corr, imp.alpha_w * np.sqrt(a)

    def closed_form(mean: np.ndarray, varpi: np.ndarray, vartheta: np.ndarray) -> np.ndarray:
        z = 2.0 / mean
        w2 = varpi**2
        c = w2 + z
        # g = t2 / c from vartheta and c in units of a power of two near sqrt(c):
        # the scalings are exact, so g rounds as unscaled, yet it stays finite
        # where t2 = vartheta^2 ~ alpha_w^2 * a overflows near perfect feedback
        k = np.frexp(c)[1] // 2
        # a value past the float range only meets exp(-inf) = 0, its limit
        with np.errstate(over="ignore"):
            g = np.ldexp(vartheta, -k) ** 2 / np.ldexp(c, -2 * k)
            t2 = vartheta**2
            return np.exp(-0.5 * t2) + np.exp(-0.5 * z * g) * -np.expm1(-0.5 * w2 * g)

    val = np.asarray(_order_moment(
        closed_form, _threshold_q1, b, imp.estimate_var, varpi, vartheta
    ))
    val[np.broadcast_to(vartheta == 0, val.shape)] = 1.0  # a = 0, as alpha_w >= sqrt(2)
    return np.clip(val, 0.0, 1.0, out=val)[()]


def _threshold_q1(x, varpi, vartheta):
    """Q1(varpi*sqrt(x), vartheta), the fixed-rate success given estimate x."""
    return marcum_q1(varpi * np.sqrt(x), vartheta)


# ---------------------------------------------------------------------------
# I4: variable-rate success probability
# ---------------------------------------------------------------------------


def i4(a: float, b: int, imp: ImpairmentParams) -> float:
    """E[Q1(varpi*sqrt(X), alpha_w*sqrt(a X))]; backoff success probability."""
    b = _order(b)
    if not 0.0 <= a < math.inf:
        raise ValueError("backoff must be finite and nonnegative")
    if a == 0:
        return 1.0
    return min(max(_backoff_expect(lambda x: 1.0, a, b, imp), 0.0), 1.0)


def _backoff_expect(weight, a, b, imp) -> float:
    """E[weight(X) Q1(varpi*sqrt(X), alpha_w*sqrt(a X))] at order b, by quadrature.

    Given the estimate x, the backoff success (a > alpha^2) or failure
    (a < alpha^2) decays like exp(-x/d), so the integral also starts with
    ``_decay_points``.
    """
    q1_at = _backoff_q1(a, imp)
    points = np.hstack([_order_points(b, imp.estimate_var), _decay_points(np.array([a]), imp)])
    (value,) = _order_expect(lambda x, _: weight(x) * q1_at(x), b, imp.estimate_var,
                             points=points)
    return float(value)


def _decay_points(a: np.ndarray, imp) -> np.ndarray:
    """Breakpoints d * (1, 8, 64) per backoff in ``a``, d = 2/(alpha_w (alpha - sqrt(a)))^2.

    Near perfect feedback d is so small that a term decaying like exp(-x/d)
    vanishes at every node of a first level; these panels resolve it.  A d
    of inf (alpha = sqrt(a), or past the float range) puts them beyond the
    interval.
    """
    with np.errstate(divide="ignore", over="ignore"):
        d = 2.0 / (imp.alpha_w * (imp.delay_corr - np.sqrt(a))) ** 2
    return d[:, None] * [1.0, 8.0, 64.0]


def _backoff_q1(a, imp):
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
    b = _order(b)
    _check_snr(snr)
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    if a == 0.0:
        return 0.0
    q1_at = _backoff_q1(a, imp)
    (value,) = _order_expect(
        lambda x, _: q1_at(x) * np.log1p(snr * a * x) / _LN2, b, imp.estimate_var
    )
    return float(value)


def _check_snr(snr) -> None:
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite (linear scale)")


def i3_upper_bound(a: float, b: int, imp: ImpairmentParams, snr: float) -> float:
    """Low-SNR upper bound on the variable-rate goodput integral.

    Linearizes the log inside the goodput integral, to snr a X / ln 2;
    tight as snr -> 0.
    """
    b = _order(b)
    _check_snr(snr)
    if not 0.0 <= a <= 1.0:
        raise ValueError("backoff must lie in [0, 1]")
    if a == 0.0:
        return 0.0
    return snr * a / _LN2 * _backoff_expect(lambda x: x, a, b, imp)


def jensen_mean(b: int, imp):
    """Mean of the largest of b estimated CQIs: (1-sigma_w^2) * H_b, per cell of a grid."""
    return imp.estimate_var * math.fsum(1.0 / j for j in range(1, _order(b) + 1))


def i3_jensen(a, b: int, imp, snr: float):
    """Mean-value approximation of the variable-rate goodput integral.

    ``a`` and ``imp`` broadcast as in ``i2``.
    """
    _check_snr(snr)
    a = np.asarray(a, dtype=float)
    if not np.all((0.0 <= a) & (a <= 1.0)):
        raise ValueError("backoff must lie in [0, 1]")
    mean = jensen_mean(b, imp)
    return (_backoff_q1(a, imp)(mean) * np.log1p(snr * a * mean) / _LN2)[()]


# ---------------------------------------------------------------------------
# Goodput / outage metrics
# ---------------------------------------------------------------------------


def fixed_rate_metrics(
    sys: SystemConfig, imp: ImpairmentParams, beta0: float
) -> tuple[float, float]:
    """Average goodput and outage probability of the fixed-rate strategy.

    The outage probability is the unconditioned probability that a block
    is scheduled and its transmission fails (blocks nobody reported are
    excluded from the outage event, not renormalized).
    """
    r0, p0, _, _ = _metrics_table(sys, imp, [beta0], [])
    return float(r0[0]), float(p0[0])


def variable_rate_metrics(
    sys: SystemConfig, imp: ImpairmentParams, beta1: float
) -> tuple[float, float]:
    """Average goodput and outage probability of the variable-rate strategy."""
    _, _, r1, p1 = _metrics_table(sys, imp, [], [beta1])
    return float(r1[0]), float(p1[0])


def _metrics_table(sys: SystemConfig, imp: ImpairmentParams, beta0, beta1):
    """Goodput and outage of both strategies over arrays of beta0 and beta1.

    Returns arrays (fixed goodput, fixed outage) over ``beta0`` and
    (variable goodput, variable outage) over ``beta1``, from one batched
    quadrature as the module docstring describes.  A zero beta is an
    ordinary row, whose goodput and outage integrands are exactly 0
    (Q1(a, 0) = 1 and log2(1) = 0), so both come out 0.0.
    """
    b0 = np.atleast_1d(np.asarray(beta0, dtype=float))
    b1 = np.atleast_1d(np.asarray(beta1, dtype=float))
    if not np.all((0.0 <= b0) & (b0 < math.inf)):
        raise ValueError("beta0 must be finite and nonnegative")
    if not np.all((0.0 <= b1) & (b1 <= 1.0)):
        raise ValueError("beta1 must lie in [0, 1]")
    rho, k = sys.snr, sys.num_users
    # the rows of the stack: fixed-rate success and outage over beta0, then
    # variable-rate goodput and outage over beta1
    sizes = [b0.size, b0.size, b1.size, b1.size]
    beta = np.concatenate([b0, b0, b1, b1])
    variable = np.repeat([False, False, True, True], sizes)
    failure = np.repeat([False, True, False, True], sizes)
    rated = variable & ~failure
    varpi = imp.alpha_w * imp.delay_corr

    def conditional(x, at):
        """Each node's integrand given the estimate x: its row's Marcum-Q factor, or rate."""
        row_beta, rate = at(beta), at(rated)
        args = np.empty(x.shape, dtype=complex)
        args.real = varpi * np.sqrt(x)
        args.imag = imp.alpha_w * np.sqrt(row_beta * np.where(at(variable), x, 1.0))
        # a beta's success and failure rows share most nodes: each distinct
        # argument pair is evaluated once
        args, inverse = np.unique(args, return_inverse=True)
        q, qc = marcum_q1_pair(args.real, args.imag)
        out = np.where(at(failure), qc[inverse], q[inverse])
        out[rate] *= np.log1p(rho * row_beta[rate] * x[rate]) / _LN2
        return out

    # the variable-rate outage rows also start with ``_decay_points``; the
    # other rows' NaN breakpoints are ignored
    decay = np.full((beta.size, 3), np.nan)
    decay[beta.size - b1.size :] = _decay_points(b1, imp)
    if sys.best_m == sys.m_full:
        orders = np.full(beta.size, k)
        values = _order_expect(
            lambda x, which: conditional(x, lambda v: v[which]), orders, imp.estimate_var,
            points=np.hstack([_order_points(orders, imp.estimate_var), decay]),
        )
    else:
        mix = ScheduledCqiMixture(sys, scale=imp.estimate_var)
        values = mix._integrate(
            lambda mix, x, at: conditional(x, at) * mix.pdf(x), np.zeros(beta.size, int),
            mix.x_max, np.hstack([np.broadcast_to(mix._points(), (beta.size, 2)), decay]),
        )
    success, p0, r1, p1 = np.split(values, np.cumsum(sizes[:-1]))
    r0 = np.array([math.log1p(rho * b) / _LN2 for b in b0.tolist()]) * success
    # probabilities: the quadrature's rounding may not carry an outage past 1
    return r0, np.minimum(p0, 1.0), r1, np.minimum(p1, 1.0)


# ---------------------------------------------------------------------------
# Optimization of the rate-adaptation parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ImpairmentGrid:
    """The impairment attributes the optimizer objectives read, as column arrays.

    Row i holds cell i of a list of ``ImpairmentParams``, so the columns
    broadcast against a (cells, points) array of rate parameters.
    """

    alpha_w: np.ndarray
    delay_corr: np.ndarray
    estimate_var: np.ndarray

    @classmethod
    def of(cls, imps: Sequence[ImpairmentParams]) -> "_ImpairmentGrid":
        return cls(*(
            np.array([getattr(imp, name) for imp in imps], dtype=float)[:, None]
            for name in ("alpha_w", "delay_corr", "estimate_var")
        ))

    def __getitem__(self, rows) -> "_ImpairmentGrid":
        return _ImpairmentGrid(self.alpha_w[rows], self.delay_corr[rows], self.estimate_var[rows])


def _golden_max(f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray):
    """Golden-section maxima of f on each cell's [lo, hi], in lockstep.

    Each cell makes its own comparisons and stops once its bracket is
    ``tol`` wide; every step evaluates f once, at the cells still active.
    Returns the midpoints of the final brackets and f there.
    """
    lo, hi = lo.copy(), hi.copy()
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    cells = np.arange(lo.size)
    fc, fd = f(np.stack([c, d], axis=1), cells).T.copy()
    rows = cells[hi - lo > tol]
    while rows.size:
        left = fc[rows] >= fd[rows]
        l, r = rows[left], rows[~left]
        hi[l], d[l], fd[l] = d[l], c[l], fc[l]
        c[l] = hi[l] - _INV_GOLDEN * (hi[l] - lo[l])
        lo[r], c[r], fc[r] = c[r], d[r], fd[r]
        d[r] = lo[r] + _INV_GOLDEN * (hi[r] - lo[r])
        fx = f(np.where(left, c[rows], d[rows])[:, None], rows)[:, 0]
        fc[l], fd[r] = fx[left], fx[~left]
        rows = rows[hi[rows] - lo[rows] > tol[rows]]
    x = 0.5 * (lo + hi)
    return x, f(x[:, None], cells)[:, 0]


def _bracket(xs: np.ndarray, fx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the neighbours of the first maximum of fx among the points xs, clipped."""
    n = xs.shape[1]
    idx = np.argmax(fx, axis=1)
    rows = np.arange(len(xs))
    return xs[rows, np.maximum(idx - 1, 0)], xs[rows, np.minimum(idx + 1, n - 1)]


def optimize_beta1_grid(sys: SystemConfig, imps: Sequence[ImpairmentParams]):
    """Backoffs maximizing the full-feedback mean-value goodput at each impairment cell.

    Optimizes over [0, 1] by a 41-point grid bracket, then golden-section
    search to 1e-6, all cells in lockstep.  Returns arrays (beta1*,
    goodput approximation at the optimum), one entry per cell.  The
    matched feedback amount M* does not depend on the impairments: callers
    take it once per system from ``minimum_best_m(sys, gamma).exact``.
    """
    k, snr = sys.num_users, sys.snr
    grid = _ImpairmentGrid.of(imps)

    def f(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return i3_jensen(x, k, grid[rows], snr)

    xs = np.tile(np.linspace(0.0, 1.0, 41), (len(imps), 1))
    lo, hi = _bracket(xs, f(xs, np.arange(len(imps))))
    return _golden_max(f, lo, hi, np.full(len(imps), 1e-6))


def optimize_beta0_grid(sys: SystemConfig, imps: Sequence[ImpairmentParams]):
    """Thresholds maximizing the full-feedback fixed-rate goodput at each impairment cell.

    Each cell's domain starts at (1-sigma_w^2)*(ln K + 6), where the max
    of K estimates concentrates, and a 65-point grid brackets the optimum
    because unimodality is not guaranteed.  While a cell's best point seen
    has the domain's end as its right neighbour, the domain grows by 1.6x
    and only the new interval is gridded, with 24 points that fall on the
    65-point grid of the grown domain; the bracket is the best point's
    neighbours among all points evaluated.  Golden-section search then runs
    to 1e-6 * max(hi, 1), hi the cell's final domain, all cells in lockstep.
    Returns arrays (beta0*, goodput at the optimum), one entry per cell.
    """
    k, snr = sys.num_users, sys.snr
    grid = _ImpairmentGrid.of(imps)

    def f(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.log1p(snr * x) / _LN2 * i2(x, k, grid[rows])

    hi = grid.estimate_var[:, 0] * (math.log(k) + 6.0)
    rows = np.arange(len(imps))
    lo_b, hi_b = np.empty_like(hi), np.empty_like(hi)
    xs = np.linspace(0.0, hi, 65, axis=1)
    fx = f(xs, rows)
    for grids in range(1, 41):
        lo_b[rows], hi_b[rows] = _bracket(xs, fx)
        grow = hi_b[rows] == hi[rows]
        if grids == 40 or not grow.any():
            break
        # the best point is one of the last two, so the last three points
        # hold its bracket on the grown domain
        rows, xs, fx = rows[grow], xs[grow, -3:], fx[grow, -3:]
        new = np.linspace(hi[rows], 1.6 * hi[rows], 25, axis=1)[:, 1:]
        hi[rows] = new[:, -1]
        xs = np.concatenate([xs, new], axis=1)
        fx = np.concatenate([fx, f(new, rows)], axis=1)
    return _golden_max(f, lo_b, hi_b, 1e-6 * np.maximum(hi, 1.0))


def optimize_beta1(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """``optimize_beta1_grid`` at one impairment cell: (beta1*, goodput approximation)."""
    b1, r1 = optimize_beta1_grid(sys, [imp])
    return float(b1[0]), float(r1[0])


def optimize_beta0(sys: SystemConfig, imp: ImpairmentParams) -> tuple[float, float]:
    """``optimize_beta0_grid`` at one impairment cell: (beta0*, goodput)."""
    b0, r0 = optimize_beta0_grid(sys, [imp])
    return float(b0[0]), float(r0[0])
