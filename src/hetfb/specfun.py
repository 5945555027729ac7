"""Special functions of the closed-form engines: thin ``scipy.special`` wrappers.

Every closed-form expression in the analytic and goodput engines reduces to
four primitives: the scaled exponential integral exp(x)*E1(x), the scaled
modified Bessel function exp(-x)*I0(x), the first-order Marcum-Q function,
with its complement, and the Gaussian hypergeometric function 2F1 on
[0, 1).  Each wrapper checks its domain, then hands the whole argument
array to compiled ufuncs: scalars and arrays broadcast as in numpy, and a
scalar input gives a scalar result.

Marcum Q1
---------
Q1(a, b) is the tail P(X > b^2) of a noncentral chi-square X with two
degrees of freedom and noncentrality a^2; ``marcum_q1c`` is its
complement 1 - Q1 = P(X <= b^2), and ``marcum_q1_pair`` gives both.  In
each branch the smaller of Q1 and 1 - Q1 is evaluated directly and the
other by subtracting it from 1, so neither loses relative precision when
small and the two sum to 1 to within rounding.

* b <= a: the complement is ``chndtr(b^2, 2, a^2)`` and Q1 is 1 minus it.
  Here Q1 >= Q1(a, a) > 1/2, so the subtraction loses nothing.
* b > a: the symmetry Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
  gives Q1 as ``exp(-(a-b)^2/2) * i0e(ab) + chndtr(a^2, 2, b^2)``, a sum of
  two nonnegative terms that keeps full relative precision deep into the
  upper tail; the complement is 1 minus it.  Just above the diagonal, and
  near the origin, this sum exceeds 1/2: there the complement is
  ``chndtr(b^2, 2, a^2)`` and Q1 is 1 minus it, as below the diagonal.
* |a - b| >= 40: Q1 lies within exp(-(a-b)^2/2) < 1e-347 of 0 (b > a) or
  1 (b < a), so it is exactly that double, and so is its complement.
  ``chndtr`` is not called there; it returns NaN once the noncentrality
  passes about 1e11.
* |a - b| < 40 and min(a, b) >= 40 (the near-perfect-feedback regime):
  Q1(a, b) = P(|a + X + iY| > b) for X, Y i.i.d. N(0, 1).  Conditioning on
  Y gives Q1 = E_Y[Phi(a - sqrt(b^2 - Y^2))] up to Phi(-a - b) < Phi(-80),
  evaluated by 32-node Gauss-Hermite quadrature with the square root
  difference in the cancellation-free form (a - b) + Y^2 / (b + sqrt(b^2 -
  Y^2)).  Where b <= a, and so Q1 > 1/2, the complement is averaged
  instead, with Phi of the negated argument.  ``chndtr`` is slow here and
  returns NaN beyond a, b of about 2.5e5; this branch costs a few
  microseconds per element at any size.

Gil, Segura & Temme, "Algorithm 939: Computation of the Marcum
Q-function", ACM TOMS 40(3), 2014, describe these regimes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import chndtr, exp1, hyp2f1, hyperu, i0e, ndtr

__all__ = [
    "ConvergenceError",
    "exp_integral_e1_scaled",
    "bessel_i0e",
    "marcum_q1",
    "marcum_q1c",
    "marcum_q1_pair",
    "gauss_2f1",
]

# Up to here exp(x) is finite and E1(x) is a normal double; beyond it the
# scaled E1 is the Tricomi function U(1, 1, x).
_E1_SCALED_SPLIT = 700.0
# Beyond this distance from the diagonal Q1 rounds to exactly 0 or 1; with
# both arguments at least this large Q1 is a Gauss-Hermite average.
_Q1_SATURATION = 40.0
# Squared abscissae 2t^2 and normalized weights of the 32-node Gauss-Hermite
# rule for an N(0, 1) variable Y, folded onto Y >= 0 (the integrand is even).
_GH_T, _GH_W = hermgauss(32)
_GH_Y2 = 2.0 * _GH_T[_GH_T > 0] ** 2
_GH_WEIGHTS = 2.0 * _GH_W[_GH_T > 0] / math.sqrt(math.pi)


class ConvergenceError(RuntimeError):
    """A special function gave no finite value for in-domain arguments."""


def _finite(name: str, value: np.ndarray):
    if not np.all(np.isfinite(value)):
        raise ConvergenceError(f"{name} is not finite for the given arguments")
    return value[()]


def exp_integral_e1_scaled(x):
    """exp(x) * E1(x), finite for arbitrarily large x."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"exp_integral_e1_scaled requires x > 0, got {x!r}")
    small = np.minimum(x, _E1_SCALED_SPLIT)
    out = np.asarray(np.exp(small) * exp1(small))
    large = x > _E1_SCALED_SPLIT
    if large.any():
        out[large] = hyperu(1.0, 1.0, x[large])
    return out[()]


def bessel_i0e(x):
    """Exponentially scaled exp(-x)*I0(x); finite for all x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"bessel_i0e requires x >= 0, got {x!r}")
    return i0e(x)[()]


def marcum_q1(a, b):
    """First-order Marcum-Q function Q1(a, b) for a, b >= 0.

    Q1(a, b) = int_b^inf t exp(-(t^2+a^2)/2) I0(a t) dt, evaluated through
    the noncentral chi-square CDF or, for large arguments near the diagonal,
    by Gauss-Hermite quadrature, as described in the module docstring.
    """
    return marcum_q1_pair(a, b)[0]


def marcum_q1c(a, b):
    """The complement 1 - Q1(a, b) for a, b >= 0, at full relative precision.

    Takes the branches of ``marcum_q1`` (module docstring), so the two sum
    to 1 to within rounding; where the complement is small it is evaluated
    directly, never as 1 minus a value near 1.
    """
    return marcum_q1_pair(a, b)[1]


def marcum_q1_pair(a, b):
    """(``marcum_q1(a, b)``, ``marcum_q1c(a, b)``) from one evaluation of each branch."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.all(a >= 0) and np.all(b >= 0)):
        raise ValueError(f"Marcum Q1 requires a, b >= 0, got ({a!r}, {b!r})")
    q, qc = np.array(b < a, dtype=float), np.array(b >= a, dtype=float)
    near = np.abs(a - b) < _Q1_SATURATION
    large = near & (np.minimum(a, b) >= _Q1_SATURATION)
    if large.any():
        q[large], qc[large] = _marcum_q1_large(a[large], b[large])
        near &= ~large
    high = near & (b > a)
    ah, bh = a[high], b[high]
    upper = np.exp(-0.5 * (ah - bh) ** 2) * i0e(ah * bh) + chndtr(ah * ah, 2.0, bh * bh)
    q[high], qc[high] = upper, 1.0 - upper
    # below the diagonal, and wherever the sum above passes 1/2, the
    # complement is the noncentral chi-square CDF itself
    over = np.zeros(a.shape, dtype=bool)
    over[high] = upper > 0.5
    low = near & (b <= a) | over
    al, bl = a[low], b[low]
    cdf = chndtr(bl * bl, 2.0, al * al)
    q[low], qc[low] = 1.0 - cdf, cdf
    return _finite("Marcum Q1", np.clip(q, 0.0, 1.0)), _finite("Marcum Q1", np.clip(qc, 0.0, 1.0))


def _marcum_q1_large(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q1, 1 - Q1) for a, b >= 40 within 40 of each other.

    Q1 = E_Y[Phi(a - sqrt(b^2 - Y^2))].  Where b <= a, Q1 >= Q1(a, a) > 1/2
    and the complement E_Y[Phi(sqrt(b^2 - Y^2) - a)] is averaged instead;
    where b > a, Q1 is at most Q1(a, a) < 0.51.  The other side is 1 minus
    the average taken.
    """
    upper = b > a
    a, b = a[:, None], b[:, None]
    shift = _GH_Y2 / (b + np.sqrt(b * b - _GH_Y2))
    arg = (a - b) + shift
    # a row-wise sum, not a matmul: BLAS would make array and scalar calls differ
    small = (ndtr(np.where(upper[:, None], arg, -arg)) * _GH_WEIGHTS).sum(axis=-1)
    return np.where(upper, small, 1.0 - small), np.where(upper, 1.0 - small, small)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for 0 <= z < 1."""
    z, c = np.asarray(z, dtype=float), np.asarray(c, dtype=float)
    if np.any((z < 0) | (z >= 1)):
        raise ValueError(f"gauss_2f1 requires 0 <= z < 1, got z={z!r}")
    if np.any((c <= 0) & (c == np.floor(c))):
        raise ValueError(f"gauss_2f1 pole: c={c!r} is a nonpositive integer")
    return _finite("gauss_2f1", hyp2f1(a, b, c, z))
