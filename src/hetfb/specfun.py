"""Special functions of the closed-form engines: thin ``scipy.special`` wrappers.

Every closed-form expression in the analytic and goodput engines reduces to
four primitives: the scaled exponential integral exp(x)*E1(x), the scaled
modified Bessel function exp(-x)*I0(x), the first-order Marcum-Q function,
and the Gaussian hypergeometric function 2F1 on [0, 1).  Each wrapper checks its domain, then hands the whole argument
array to compiled ufuncs: scalars and arrays broadcast as in numpy, and a
scalar input gives a scalar result.

Marcum Q1
---------
Q1(a, b) is the tail P(X > b^2) of a noncentral chi-square X with two
degrees of freedom and noncentrality a^2.

* b <= a: ``1 - chndtr(b^2, 2, a^2)``.  Here Q1 >= 1/2 roughly, so the
  subtraction loses nothing.
* b > a: the symmetry Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
  gives ``exp(-(a-b)^2/2) * i0e(ab) + chndtr(a^2, 2, b^2)``, a sum of two
  nonnegative terms that keeps full relative precision deep into the upper
  tail.
* |a - b| >= 40: Q1 lies within exp(-(a-b)^2/2) < 1e-347 of 0 (b > a) or
  1 (b < a), so it is exactly that double.  ``chndtr`` is not called there;
  it returns NaN once the noncentrality passes about 1e11.
* |a - b| < 40 and min(a, b) >= 40 (the near-perfect-feedback regime):
  Q1(a, b) = P(|a + X + iY| > b) for X, Y i.i.d. N(0, 1).  Conditioning on
  Y gives Q1 = E_Y[Phi(a - sqrt(b^2 - Y^2))] up to Phi(-a - b) < Phi(-80),
  evaluated by 32-node Gauss-Hermite quadrature with the square root
  difference in the cancellation-free form (a - b) + Y^2 / (b + sqrt(b^2 -
  Y^2)).  ``chndtr`` is slow here and returns NaN beyond a, b of about
  2.5e5; this branch costs a few microseconds per element at any size.

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
    return np.where(x <= _E1_SCALED_SPLIT, np.exp(small) * exp1(small), hyperu(1.0, 1.0, x))[()]


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
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.all(a >= 0) and np.all(b >= 0)):
        raise ValueError(f"marcum_q1 requires a, b >= 0, got ({a!r}, {b!r})")
    q = np.array(b < a, dtype=float)
    near = np.abs(a - b) < _Q1_SATURATION
    large = near & (np.minimum(a, b) >= _Q1_SATURATION)
    if large.any():
        q[large] = _marcum_q1_large(a[large], b[large])
        near &= ~large
    low = near & (b <= a)
    al, bl = a[low], b[low]
    q[low] = 1.0 - chndtr(bl * bl, 2.0, al * al)
    high = near & (b > a)
    ah, bh = a[high], b[high]
    q[high] = np.exp(-0.5 * (ah - bh) ** 2) * i0e(ah * bh) + chndtr(ah * ah, 2.0, bh * bh)
    return _finite("marcum_q1", np.clip(q, 0.0, 1.0))


def _marcum_q1_large(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q1 = E_Y[Phi(a - sqrt(b^2 - Y^2))] for a, b >= 40 within 40 of each other."""
    a, b = a[:, None], b[:, None]
    shift = _GH_Y2 / (b + np.sqrt(b * b - _GH_Y2))
    # a row-wise sum, not a matmul: BLAS would make array and scalar calls differ
    return (ndtr((a - b) + shift) * _GH_WEIGHTS).sum(axis=-1)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for 0 <= z < 1."""
    z, c = np.asarray(z, dtype=float), np.asarray(c, dtype=float)
    if np.any((z < 0) | (z >= 1)):
        raise ValueError(f"gauss_2f1 requires 0 <= z < 1, got z={z!r}")
    if np.any((c <= 0) & (c == np.floor(c))):
        raise ValueError(f"gauss_2f1 pole: c={c!r} is a nonpositive integer")
    return _finite("gauss_2f1", hyp2f1(a, b, c, z))
