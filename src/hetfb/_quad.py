"""Vectorized adaptive quadrature shared by the analytic and goodput engines.

``quad_checked`` applies the 21-point Gauss-Kronrod rule (10-point Gauss
embedded) to a pool of panels.  The integrand is array-valued: each
refinement level evaluates it once, on every node of every panel being
refined.  Panel errors use the QUADPACK estimate, so they mean what
``scipy.integrate.quad``'s ``abserr`` means.  Each level bisects the panels
with the largest errors, as many as it takes for the remaining error to fit
within half the tolerance, until the total error estimate meets
``max(1e-11, 1e-10 * |value|)`` or the pool holds ``limit`` panels.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "quad_checked"]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


# Positive Kronrod abscissae (descending, ending with the centre) and their
# weights; the odd-indexed abscissae are the 10-point Gauss nodes, with
# weights _WG.  Constants of QUADPACK's qk21.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# The 21 nodes on [-1, 1] in ascending order with their Kronrod and Gauss
# weights (zero Gauss weight on the Kronrod-only nodes).
_GAUSS_WEIGHT = tuple(_WG[k // 2] if k % 2 else 0.0 for k in range(10)) + (0.0,)
_NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_KRONROD_WEIGHTS = np.array(_WGK[:-1] + tuple(reversed(_WGK)))
_GAUSS_WEIGHTS = np.array(_GAUSS_WEIGHT[:-1] + tuple(reversed(_GAUSS_WEIGHT)))

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel Kronrod estimates and QUADPACK error estimates, one call of f."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = np.broadcast_to(np.asarray(f(x.ravel()), dtype=float), (x.size,)).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        bad = x[~np.isfinite(fx)][0]
        raise QuadratureError(f"integrand is not finite at x={bad!r}")
    kronrod = fx @ _KRONROD_WEIGHTS
    err = np.abs((kronrod - fx @ _GAUSS_WEIGHTS) * half)
    resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS * half
    resabs = np.abs(fx) @ _KRONROD_WEIGHTS * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def quad_checked(
    f,
    a: float,
    b: float,
    *,
    points=None,
    limit: int = 300,
    abs_fail: float = 1e-7,
) -> float:
    """Integral of the array-valued ``f`` over [a, b] with a failure contract.

    ``f`` maps a 1-d array of abscissae to an array of the same shape.
    ``points`` are interior breakpoints that start the panel pool.  Raises
    QuadratureError when the integrand is not finite at a node, when the
    rule stops short of the tolerance with an error estimate above
    ``abs_fail``, or when the error estimate exceeds
    ``max(abs_fail, 1e-6 * |value|)``.
    """
    if not a < b:
        raise ValueError(f"quad_checked needs a < b, got [{a!r}, {b!r}]")
    edges = np.unique([a, b, *(p for p in (points or ()) if a < p < b)])
    lo, hi = edges[:-1], edges[1:]
    val, err = _gauss_kronrod(f, lo, hi)
    while True:
        value, error = math.fsum(val), float(err.sum())
        tol = max(1e-11, 1e-10 * abs(value))
        converged = error <= tol
        if converged or lo.size >= limit:
            break
        order = np.argsort(-err, kind="stable")
        remaining = error - np.cumsum(err[order])
        count = int(np.searchsorted(-remaining, -0.5 * tol)) + 1
        split = order[: min(count, limit - lo.size)]
        keep = order[split.size :]
        mid = 0.5 * (lo[split] + hi[split])
        if np.any(mid <= lo[split]) or np.any(mid >= hi[split]):
            break  # panels at the resolution of the floating-point grid
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err = _gauss_kronrod(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))
    if not math.isfinite(value) or (not converged and error > abs_fail):
        raise QuadratureError(
            f"quadrature did not converge: error estimate {error!r} on {lo.size} panels"
        )
    if error > max(abs_fail, 1e-6 * abs(value)):
        raise QuadratureError(f"quadrature error estimate {error!r} too large for value {value!r}")
    return value
