"""Vectorized adaptive quadrature shared by the analytic and goodput engines.

``quad_checked`` integrates a stack of integrals in one refinement loop;
scalar limits make a stack of one.  Each integral has its own interval,
breakpoints and pool of panels, to which the 21-point Gauss-Kronrod rule
(10-point Gauss embedded) is applied.  The integrand is array-valued: each
refinement level evaluates it once, on every node of every panel being
refined in any integral, and is told which integral each node belongs to.
Panel errors use the QUADPACK estimate, so they mean what
``scipy.integrate.quad``'s ``abserr`` means.  Each level bisects, in each
integral still refining, the panels with the largest errors, as many as it
takes for that integral's remaining error to fit within half its
tolerance, until its total error estimate is at most ``1e-10 * |value|``
or its pool holds ``_LIMIT`` panels.  An integral that has stopped is not
evaluated again, and no integral's arithmetic depends on the others in the
stack, so each result equals the one a call on that integral alone returns.

The accuracy contract is relative to each integral's own value, with no
absolute floor: a value of 1e-74 is held to the same ten digits as one of
order 1.  It suits the nonnegative integrands of the library (densities
times probabilities and rates), whose values carry no cancellation.
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

# Panels an integral may hold.
_LIMIT = 300


def _kronrod_sums(fx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of each row of fx.

    ``einsum`` sums each row alike; a BLAS gemv may round trailing rows
    differently, which would tie a panel's sums to its place in the batch.
    """
    return np.einsum("ij,j->i", fx, weights)


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray, which: np.ndarray):
    """Per-panel Kronrod estimates and QUADPACK error estimates, one call of f.

    Panel i belongs to integral ``which[i]``; f gets that index at each node.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    owner = np.repeat(which, _NODES.size)
    # an integrand past the float range gives inf or NaN, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(f(x.ravel(), owner), dtype=float)
    fx = np.broadcast_to(fx, (x.size,)).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        panel, node = np.argwhere(~np.isfinite(fx))[0]
        raise QuadratureError(f"integral {which[panel]}: integrand is not finite "
                              f"at x={float(x[panel, node])!r}")
    kronrod = _kronrod_sums(fx, _KRONROD_WEIGHTS)
    err = np.abs((kronrod - _kronrod_sums(fx, _GAUSS_WEIGHTS)) * half)
    resasc = _kronrod_sums(np.abs(fx - 0.5 * kronrod[:, None]), _KRONROD_WEIGHTS) * half
    resabs = _kronrod_sums(np.abs(fx), _KRONROD_WEIGHTS) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def _initial_pool(a: np.ndarray, b: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """Each integral's first panels, split at its breakpoints inside (a, b).

    Returns (pool, panel counts): ``pool[0]`` and ``pool[1]`` hold the
    panels' ends, one row per integral with its panels first and NaN after.
    """
    inner = np.asarray(points, dtype=float)
    edges = np.empty((a.size, 2 + inner.shape[-1]))
    edges[:, 0], edges[:, 1], edges[:, 2:] = a, b, inner
    edges[:, 2:][~((a[:, None] < edges[:, 2:]) & (edges[:, 2:] < b[:, None]))] = np.nan
    edges.sort(axis=1)  # NaN last
    repeated = edges[:, 1:] == edges[:, :-1]
    if repeated.any():
        edges[:, 1:][repeated] = np.nan
        edges.sort(axis=1)
    pool = np.zeros((4, a.size, edges.shape[1] - 1))
    pool[0], pool[1] = edges[:, :-1], edges[:, 1:]
    return pool, (edges == edges).sum(axis=1) - 1


def quad_checked(f, a, b, *, points=None) -> np.ndarray:
    """Integrals of the array-valued ``f`` over [a, b] with a failure contract.

    ``a`` and ``b`` broadcast to n limits (scalars make n = 1), and the
    result is an array of the n integrals.  ``f(x, which)`` gets the
    abscissae and, per abscissa, the index of its integral; ``points``
    holds each integral's interior breakpoints, which start its panel pool,
    along a trailing axis that broadcasts against (n, p).

    Each integral refines until its error estimate is at most
    ``1e-10 * |value|``, relative to its own value with no absolute floor,
    and is accepted if its value is finite and its error estimate at most
    ``1e-6 * |value|``.  Raises QuadratureError when a limit or the
    integrand at a node is not finite, an integral misses that bound, or
    it holds a panel that the floating-point grid cannot halve.  The
    contract suits nonnegative integrands: a signed integral whose value is
    near 0 refines until it hits the panel limit, then raises.
    """
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    infinite = ~(np.isfinite(a) & np.isfinite(b))
    if infinite.any():
        i = np.flatnonzero(infinite)[0]
        raise QuadratureError(
            f"integral {i}: limits [{float(a[i])!r}, {float(b[i])!r}] are not finite"
        )
    if not np.all(a < b):
        raise ValueError(f"quad_checked needs a < b, got [{a!r}, {b!r}]")
    out = np.empty(a.size)
    if not out.size:
        return out
    # The pool holds (lo, hi, value, error) of each panel, one row per
    # integral still refining: its panels first, then padding of zero value
    # and error.  Every row operation below ignores the padding, so a row's
    # arithmetic does not depend on the width that the other rows set.
    pool, size = _initial_pool(a, b, () if points is None else points)
    ids = np.arange(a.size)
    rows = ids[:, None]
    fresh = np.nonzero(np.arange(pool.shape[2]) < size[:, None])
    while True:
        ends = pool[:2, fresh[0], fresh[1]]
        pool[2:, fresh[0], fresh[1]] = _gauss_kronrod(f, *ends, ids[fresh[0]])
        # panels by falling error; the padding's zero errors sort after the
        # panels', as it sits after them
        pool = pool[:, rows, np.argsort(-pool[3], axis=1, kind="stable")]
        lo, hi, val, err = pool
        cum = np.cumsum(err, axis=1)
        error = cum[:, -1]
        value = np.array([math.fsum(row) for row in val.tolist()])
        tol = 1e-10 * np.abs(value)
        # split as many panels as it takes for the rest to fit in half the
        # tolerance (at most all of them: nothing remains after the last)
        count = (error[:, None] - cum > 0.5 * tol[:, None]).sum(axis=1)
        split = np.minimum(count + 1, _LIMIT - size)
        mid = 0.5 * (lo + hi)
        done = (error <= tol) | (size >= _LIMIT)
        # a panel at the resolution of the floating-point grid fails its
        # integral, converged or not: its nodes have collapsed onto a few
        # floats, so the error estimate means nothing
        narrow = ((mid <= lo) | (mid >= hi)) & (np.arange(mid.shape[1]) < size[:, None])
        if narrow.any():
            i = np.flatnonzero(narrow.any(axis=1))[0]
            raise QuadratureError(
                f"integral {ids[i]}: a panel reached floating-point resolution; "
                f"error estimate {float(error[i])!r} on {size[i]} panels is void"
            )
        if done.any():
            _check(ids[done], value[done], error[done], size[done])
            out[ids[done]] = value[done]
            go = ~done
            ids, size, split, pool, mid = ids[go], size[go], split[go], pool[:, go], mid[go]
            if not ids.size:
                break
            rows = rows[: ids.size]
        # the next row: the kept panels by falling error, then the split
        # panels' left halves, then their right halves
        kept, grown = size - split, size + split
        j = np.arange(grown.max())
        is_kept = j < kept[:, None]
        is_right = j >= size[:, None]
        shift = np.where(is_right, size[:, None], kept[:, None])
        src = np.minimum(j + np.where(is_kept, split[:, None], -shift), pool.shape[2] - 1)
        pool, mid = pool[:, rows, src], mid[rows, src]
        is_fresh = ~is_kept & (j < grown[:, None])
        np.copyto(pool[0], mid, where=is_right)
        np.copyto(pool[1], mid, where=is_fresh & ~is_right)
        pool[2:, ~is_kept] = 0.0
        size = grown
        fresh = np.nonzero(is_fresh)
    return out


def _check(ids, value, error, panels) -> None:
    """Raise QuadratureError for the first stopped integral that fails its contract."""
    failed = ~(np.isfinite(value) & (error <= 1e-6 * np.abs(value)))
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise QuadratureError(
            f"integral {ids[i]}: quadrature error estimate {float(error[i])!r} "
            f"on {panels[i]} panels exceeds 1e-6 of its value {float(value[i])!r}"
        )
