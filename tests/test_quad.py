import math

import mpmath as mp
import numpy as np
import pytest

from hetfb._quad import QuadratureError, quad_checked


def exp_log2_integral(upper: float) -> float:
    """int_0^upper exp(-x) log2(1 + x) dx in 30-digit arithmetic."""
    with mp.workdps(30):
        return float(mp.quad(lambda t: mp.exp(-t) * mp.log1p(t), [0, 1, upper]) / mp.log(2))


def test_smooth_integral_to_machine_precision():
    for upper in (1.0, 10.0, 50.0):
        (got,) = quad_checked(lambda x, which: np.exp(-x) * np.log2(1.0 + x), 0.0, upper)
        assert abs(got - exp_log2_integral(upper)) < 1e-12


def test_breakpoints_resolve_a_kink():
    # |x - 1/3| on [0, 1]: exact value 5/18
    (got,) = quad_checked(lambda x, which: np.abs(x - 1.0 / 3.0), 0.0, 1.0, points=[1.0 / 3.0])
    assert abs(got - 5.0 / 18.0) < 1e-14


def test_adaptive_refinement_resolves_a_steep_step():
    # logistic step of width 1e-5 at x = 1; the integral over [0, 4] is 3
    # up to terms of order exp(-1e5)
    width = 1e-5
    f = lambda x, which: 0.5 * (1.0 + np.tanh((x - 1.0) / (2.0 * width)))
    (got,) = quad_checked(f, 0.0, 4.0)
    assert abs(got - 3.0) < 1e-10


def test_integrand_sees_every_node_of_a_level_at_once():
    calls = []

    def f(x, which):
        calls.append(x.shape)
        return np.sin(x)

    (got,) = quad_checked(f, 0.0, math.pi, points=[1.0, 2.0])
    assert abs(got - 2.0) < 1e-13
    assert calls[0] == (3 * 21,)
    assert all(len(shape) == 1 and shape[0] % 21 == 0 for shape in calls)


def test_constant_integrand_may_return_a_scalar():
    (got,) = quad_checked(lambda x, which: 2.0, 1.0, 4.0)
    assert got == pytest.approx(6.0, abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises(bad):
    with pytest.raises(QuadratureError):
        quad_checked(lambda x, which: np.where(x > 0.5, bad, 1.0), 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_limit_raises_before_any_evaluation(bad):
    # log1p(snr x_max) past the float range is an inf limit: refused, not integrated
    calls = []

    def f(x, which):
        calls.append(x.size)
        return np.exp(-x)

    with pytest.raises(QuadratureError, match="integral 1: .*not finite"):
        quad_checked(f, np.zeros(2), np.array([1.0, bad]))
    with pytest.raises(QuadratureError):
        quad_checked(f, 0.0, math.inf)
    assert not calls


def test_limits_must_be_increasing():
    with pytest.raises(ValueError):
        quad_checked(lambda x, which: np.exp(x), 1.0, 0.0)


def test_unresolved_singularity_raises():
    # 1/x on (0, 1] diverges: the error estimate never meets the tolerance
    with pytest.raises(QuadratureError, match="integral 0"):
        quad_checked(lambda x, which: 1.0 / x, 0.0, 1.0)


# Integrals of different intervals, breakpoints and refinement depths, as
# (f, a, b, points): a smooth one, a kink split at its breakpoint, a steep
# step, and an oscillating one over a long interval that takes many levels.
STACK = [
    (lambda x: np.exp(-x) * np.log2(1.0 + x), 0.0, 10.0, [2.0, 5.0]),
    (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, [1.0 / 3.0, 5.0]),
    (lambda x: 0.5 * (1.0 + np.tanh((x - 1.0) / 2e-5)), 0.0, 4.0, [math.nan, 7.0]),
    (lambda x: np.sin(3.0 * x) ** 2 / (1.0 + x * x), -3.0, 40.0, [1.0, 1.0]),
]


def stacked(funcs):
    """One integrand over a stack: integral i is ``funcs[i]``."""

    def f(x, which):
        out = np.empty_like(x)
        for i, g in enumerate(funcs):
            at = which == i
            out[at] = g(x[at])
        return out

    return f


def stack_args(cases):
    funcs, a, b, points = zip(*cases)
    return stacked(funcs), np.array(a), np.array(b), np.array(points)


class TestBatch:
    def test_equals_single_integral_calls(self):
        got = quad_checked(*stack_args(STACK)[:3], points=stack_args(STACK)[3])
        single = [quad_checked(lambda x, which: f(x), a, b, points=p)[0] for f, a, b, p in STACK]
        assert got.tolist() == single

    def test_result_does_not_depend_on_place_in_the_batch(self):
        # many copies of each integral, interleaved: every copy is the same
        cases = STACK * 40
        f, a, b, points = stack_args(cases)
        got = quad_checked(f, a, b, points=points)
        single = [quad_checked(lambda x, which: g(x), lo, hi, points=p)[0]
                  for g, lo, hi, p in STACK]
        assert got.tolist() == single * 40

    def test_converged_integral_is_not_evaluated_again(self):
        nodes = np.zeros(len(STACK), dtype=int)
        f, a, b, points = stack_args(STACK)

        def counting(x, which):
            nodes[:] += np.bincount(which, minlength=len(STACK))
            return f(x, which)

        quad_checked(counting, a, b, points=points)
        for i, (g, lo, hi, p) in enumerate(STACK):
            seen = []
            quad_checked(lambda x, which: seen.append(x.size) or g(x), lo, hi, points=p)
            assert nodes[i] == sum(seen)
        # the oscillating integral refines longest; the others stop well before it
        assert nodes[3] > 5 * max(nodes[:3])

    def test_integrand_is_told_each_nodes_integral(self):
        seen = []

        def f(x, which):
            seen.append((x.copy(), which.copy()))
            return np.ones_like(x)

        quad_checked(f, np.array([0.0, 10.0]), np.array([1.0, 12.0]))
        x, which = map(np.concatenate, zip(*seen))
        assert np.all((x[which == 0] > 0.0) & (x[which == 0] < 1.0))
        assert np.all((x[which == 1] > 10.0) & (x[which == 1] < 12.0))

    def test_shared_breakpoints_broadcast(self):
        got = quad_checked(lambda x, which: np.abs(x - 0.5), np.zeros(3), np.ones(3),
                           points=[0.5])
        assert got.tolist() == quad_checked(lambda x, which: np.abs(x - 0.5), 0.0, 1.0,
                                            points=[0.5]).tolist() * 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_in_one_integral_raises(self, bad):
        f = stacked([np.exp, lambda x: np.where(x > 0.5, bad, 1.0), np.sin])
        with pytest.raises(QuadratureError):
            quad_checked(f, np.zeros(3), np.ones(3))

    def test_each_integral_keeps_its_failure_contract(self):
        # 1/x on (0, 1] diverges; the integral beside it converges
        f = stacked([lambda x: 1.0 / x, np.exp])
        with pytest.raises(QuadratureError, match="integral 0"):
            quad_checked(f, np.zeros(2), np.ones(2))

    def test_limits_checked_per_integral(self):
        with pytest.raises(ValueError):
            quad_checked(lambda x, which: x, np.array([0.0, 2.0]), np.array([1.0, 1.0]))

    def test_empty_stack(self):
        assert quad_checked(lambda x, which: x, np.zeros(0), np.ones(0)).shape == (0,)


def test_tiny_value_is_held_relative_to_itself():
    # the contract has no absolute floor: a value of 1e-34 gets ten digits
    (got,) = quad_checked(lambda x, which: 1e-30 * np.exp(-x / 1e-4), 0.0, 1.0)
    exact = 1e-34 * -math.expm1(-1e4)
    assert abs(got - exact) <= 1e-10 * exact


def test_signed_integral_near_zero_raises():
    # sin over a whole period is 0: no error estimate fits 1e-10 of it, so
    # the integral refines to the panel limit and raises
    with pytest.raises(QuadratureError, match="integral 0"):
        quad_checked(lambda x, which: np.sin(x), 0.0, 2.0 * math.pi)


@pytest.mark.parametrize("ulps", [8, 64])
def test_step_below_the_float_grid_raises(ulps):
    # a unit step at the middle of [1, 1 + ulps*eps]: the panel holding it
    # cannot be halved, and the rule on its collapsed nodes reads 25% (8) or
    # 3.1% (64) low with an error estimate near 1e-29
    eps = np.finfo(float).eps
    mid = 1.0 + ulps * eps / 2.0
    f = stacked([np.exp, lambda x: (x > mid).astype(float)])
    with pytest.raises(QuadratureError, match="integral 1: .*floating-point resolution"):
        quad_checked(f, np.array([0.0, 1.0]), np.array([1.0, 1.0 + ulps * eps]))
