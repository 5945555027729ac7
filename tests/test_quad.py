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
        got = quad_checked(lambda x: np.exp(-x) * np.log2(1.0 + x), 0.0, upper)
        assert abs(got - exp_log2_integral(upper)) < 1e-12


def test_breakpoints_resolve_a_kink():
    # |x - 1/3| on [0, 1]: exact value 5/18
    got = quad_checked(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, points=[1.0 / 3.0])
    assert abs(got - 5.0 / 18.0) < 1e-14


def test_adaptive_refinement_resolves_a_steep_step():
    # logistic step of width 1e-5 at x = 1; the integral over [0, 4] is 3
    # up to terms of order exp(-1e5)
    width = 1e-5
    f = lambda x: 0.5 * (1.0 + np.tanh((x - 1.0) / (2.0 * width)))
    assert abs(quad_checked(f, 0.0, 4.0) - 3.0) < 1e-10


def test_integrand_sees_every_node_of_a_level_at_once():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sin(x)

    assert abs(quad_checked(f, 0.0, math.pi, points=[1.0, 2.0]) - 2.0) < 1e-13
    assert calls[0] == (3 * 21,)
    assert all(len(shape) == 1 and shape[0] % 21 == 0 for shape in calls)


def test_constant_integrand_may_return_a_scalar():
    assert quad_checked(lambda x: 2.0, 1.0, 4.0) == pytest.approx(6.0, abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises(bad):
    with pytest.raises(QuadratureError):
        quad_checked(lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0)


def test_limits_must_be_increasing():
    with pytest.raises(ValueError):
        quad_checked(np.exp, 1.0, 0.0)


def test_unresolved_singularity_raises():
    # 1/x on (0, 1] diverges: the error estimate never meets the tolerance
    with pytest.raises(QuadratureError):
        quad_checked(lambda x: 1.0 / x, 0.0, 1.0, limit=50)
