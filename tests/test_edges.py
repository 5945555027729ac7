"""Edge-regime properties of the closed-form sum rate, goodput and outage metrics.

Configurations are drawn from the whole parameter box, not the paper's
defaults: 16 to 1024 resource blocks, one to three clusters, SNR from -60
to 120 dB, and impairments down to near-perfect feedback.  Every metric is
a finite nonnegative goodput and an outage probability in [0, 1], or the
call raises one of the library's typed errors; either way it ends quickly.
The sum rate does not fall by more than 1e-10 relative, the quadrature's
tolerance, as the feedback amount M grows: the mixture route below full
feedback and the order-statistic route at it agree only to that
tolerance.  Each strategy's outage does not fall as its beta grows, to
max(1e-11, 1e-10 |outage|).
"""

import math
import time
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from hetfb import goodput
from hetfb._quad import QuadratureError
from hetfb.analytic import average_sum_rate
from hetfb.channel import Cluster, ImpairmentParams, SystemConfig
from hetfb.goodput import fixed_rate_metrics, variable_rate_metrics
from hetfb.specfun import ConvergenceError

SW2 = st.one_of(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.floats(0.0, 0.99))
ALPHA = st.one_of(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - 1e-9]), st.floats(0.0, 1.0))
TYPED_ERRORS = (ValueError, ConvergenceError, QuadratureError)


@st.composite
def systems(draw) -> SystemConfig:
    n_rbs = draw(st.integers(16, 1024))
    # subband sizes are powers of two that divide the block count
    sizes = [s for s in (1, 2, 4, 8, 16) if n_rbs % s == 0]
    chosen = sorted(draw(st.sets(st.sampled_from(sizes), min_size=1, max_size=3)))
    users = draw(st.lists(st.integers(0, 60), min_size=len(chosen), max_size=len(chosen))
                 .filter(lambda counts: sum(counts) >= 1))
    m_full = n_rbs // chosen[-1]
    return SystemConfig(
        num_rbs=n_rbs,
        clusters=tuple(Cluster(s, k) for s, k in zip(chosen, users)),
        best_m=draw(st.integers(1, m_full)),
        snr=10.0 ** (draw(st.floats(-60.0, 120.0)) / 10.0),
    )


def _timed(metrics, *args):
    """The metric's value, or None for a typed error; either within 2 s."""
    start = time.perf_counter()
    try:
        value = metrics(*args)
    except TYPED_ERRORS:
        value = None
    assert time.perf_counter() - start < 2.0
    return value


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(systems(), SW2, ALPHA, st.floats(0.0, 20.0), st.floats(0.0, 1.0))
def test_metrics_are_probabilities_and_goodputs(sys, sw2, alpha, beta0, beta1):
    assume(not (sw2 == 0.0 and alpha == 1.0))  # perfect feedback: rejected, tested below
    imp = ImpairmentParams(sw2, alpha)
    for metrics, beta in ((fixed_rate_metrics, beta0), (variable_rate_metrics, beta1)):
        value = _timed(metrics, sys, imp, beta)
        if value is None:
            continue
        goodput, outage = value
        assert math.isfinite(goodput) and goodput >= 0.0
        assert 0.0 <= outage <= 1.0


def test_perfect_feedback_is_rejected():
    with pytest.raises(ValueError, match="degenerate impairments"):
        ImpairmentParams(est_error_var=0.0, delay_corr=1.0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(systems(), st.data())
def test_sum_rate_does_not_fall_with_feedback(sys, data):
    # at most 32 feedback amounts, always the step to full feedback
    inner = data.draw(st.sets(st.integers(1, max(sys.m_full - 2, 1)), max_size=30))
    amounts = sorted(inner | {max(sys.m_full - 1, 1), sys.m_full})
    rates = _timed(average_sum_rate, [replace(sys, best_m=m) for m in amounts])
    if rates is None:
        return
    rates = rates.tolist()
    assert all(math.isfinite(r) and r >= 0.0 for r in rates)
    for low, high in zip(rates, rates[1:]):
        assert high >= low - 1e-10 * abs(low)


BETA_GRID = st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12).map(sorted)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(systems(), SW2, ALPHA, BETA_GRID, BETA_GRID)
def test_outage_does_not_fall_with_beta(sys, sw2, alpha, beta0, beta1):
    try:
        imp = ImpairmentParams(sw2, alpha)
    except ValueError:  # perfect feedback, up to rounding: rejected, tested above
        reject()
    table = _timed(goodput._metrics_table, sys, imp, [20.0 * b for b in beta0], beta1)
    if table is None:
        return
    _, p0, _, p1 = table
    for outages in (p0.tolist(), p1.tolist()):
        for low, high in zip(outages, outages[1:]):
            assert high >= low - max(1e-11, 1e-10 * abs(low))
