"""Edge-regime properties of the closed-form goodput and outage metrics.

Configurations are drawn from the whole parameter box, not the paper's
defaults: 16 to 1024 resource blocks, one to three clusters, SNR from -60
to 120 dB, and impairments down to near-perfect feedback.  Every metric is
a finite nonnegative goodput and an outage probability in [0, 1], or the
call raises one of the library's typed errors; either way it ends quickly.
"""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetfb._quad import QuadratureError
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
