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
max(1e-11, 1e-10 |outage|), and its goodput stays below the perfect-feedback
sum rate at the same M, to 1e-10 relative.

Monte Carlo runs of two to four chunks at 120 dB and at near-perfect
feedback give finite estimates that cross-validate within |z| <= 5 (a z of
NaN, where nothing was observed to vary, is not a disagreement), and on the
default system at alpha_w of 2.6e57 and 1.4e150 within |z| <= 3.  At -200
and -190 dB, where 1 + snr x rounds to 1, both engines' sum rates and
goodputs are positive, grow tenfold with the SNR to 1e-6 relative, and
cross-validate within |z| <= 3.  At 3080 dB, where snr x passes the
float range, every CLI run that would report an inf or NaN exits 3 with no
output, while a fixed-rate run, whose rate stays finite, exits 0; at
-3000 dB the Monte Carlo standard error stays positive and the z finite.
Random CLI argv over every subcommand and figure, at 2 to 64 trials,
exits 0, 2 or 3, or 4 where a cross-validation at so few trials is
flagged, but never 5, and writes finite CSV values.
"""

import csv
import json
import math
import time
from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hetfb import cli, goodput
from hetfb._quad import QuadratureError
from hetfb.analytic import average_sum_rate
from hetfb.channel import Cluster, ImpairmentParams, StrategyParams, SystemConfig
from hetfb.crossval import cross_validate
from hetfb.goodput import fixed_rate_metrics, variable_rate_metrics
from hetfb.montecarlo import CHUNK_TRIALS, ExperimentSpec
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
    try:
        imp = ImpairmentParams(sw2, alpha)
    except ValueError:  # perfect feedback, up to rounding: rejected, tested below
        reject()
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


@pytest.mark.parametrize("sw2", [1e-300, 2.9e-115, 1e-20])
def test_near_perfect_feedback_at_unit_correlation(sw2):
    # alpha_w = sqrt(2 / sigma_w^2) reaches 1.4e150: no closed form may overflow
    imp = ImpairmentParams(sw2, 1.0)
    for m in (4, 16):  # partial and full feedback
        sys = SystemConfig(64, (Cluster(1, 10), Cluster(4, 10)), m, 10.0)
        r0, p0, r1, p1 = goodput._metrics_table(sys, imp, [0.1, 1.5, 20.0], [0.1, 0.7, 1.0])
        rate = average_sum_rate(sys)
        for r in r0.tolist() + r1.tolist():
            assert 0.0 <= r <= rate
        for p in p0.tolist() + p1.tolist():
            assert 0.0 <= p <= 1.0
        for optimize in (goodput.optimize_beta0, goodput.optimize_beta1):
            beta, value = optimize(sys, imp)
            assert math.isfinite(beta) and 0.0 <= value < math.inf
    for b in (8, 40):  # both sides of the order-statistic crossover
        assert 0.0 <= goodput.i2(0.5, b, imp) <= 1.0
        assert 0.0 <= goodput.i4(0.5, b, imp) <= 1.0
        assert 0.0 < goodput.i3_upper_bound(0.5, b, imp, 10.0) < math.inf


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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(systems(), SW2, ALPHA, BETA_GRID, BETA_GRID)
def test_goodput_stays_below_the_sum_rate(sys, sw2, alpha, beta0, beta1):
    try:
        imp = ImpairmentParams(sw2, alpha)
    except ValueError:  # perfect feedback, up to rounding: rejected, tested above
        reject()
    table = _timed(goodput._metrics_table, sys, imp, [20.0 * b for b in beta0], beta1)
    rate = _timed(average_sum_rate, sys)
    if table is None or rate is None:
        return
    r0, _, r1, _ = table
    for r in r0.tolist() + r1.tolist():
        assert r <= rate + 1e-10 * rate


@st.composite
def small_systems(draw) -> SystemConfig:
    """Systems small enough for a few Monte Carlo chunks each."""
    n_rbs = draw(st.sampled_from([8, 16, 32, 64]))
    chosen = sorted(draw(st.sets(st.sampled_from([1, 2, 4]), min_size=1, max_size=2)))
    users = draw(st.lists(st.integers(0, 8), min_size=len(chosen), max_size=len(chosen))
                 .filter(lambda counts: sum(counts) >= 1))
    return SystemConfig(
        num_rbs=n_rbs,
        clusters=tuple(Cluster(s, k) for s, k in zip(chosen, users)),
        best_m=draw(st.integers(1, n_rbs // chosen[-1])),
        snr=10.0 ** (draw(st.floats(-60.0, 120.0)) / 10.0),
    )


NEAR_PERFECT = st.builds(
    ImpairmentParams,
    st.sampled_from([1e-300, 1e-12, 1e-9, 1e-6]),
    st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - 1e-9]),
)
STRATEGIES = st.one_of(st.builds(StrategyParams, beta0=st.floats(0.0, 20.0)),
                       st.builds(StrategyParams, beta1=st.floats(0.0, 1.0)))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(small_systems(), st.one_of(st.none(), st.tuples(NEAR_PERFECT, STRATEGIES)),
       st.integers(CHUNK_TRIALS + 1, 4 * CHUNK_TRIALS), st.integers(0, 2**32 - 1))
def test_monte_carlo_cross_validates_at_the_edges(sys, impaired, trials, seed):
    if impaired is None:  # perfect feedback at 120 dB
        sys, imp, strategy = replace(sys, snr=1e12), None, None
    else:  # near-perfect feedback at the drawn SNR
        imp, strategy = impaired
    spec = ExperimentSpec("subband", sys, impairments=imp, strategy=strategy,
                          trials=trials, seed=seed)
    for entry in cross_validate(spec).entries:
        assert math.isfinite(entry.empirical) and math.isfinite(entry.std_error)
        assert math.isfinite(entry.analytic)
        z = entry.z_score
        assert abs(z) <= 5.0 if math.isfinite(z) else entry.std_error == 0.0


@pytest.mark.parametrize("strategy", [StrategyParams(beta0=5.0), StrategyParams(beta1=0.9)],
                         ids=["fixed", "variable"])
@pytest.mark.parametrize("sw2", [2.9e-115, 1e-300])
def test_monte_carlo_cross_validates_at_a_vast_alpha_w(sw2, strategy):
    # at alpha = 1, alpha_w = sqrt(2 / sw2) is about 2.6e57 and 1.4e150: the
    # actual CQI is the estimate to within its last bits
    imp = ImpairmentParams(sw2, 1.0)
    assert imp.alpha_w > 1e57
    spec = ExperimentSpec("subband", cli.system_from_config(cli.DEFAULT_CONFIG), impairments=imp,
                          strategy=strategy, trials=4 * CHUNK_TRIALS, seed=12345)
    for entry in cross_validate(spec).entries:
        assert math.isfinite(entry.empirical) and math.isfinite(entry.analytic)
        assert abs(entry.z_score) <= 3.0


@pytest.mark.parametrize("strategy", [None, StrategyParams(beta0=0.5), StrategyParams(beta1=0.7)],
                         ids=["perfect", "fixed", "variable"])
def test_rates_are_linear_in_a_vanishing_snr(strategy):
    # the same seed at both SNRs: the draws, schedules and successes agree,
    # and each rate log2(1 + snr x) is snr x / ln 2 to far below 1e-6
    imp = None if strategy is None else ImpairmentParams(0.01, 0.98)
    rates = []
    for snr_db in (-200.0, -190.0):
        sys = SystemConfig(64, (Cluster(1, 10), Cluster(4, 10)), 4, 10.0 ** (snr_db / 10.0))
        spec = ExperimentSpec("subband", sys, impairments=imp, strategy=strategy,
                              trials=4096, seed=17)
        entries = cross_validate(spec).entries
        for entry in entries:
            assert abs(entry.z_score) <= 3.0, entry
        rate = entries[0]
        assert rate.name.endswith(("sum_rate", "goodput"))
        assert rate.empirical > 0.0 and rate.analytic > 0.0
        rates.append((rate.empirical, rate.analytic))
    for low, high in zip(*rates):
        assert high / low == pytest.approx(10.0, rel=1e-6)


@st.composite
def cli_argv(draw) -> list[str]:
    """One command line over every subcommand and figure, at 2 to 64 trials."""
    command = draw(st.sampled_from(["simulate", "analytic", "min-m", "optimize", "figure"]))
    argv = [command] + ([draw(st.sampled_from(sorted(cli._FIGURES)))] if command == "figure"
                        else [])
    argv += ["--trials", str(draw(st.integers(2, 64))), "--seed", str(draw(st.integers(0, 999)))]
    if command == "figure":
        return argv
    argv += ["--set", f"snr_db={draw(st.floats(-60.0, 120.0))!r}",
             "--set", f"best_m={draw(st.integers(1, 17))}"]
    if command in ("simulate", "analytic") and draw(st.booleans()):
        argv += ["--set", f"est_err_var={draw(SW2)!r}", "--set", f"alpha={draw(ALPHA)!r}"]
        if command == "simulate":
            key, top = draw(st.sampled_from([("beta0", 20.0), ("beta1", 1.0)]))
            argv += ["--set", f"{key}={draw(st.floats(0.0, top))!r}"]
            argv += ["--cross-validate"] if draw(st.booleans()) else []
    return argv


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(cli_argv())
def test_cli_exits_with_a_documented_code(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("cli")
    code = cli.run(argv + ["--out", str(out)])
    assert code in (0, 2, 3, 4)  # never 5, an internal error
    if code in (2, 3):
        return
    (path,) = out.glob("*.csv")
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key, text in row.items():
                try:
                    value = float(text)
                except ValueError:  # a metric or series name
                    continue
                assert math.isfinite(value) or (key == "z" and float(row["std_error"]) == 0.0)


IMPAIRED = ["--set", "est_err_var=0.01", "--set", "alpha=0.98"]
SNR_EDGE = ["--set", "snr_db=3080"]
CORRELATED = ["--set", "model=correlated", "--set", "num_subcarriers=256", "--set", "num_taps=16",
              "--set", "pdp_decay=4.0", "--set", 'clusters=[{"eta": 2, "users": 10}]']


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "8"],
        ["simulate", "--trials", "8", *IMPAIRED, "--set", "beta1=0.7"],
        ["simulate", "--trials", "8", *CORRELATED],
        ["analytic", "--users-grid", "5"],
        ["analytic", "--beta-grid", "0.5", *IMPAIRED],
        ["min-m", "--users-grid", "5"],
    ],
    ids=["perfect", "variable-rate", "correlated", "sum-rate", "goodput", "min-m"],
)
def test_rates_past_the_float_range_exit_3(tmp_path, argv, capsys):
    # log2(1 + snr x) overflows: a typed numerical failure, never an inf or
    # NaN in the CSV; the suite runs with RuntimeWarnings as errors, so an
    # unguarded overflow would exit 5 here as under python -W error
    assert cli.run(argv + SNR_EDGE + ["--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "numerical"
    assert not list(tmp_path.iterdir())


def test_fixed_rate_past_the_float_range_of_snr_x_stays_finite(tmp_path):
    # a fixed rate log2(1 + snr beta0) is finite even where snr x is not
    argv = ["simulate", "--trials", "8", *IMPAIRED, "--set", "beta0=1", *SNR_EDGE]
    assert cli.run(argv + ["--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate.csv", newline="") as fh:
        goodput = next(csv.DictReader(fh))
    assert float(goodput["value"]) == pytest.approx(1019.157, abs=1e-3)


def test_cross_validation_at_a_vanishing_snr_has_a_finite_z(tmp_path):
    # at -3000 dB the per-trial rates are about 1e-300: their spread must not underflow to 0
    argv = ["simulate", "--trials", "4096", "--set", "snr_db=-3000", "--cross-validate"]
    assert cli.run(argv + ["--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["std_error"]) > 0.0
    assert float(row["z"]) == pytest.approx(1.1, abs=0.1)
