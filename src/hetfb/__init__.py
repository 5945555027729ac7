"""Heterogeneous best-M partial-feedback OFDMA downlink toolkit.

Monte Carlo simulation of correlated and subband-fading channels with
opportunistic scheduling, closed-form average sum rate / goodput / outage
under perfect and imperfect feedback, and optimization of the feedback
amount and the rate-adaptation parameters.
"""

__version__ = "0.1.0"

from .channel import (
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    SystemConfig,
    cluster_feedback_quota,
    pdp_exponential,
)
from .analytic import (
    MinimumBestM,
    ReportedCqiLaw,
    ScheduledCqiMixture,
    average_sum_rate,
    coverage_prob,
    i1,
    minimum_best_m,
)
from .goodput import (
    QuadratureError,
    StrategyParams,
    fixed_rate_metrics,
    i2,
    i3_jensen,
    i3_quadrature,
    i3_upper_bound,
    i4,
    jensen_mean,
    optimize_beta0,
    optimize_beta1,
    variable_rate_metrics,
)
from .montecarlo import (
    CHUNK_TRIALS,
    CrossValidationReport,
    EstimateWithError,
    ExperimentSpec,
    ImperfectResult,
    cross_validate,
    run_imperfect,
    run_imperfect_grid,
    run_perfect,
    run_strategy_comparison,
)
from .specfun import (
    ConvergenceError,
    exp_integral_e1_scaled,
    gauss_2f1,
    marcum_q1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
