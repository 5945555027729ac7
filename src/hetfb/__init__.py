"""Heterogeneous best-M partial-feedback OFDMA downlink toolkit.

Monte Carlo simulation of correlated and subband-fading channels with
opportunistic scheduling, closed-form average sum rate / goodput / outage
under perfect and imperfect feedback, and optimization of the feedback
amount and the rate-adaptation parameters.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    SystemConfig,
    apply_impairments,
    conditional_pdf_actual,
    gen_correlated_channel,
    gen_subband_fading,
    pdp_exponential,
    subcarrier_correlation,
)
from .feedback import (
    FeedbackReport,
    best_m_select,
    cluster_feedback_quota,
    cqi_subband_avg_rate,
    subband_reports,
)
from .scheduler import (
    ScheduleDecision,
    TransmissionOutcome,
    realize_fixed_rate,
    realize_variable_rate,
    schedule,
)
from .analytic import (
    CoefficientTable,
    FeedbackSetDistribution,
    MinimumBestM,
    ReportedCqiLaw,
    ScheduledCqiMixture,
    average_sum_rate,
    coverage_prob,
    feedback_set_pmf,
    i1,
    minimum_best_m,
    reported_cqi_cdf,
    selection_coefficients,
    xi_coefficients,
)
from .goodput import (
    IntegralArgs,
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
    bessel_i0,
    bessel_i0e,
    exp_integral_e1,
    exp_integral_e1_scaled,
    gauss_2f1,
    marcum_q1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
