"""Heterogeneous best-M partial-feedback OFDMA downlink toolkit.

Monte Carlo simulation of correlated and subband-fading channels with
opportunistic scheduling, closed-form average sum rate / goodput / outage
under perfect and imperfect feedback, and optimization of the feedback
amount and the rate-adaptation parameters.

Every export resolves on first access from the module that defines it, so
importing one submodule loads only what that submodule imports.
"""

import importlib

__version__ = "0.1.0"

# Export -> defining module, listed per module; a public submodule lists itself.
_EXPORTS = {
    name: module
    for module, names in {
        "channel": "channel Cluster CorrelatedChannelConfig ImpairmentParams StrategyParams "
        "SystemConfig cluster_feedback_quota pdp_exponential",
        "analytic": "analytic MinimumBestM ReportedCqiLaw ScheduledCqiMixture average_sum_rate "
        "coverage_prob i1 minimum_best_m",
        "goodput": "goodput fixed_rate_metrics i2 i3_jensen i3_quadrature i3_upper_bound i4 "
        "jensen_mean optimize_beta0 optimize_beta1 variable_rate_metrics",
        "montecarlo": "montecarlo CHUNK_TRIALS EstimateWithError ExperimentSpec ImperfectResult "
        "run_imperfect run_imperfect_grid run_perfect run_strategy_comparison",
        "crossval": "CrossValidationReport cross_validate",
        "specfun": "specfun ConvergenceError exp_integral_e1_scaled gauss_2f1 marcum_q1",
        "_quad": "QuadratureError",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return module if name == _EXPORTS[name] else getattr(module, name)
