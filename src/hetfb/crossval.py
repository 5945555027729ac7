"""Cross-validation of the Monte Carlo engine against the closed forms.

The one module that imports both engines: ``montecarlo`` estimates a
metric on the subband channel, ``analytic`` and ``goodput`` give its
closed form, and each entry carries their standardized difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytic, goodput, montecarlo

__all__ = ["CrossValidationEntry", "CrossValidationReport", "cross_validate"]

_Z_FLAG = 3.0


@dataclass(frozen=True)
class CrossValidationEntry:
    name: str
    empirical: float
    std_error: float
    analytic: float

    @property
    def z_score(self) -> float:
        """Standardized difference; at zero standard error, 0 on agreement and NaN otherwise."""
        diff = self.empirical - self.analytic
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else math.nan
        return diff / self.std_error


@dataclass(frozen=True)
class CrossValidationReport:
    entries: tuple[CrossValidationEntry, ...]

    @property
    def flagged(self) -> bool:
        return any(abs(e.z_score) > _Z_FLAG for e in self.entries)


def cross_validate(spec: montecarlo.ExperimentSpec) -> CrossValidationReport:
    """Compare every empirical estimate against its closed-form value.

    Entries carry z = (empirical - analytic) / SE; |z| > 3 flags the
    report.  The analytic outage is divided by the coverage probability to
    match the scheduled-blocks-only empirical convention.
    """
    if spec.model != "subband":
        raise ValueError("cross-validation requires the subband fading model")
    entries = []
    if spec.impairments is None:
        est = montecarlo.run_perfect(spec)
        entries.append(
            CrossValidationEntry(
                "sum_rate", est.value, est.std_error, analytic.average_sum_rate(spec.system)
            )
        )
    else:
        res = montecarlo.run_imperfect(spec)
        coverage = analytic.coverage_prob(spec.system)
        s = spec.strategy
        if s.beta0 is not None:
            r, p = goodput.fixed_rate_metrics(spec.system, spec.impairments, s.beta0)
            prefix = "fixed_rate"
        else:
            r, p = goodput.variable_rate_metrics(spec.system, spec.impairments, s.beta1)
            prefix = "variable_rate"
        entries.append(
            CrossValidationEntry(
                f"{prefix}_goodput", res.goodput.value, res.goodput.std_error, r
            )
        )
        entries.append(
            CrossValidationEntry(
                f"{prefix}_outage", res.outage.value, res.outage.std_error, p / coverage
            )
        )
    return CrossValidationReport(entries=tuple(entries))
