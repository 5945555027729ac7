"""The per-draw reference pipeline: one channel draw, one report, one schedule.

The library simulates with one vectorized kernel (``hetfb.montecarlo``).
This module keeps the readable per-draw chain that the kernel must agree
with, as a test oracle:

* channel realizations of both models and the imperfection model
  (``ChannelRealization``, ``gen_correlated_channel``,
  ``gen_subband_fading``, ``apply_impairments``);
* CQI computation and best-M selection (``cqi_subband_avg_rate``,
  ``best_m_select``, ``user_offset``, ``subband_reports``);
* per-block argmax scheduling and fixed-/variable-rate realization
  (``schedule``, ``realize_fixed_rate``, ``realize_variable_rate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hetfb.channel import (
    CorrelatedChannelConfig,
    ImpairmentParams,
    SystemConfig,
    _complex_normal,
    _correlated_gain_map,
    cluster_feedback_quota,
)

# ---------------------------------------------------------------------------
# Channel realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user complex gains for one fading draw.

    ``gains`` holds one array per cluster, shaped (users, granules); the
    granule is a subcarrier for the correlated model and a subband for the
    subband fading model.
    """

    granularity: str  # "subcarrier" | "subband"
    gains: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.granularity not in ("subcarrier", "subband"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        object.__setattr__(self, "gains", tuple(self.gains))

    def block_gains(self, sys: SystemConfig) -> np.ndarray:
        """Resource-block view (num_users, num_rbs); subband model only."""
        if self.granularity != "subband":
            raise ValueError("block view is defined for subband granularity only")
        parts = []
        for cluster, g in zip(sys.clusters, self.gains):
            parts.append(np.repeat(g, cluster.subband_size, axis=1))
        return np.concatenate(parts, axis=0)


def gen_correlated_channel(
    cfg: CorrelatedChannelConfig, num_users: int, seed
) -> ChannelRealization:
    """Draw subcarrier gains for ``num_users`` users of one cluster.

    Deterministic given (cfg, num_users, seed).
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    rng = np.random.default_rng(seed)
    taps = _complex_normal(rng, (num_users, cfg.num_taps))
    gains = _correlated_gain_map(cfg)(taps)
    return ChannelRealization("subcarrier", (gains,))


def gen_subband_fading(sys: SystemConfig, seed) -> ChannelRealization:
    """Draw i.i.d. unit-variance subband gains for every user and cluster."""
    rng = np.random.default_rng(seed)
    gains = []
    for g in range(sys.num_clusters):
        shape = (sys.clusters[g].num_users, sys.num_subbands(g))
        gains.append(_complex_normal(rng, shape))
    return ChannelRealization("subband", tuple(gains))


def apply_impairments(
    realization: ChannelRealization, imp: ImpairmentParams, seed
) -> tuple[ChannelRealization, ChannelRealization]:
    """Derive (estimated, actual) gains from a unit-variance fading draw.

    The input draw supplies the normalized estimate: ``h_hat`` is the draw
    scaled to variance 1-sigma_w^2, so that ``h = h_hat + w`` has unit
    variance.  The actual channel evolves by the Gauss-Markov step
    ``h_tilde = alpha*(h_hat+w) + sqrt(1-alpha^2)*eps`` with fresh i.i.d.
    noise per user and subband.  Deterministic given (realization, imp,
    seed).
    """
    rng = np.random.default_rng(seed)
    a = imp.delay_corr
    sd_est = math.sqrt(imp.estimate_var)
    sd_err = math.sqrt(imp.est_error_var)
    sd_innov = math.sqrt(1.0 - a * a)
    est, actual = [], []
    for gains in realization.gains:
        h_hat = sd_est * gains
        w = sd_err * _complex_normal(rng, gains.shape)
        eps = _complex_normal(rng, gains.shape)
        est.append(h_hat)
        actual.append(a * (h_hat + w) + sd_innov * eps)
    return (
        ChannelRealization(realization.granularity, tuple(est)),
        ChannelRealization(realization.granularity, tuple(actual)),
    )


# ---------------------------------------------------------------------------
# Feedback
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackReport:
    """One user's reported (subband index, CQI) pairs, best first."""

    user: int
    cluster: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((int(i), float(v)) for i, v in self.entries))
        indices = [i for i, _ in self.entries]
        if len(set(indices)) != len(indices):
            raise ValueError("reported subband indices must be distinct")


def cqi_subband_avg_rate(gains: np.ndarray, snr_per_subcarrier: float) -> float:
    """Average rate (bits/s/Hz) over one subband's subcarrier gains."""
    gains = np.asarray(gains)
    if gains.size == 0:
        raise ValueError("a subband must contain at least one subcarrier")
    return float(np.mean(np.log2(1.0 + snr_per_subcarrier * np.abs(gains) ** 2)))


def best_m_select(cqis, m: int) -> list[tuple[int, float]]:
    """The m largest CQI values with their indices, descending.

    Ties break toward the lower index so results are reproducible.
    """
    cqis = np.asarray(cqis, dtype=float)
    if not 1 <= m <= cqis.size:
        raise ValueError(f"m must lie in [1, {cqis.size}], got {m}")
    order = sorted(range(cqis.size), key=lambda i: (-cqis[i], i))
    return [(i, float(cqis[i])) for i in order[:m]]


def user_offset(sys: SystemConfig, g: int) -> int:
    """Global id of the first user in cluster ``g``."""
    return sum(c.num_users for c in sys.clusters[:g])


def subband_reports(realization: ChannelRealization, sys: SystemConfig) -> list[FeedbackReport]:
    """Best-M feedback from a subband fading draw (CQI = squared gain)."""
    if realization.granularity != "subband":
        raise ValueError("subband_reports requires subband granularity")
    reports = []
    for g, gains in enumerate(realization.gains):
        quota = cluster_feedback_quota(sys, g)
        for k in range(gains.shape[0]):
            cqis = np.abs(gains[k]) ** 2
            reports.append(
                FeedbackReport(
                    user=user_offset(sys, g) + k,
                    cluster=g,
                    entries=tuple(best_m_select(cqis, quota)),
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleDecision:
    """Selected user and reported CQI per resource block (-1/NaN = idle)."""

    user: np.ndarray  # (num_rbs,) int, -1 where no user reported
    cqi: np.ndarray  # (num_rbs,) float, NaN where no user reported

    @property
    def scheduled(self) -> np.ndarray:
        return self.user >= 0


@dataclass(frozen=True)
class TransmissionOutcome:
    """Attempted rate, success flag and goodput per resource block.

    The success flag is meaningful on scheduled blocks only; blocks in
    scheduling outage carry zero attempted rate and zero goodput.
    """

    attempted: np.ndarray
    success: np.ndarray
    goodput: np.ndarray


def schedule(reports: list[FeedbackReport], sys: SystemConfig) -> ScheduleDecision:
    """Argmax of reported CQI per block; ties go to the lowest user id.

    Each report covers the ``subband_size`` blocks of its cluster's
    subband grid; blocks nobody reported are left idle.
    """
    n = sys.num_rbs
    best_cqi = np.full(n, -np.inf)
    best_user = np.full(n, -1, dtype=int)
    for rep in sorted(reports, key=lambda r: r.user):
        eta = sys.clusters[rep.cluster].subband_size
        for subband, value in rep.entries:
            lo = subband * eta
            for block in range(lo, lo + eta):
                if value > best_cqi[block]:
                    best_cqi[block] = value
                    best_user[block] = rep.user
    cqi = np.where(best_user >= 0, best_cqi, np.nan)
    return ScheduleDecision(user=best_user, cqi=cqi)


def _attempt(decision: ScheduleDecision, actual_cqi: np.ndarray, rate, threshold):
    scheduled = decision.scheduled
    blocks = np.arange(decision.user.size)
    actual = np.where(
        scheduled, actual_cqi[np.where(scheduled, decision.user, 0), blocks], np.nan
    )
    attempted = np.where(scheduled, rate, 0.0)
    success = scheduled & (actual > threshold)
    goodput = np.where(success, attempted, 0.0)
    return TransmissionOutcome(attempted=attempted, success=success, goodput=goodput)


def realize_fixed_rate(
    decision: ScheduleDecision, actual_cqi: np.ndarray, beta0: float, snr: float
) -> TransmissionOutcome:
    """Transmit at log2(1+snr*beta0); outage when the actual CQI <= beta0.

    ``actual_cqi`` is the (num_users, num_rbs) block view of the actual
    channel quality.
    """
    if beta0 < 0:
        raise ValueError("beta0 must be nonnegative")
    rate = math.log2(1.0 + snr * beta0)
    return _attempt(decision, actual_cqi, rate, beta0)


def realize_variable_rate(
    decision: ScheduleDecision, actual_cqi: np.ndarray, beta1: float, snr: float
) -> TransmissionOutcome:
    """Transmit at log2(1+snr*beta1*reported); outage when actual <= beta1*reported."""
    if not 0.0 <= beta1 <= 1.0:
        raise ValueError("beta1 must lie in [0, 1]")
    reported = np.where(decision.scheduled, decision.cqi, 0.0)
    rate = np.log2(1.0 + snr * beta1 * reported)
    return _attempt(decision, actual_cqi, rate, beta1 * reported)
