"""Trial orchestration and cross-validation against the analytic engine.

Trials are vectorized in fixed-size chunks; every chunk draws from its own
substream spawned from the master seed, so results are bit-identical for a
given (spec, seed) regardless of how the host schedules the work.  The
chunk width is part of the reproducibility contract: changing it changes
the stream assignment.

Estimators mirror the analytic conventions: the per-block rate and goodput
averages keep idle (never-reported) blocks in the denominator at zero
contribution, while the transmission-outage probability is reported as the
fraction of scheduled blocks whose transmission failed, with the
never-reported fraction exposed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, goodput
from .channel import (
    CorrelatedChannelConfig,
    ImpairmentParams,
    SystemConfig,
    _complex_normal,
    _correlated_gains,
)
from .feedback import cluster_feedback_quota
from .goodput import StrategyParams

__all__ = [
    "CHUNK_TRIALS",
    "ExperimentSpec",
    "EstimateWithError",
    "ImperfectResult",
    "CrossValidationEntry",
    "CrossValidationReport",
    "run_perfect",
    "run_imperfect",
    "run_imperfect_grid",
    "cross_validate",
    "run_strategy_comparison",
    "correlated_rate_grid",
]

# Trials per RNG substream; fixed so serial and scheduled runs agree exactly.
CHUNK_TRIALS = 2048

_Z_FLAG = 3.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: channel model, system, knobs, seed."""

    model: str  # "subband" | "correlated"
    system: SystemConfig
    correlated: CorrelatedChannelConfig | None = None
    impairments: ImpairmentParams | None = None
    strategy: StrategyParams | None = None
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("subband", "correlated"):
            raise ValueError(f"unknown channel model {self.model!r}")
        if self.trials < 2:
            raise ValueError("at least two trials are required")
        if self.model == "correlated":
            if self.correlated is None:
                raise ValueError("the correlated model requires a CorrelatedChannelConfig")
            if self.system.num_clusters != 1:
                raise ValueError("the correlated model is single-cluster")
            if self.correlated.num_rbs != self.system.num_rbs:
                raise ValueError("resource-block counts of system and channel disagree")
            if self.impairments is not None:
                raise ValueError("impairments are modeled on the subband channel only")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 2:
            raise ValueError("an estimate needs at least two trials")


@dataclass(frozen=True)
class ImperfectResult:
    """Goodput, transmission outage (over scheduled blocks), idle fraction."""

    strategy: StrategyParams
    goodput: EstimateWithError
    outage: EstimateWithError
    scheduling_outage: EstimateWithError


@dataclass(frozen=True)
class CrossValidationEntry:
    name: str
    empirical: float
    std_error: float
    analytic: float

    @property
    def z_score(self) -> float:
        return (self.empirical - self.analytic) / self.std_error


@dataclass(frozen=True)
class CrossValidationReport:
    entries: tuple[CrossValidationEntry, ...]

    @property
    def flagged(self) -> bool:
        return any(abs(e.z_score) > _Z_FLAG for e in self.entries)


# ---------------------------------------------------------------------------
# Chunked execution helpers
# ---------------------------------------------------------------------------


def _chunk_plan(trials: int, seed) -> list[tuple[np.random.SeedSequence, int]]:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    seqs = ss.spawn(n_chunks)
    sizes = [CHUNK_TRIALS] * (n_chunks - 1) + [trials - CHUNK_TRIALS * (n_chunks - 1)]
    return list(zip(seqs, sizes))


def _mean_estimate(samples: np.ndarray) -> EstimateWithError:
    t = samples.size
    return EstimateWithError(
        value=float(samples.mean()),
        std_error=float(samples.std(ddof=1) / math.sqrt(t)),
        trials=t,
    )


def _best_m_block_values(values: np.ndarray, quota: int, eta: int) -> np.ndarray:
    """Keep each user's ``quota`` largest values, expand subbands to blocks.

    ``values`` has shape (trials, users, subbands); unreported entries
    come back as -inf.
    """
    top = np.argpartition(-values, quota - 1, axis=2)[:, :, :quota]
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, top, True, axis=2)
    kept = np.where(mask, values, -np.inf)
    return np.repeat(kept, eta, axis=2)


# ---------------------------------------------------------------------------
# Perfect feedback
# ---------------------------------------------------------------------------


def _perfect_subband_chunk(sys: SystemConfig, rng, t: int) -> np.ndarray:
    reported = []
    for g, cluster in enumerate(sys.clusters):
        z = _draw_subband_sq_gains_cluster(sys, rng, t, g)
        if cluster.num_users == 0:
            continue
        quota = cluster_feedback_quota(sys, g)
        reported.append(_best_m_block_values(z, quota, cluster.subband_size))
    rep = np.concatenate(reported, axis=1)
    best = rep.max(axis=1)
    covered = np.isfinite(best)
    rate = np.where(covered, np.log2(1.0 + sys.snr * np.where(covered, best, 0.0)), 0.0)
    return rate.mean(axis=1)


def _draw_subband_sq_gains_cluster(sys: SystemConfig, rng, t: int, g: int) -> np.ndarray:
    gains = _complex_normal(rng, (t, sys.clusters[g].num_users, sys.num_subbands(g)))
    return np.abs(gains) ** 2


def _perfect_correlated_chunk(
    sys: SystemConfig, cfg: CorrelatedChannelConfig, rng, t: int
) -> np.ndarray:
    rb_rate = _correlated_rb_rates(cfg, sys.snr, sys.num_users, rng, t)
    eta = sys.clusters[0].subband_size
    return _schedule_on_avg_rate(rb_rate, eta, sys.best_m, sys.snr)


def _correlated_rb_rates(
    cfg: CorrelatedChannelConfig, snr: float, users: int, rng, t: int
) -> np.ndarray:
    taps = _complex_normal(rng, (t, users, cfg.num_taps))
    gains = _correlated_gains(cfg, taps)
    rates = np.log2(1.0 + snr * np.abs(gains) ** 2)
    return rates.reshape(t, users, cfg.num_rbs, cfg.subcarriers_per_rb).mean(axis=3)


def _schedule_on_avg_rate(rb_rate: np.ndarray, eta: int, quota: int, snr: float) -> np.ndarray:
    """Best-M scheduling of subband-average-rate CQI; per-trial rate metric.

    Every block scheduled from feedback contributes log2(1 + snr * CQI) of
    the selected user, the same mapping the subband model applies to its
    squared-gain CQI.
    """
    t, users, n = rb_rate.shape
    cqi = rb_rate.reshape(t, users, n // eta, eta).mean(axis=3)
    rep = _best_m_block_values(cqi, quota, eta)
    best = rep.max(axis=1)
    covered = np.isfinite(best)
    rate = np.log2(1.0 + snr * np.where(covered, best, 0.0))
    return np.where(covered, rate, 0.0).mean(axis=1)


def run_perfect(spec: ExperimentSpec) -> EstimateWithError:
    """Empirical average sum rate (bits/s/Hz per block) with perfect feedback."""
    if spec.impairments is not None:
        raise ValueError("run_perfect does not accept impairments")
    rates = []
    for seq, t in _chunk_plan(spec.trials, spec.seed):
        rng = np.random.default_rng(seq)
        if spec.model == "subband":
            rates.append(_perfect_subband_chunk(spec.system, rng, t))
        else:
            rates.append(_perfect_correlated_chunk(spec.system, spec.correlated, rng, t))
    return _mean_estimate(np.concatenate(rates))


def correlated_rate_grid(
    cfg: CorrelatedChannelConfig,
    snr: float,
    num_users: int,
    combos: list[tuple[int, int]],
    trials: int,
    seed,
) -> dict[tuple[int, int], EstimateWithError]:
    """Sum rate of several (subband_size, best_m) choices on shared channels.

    All combinations see the same fading draws, which pins their relative
    ordering down to far fewer trials.
    """
    per_combo = {c: [] for c in combos}
    for seq, t in _chunk_plan(trials, seed):
        rng = np.random.default_rng(seq)
        rb_rate = _correlated_rb_rates(cfg, snr, num_users, rng, t)
        for eta, m in combos:
            per_combo[(eta, m)].append(_schedule_on_avg_rate(rb_rate, eta, m, snr))
    return {c: _mean_estimate(np.concatenate(v)) for c, v in per_combo.items()}


# ---------------------------------------------------------------------------
# Imperfect feedback
# ---------------------------------------------------------------------------


def _imperfect_chunk(sys: SystemConfig, imp: ImpairmentParams, rng, t: int):
    """Selected estimate, selected actual CQI and coverage per block."""
    a = imp.delay_corr
    sd_est = math.sqrt(imp.estimate_var)
    sd_err = math.sqrt(imp.est_error_var)
    sd_innov = math.sqrt(1.0 - a * a)
    reported, actual = [], []
    for g, cluster in enumerate(sys.clusters):
        shape = (t, cluster.num_users, sys.num_subbands(g))
        h_hat = sd_est * _complex_normal(rng, shape)
        w = sd_err * _complex_normal(rng, shape)
        eps = _complex_normal(rng, shape)
        h_til = a * (h_hat + w) + sd_innov * eps
        if cluster.num_users == 0:
            continue
        chi_hat = np.abs(h_hat) ** 2
        chi_til = np.abs(h_til) ** 2
        quota = cluster_feedback_quota(sys, g)
        reported.append(_best_m_block_values(chi_hat, quota, cluster.subband_size))
        actual.append(np.repeat(chi_til, cluster.subband_size, axis=2))
    rep = np.concatenate(reported, axis=1)
    act = np.concatenate(actual, axis=1)
    sel = rep.argmax(axis=1)
    best = np.take_along_axis(rep, sel[:, None, :], axis=1)[:, 0, :]
    covered = np.isfinite(best)
    best = np.where(covered, best, 0.0)
    til = np.take_along_axis(act, sel[:, None, :], axis=1)[:, 0, :]
    return best, til, covered


def _ratio_estimate(numer: np.ndarray, denom: np.ndarray, trials: int) -> EstimateWithError:
    """Pooled ratio with a linearization standard error."""
    mean_d = denom.mean()
    ratio = numer.sum() / denom.sum()
    lin = (numer - ratio * denom) / mean_d
    return EstimateWithError(
        value=float(ratio),
        std_error=float(lin.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
    )


def run_imperfect_grid(
    spec: ExperimentSpec, strategies: list[StrategyParams]
) -> list[ImperfectResult]:
    """Realize several strategies on one shared set of channel draws."""
    if spec.model != "subband":
        raise ValueError("impairments are modeled on the subband channel only")
    if spec.impairments is None:
        raise ValueError("run_imperfect requires impairment parameters")
    for s in strategies:
        if (s.beta0 is None) == (s.beta1 is None):
            raise ValueError("each strategy must set exactly one of beta0/beta1")

    n = spec.system.num_rbs
    rho = spec.system.snr
    good = [[] for _ in strategies]
    out_blocks = [[] for _ in strategies]
    sched_blocks = []
    for seq, t in _chunk_plan(spec.trials, spec.seed):
        rng = np.random.default_rng(seq)
        best, til, covered = _imperfect_chunk(spec.system, spec.impairments, rng, t)
        sched_blocks.append(covered.sum(axis=1))
        for i, s in enumerate(strategies):
            if s.beta0 is not None:
                rate = math.log2(1.0 + rho * s.beta0)
                success = covered & (til > s.beta0)
                gp = np.where(success, rate, 0.0)
            else:
                rate = np.log2(1.0 + rho * s.beta1 * best)
                success = covered & (til > s.beta1 * best)
                gp = np.where(success, rate, 0.0)
            good[i].append(gp.sum(axis=1) / n)
            out_blocks[i].append((covered & ~success).sum(axis=1))

    sched = np.concatenate(sched_blocks).astype(float)
    results = []
    for i, s in enumerate(strategies):
        gp = np.concatenate(good[i])
        ob = np.concatenate(out_blocks[i]).astype(float)
        results.append(
            ImperfectResult(
                strategy=s,
                goodput=_mean_estimate(gp),
                outage=_ratio_estimate(ob, sched, spec.trials),
                scheduling_outage=_mean_estimate((n - sched) / n),
            )
        )
    return results


def run_imperfect(spec: ExperimentSpec) -> ImperfectResult:
    """Empirical goodput and outage for the strategy configured in ``spec``."""
    if spec.strategy is None:
        raise ValueError("run_imperfect requires strategy parameters")
    return run_imperfect_grid(spec, [spec.strategy])[0]


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def cross_validate(spec: ExperimentSpec) -> CrossValidationReport:
    """Compare every empirical estimate against its closed-form value.

    Entries carry z = (empirical - analytic) / SE; |z| > 3 flags the
    report.  The analytic outage is divided by the coverage probability to
    match the scheduled-blocks-only empirical convention.
    """
    if spec.model != "subband":
        raise ValueError("cross-validation requires the subband fading model")
    entries = []
    if spec.impairments is None:
        est = run_perfect(spec)
        entries.append(
            CrossValidationEntry(
                "sum_rate", est.value, est.std_error, analytic.average_sum_rate(spec.system)
            )
        )
    else:
        res = run_imperfect(spec)
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


# ---------------------------------------------------------------------------
# Strategy comparison (joint / homogeneous / separate feedback)
# ---------------------------------------------------------------------------


def run_strategy_comparison(
    sys: SystemConfig,
    strategy: str,
    *,
    trials: int,
    seed,
    subband_size: int | None = None,
) -> EstimateWithError:
    """Average sum rate of one feedback organization on the subband channel.

    ``joint``        per-cluster subband sizes with scaled quotas;
    ``homogeneous``  one common feedback subband size for everybody, with
                     the same total feedback budget split evenly (CQI is
                     the subband average rate when the feedback unit is
                     coarser than the true coherence);
    ``separate``     clusters served one at a time in equal time shares,
                     only the served cluster reports.
    """
    if strategy == "joint":
        return run_perfect(ExperimentSpec("subband", sys, trials=trials, seed=seed))
    if strategy == "homogeneous":
        if subband_size is None:
            raise ValueError("homogeneous comparison needs a common subband size")
        return _run_homogeneous(sys, subband_size, trials, seed)
    if strategy == "separate":
        return _run_separate(sys, trials, seed)
    raise ValueError(f"unknown strategy {strategy!r}")


def homogeneous_quota(sys: SystemConfig) -> int:
    """Even split of the joint feedback budget across users (ceiling)."""
    total = sum(cluster_feedback_quota(sys, g) for g in range(sys.num_clusters))
    return math.ceil(total / sys.num_clusters)


def _run_homogeneous(sys: SystemConfig, eta_fb: int, trials: int, seed) -> EstimateWithError:
    n = sys.num_rbs
    if n % eta_fb:
        raise ValueError("the common subband size must divide num_rbs")
    quota = min(homogeneous_quota(sys), n // eta_fb)
    rates = []
    for seq, t in _chunk_plan(trials, seed):
        rng = np.random.default_rng(seq)
        blocks = []
        for g, cluster in enumerate(sys.clusters):
            z = _draw_subband_sq_gains_cluster(sys, rng, t, g)
            if cluster.num_users == 0:
                continue
            blocks.append(np.repeat(z, cluster.subband_size, axis=2))
        rate_blocks = np.log2(1.0 + sys.snr * np.concatenate(blocks, axis=1))
        users = rate_blocks.shape[1]
        cqi = rate_blocks.reshape(t, users, n // eta_fb, eta_fb).mean(axis=3)
        rep = _best_m_block_values(cqi, quota, eta_fb)
        sel = rep.argmax(axis=1)
        covered = np.isfinite(np.take_along_axis(rep, sel[:, None, :], axis=1)[:, 0, :])
        actual = np.take_along_axis(rate_blocks, sel[:, None, :], axis=1)[:, 0, :]
        rates.append(np.where(covered, actual, 0.0).mean(axis=1))
    return _mean_estimate(np.concatenate(rates))


def _run_separate(sys: SystemConfig, trials: int, seed) -> EstimateWithError:
    from .channel import Cluster

    seqs = np.random.SeedSequence(seed).spawn(sys.num_clusters)
    per_cluster = []
    for g, cluster in enumerate(sys.clusters):
        quota = cluster_feedback_quota(sys, g)
        solo = SystemConfig(
            num_rbs=sys.num_rbs,
            clusters=(Cluster(cluster.subband_size, cluster.num_users),),
            best_m=quota,
            snr=sys.snr,
        )
        per_cluster.append(
            run_perfect(ExperimentSpec("subband", solo, trials=trials, seed=seqs[g]))
        )
    g_count = sys.num_clusters
    value = sum(e.value for e in per_cluster) / g_count
    se = math.sqrt(sum(e.std_error**2 for e in per_cluster)) / g_count
    return EstimateWithError(value=value, std_error=se, trials=trials)
