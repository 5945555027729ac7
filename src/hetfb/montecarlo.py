"""Monte Carlo engine: trial orchestration and the channel kernels.

Trials are vectorized in fixed-size chunks; every chunk draws from its own
substream spawned from the master seed, so results are bit-identical for a
given (spec, seed) regardless of how the host schedules the work.  The
chunk width is part of the reproducibility contract: changing it changes
the stream assignment.

Chunks run on a thread pool of min(cpus, chunks, ``_MAX_WORKERS``) workers,
and their per-trial results are reduced in chunk order, so an estimate is
bit-identical at any worker count.  Each worker holds one row block at a
time, so peak block memory is workers x ``_BLOCK_BYTES``.  numpy releases
the interpreter lock in the kernels' array calls (under numpy 2.4 no
6-110 ms call of a draw, partition, comparison, count_nonzero, repeat,
where, log1p or max stalled a counting thread for 0.4 ms), not in the
Python between them.  On 2 vCPUs an imperfect subband chunk (20 users,
64 RBs) took 19-23 ms alone or beside a busy process and 24-28 ms beside
a second chunk thread; eight ran 1.4-1.7x faster on two threads and
1.7-2.1x on two processes, eight correlated chunks 1.6-1.9x on two threads.

The subband model has one draw-and-schedule path: ``_key_blocks`` draws
each cluster's uniform 32-bit keys per row block (``_keys`` reads each row's
own whole raw 64-bit outputs as little-endian halves, the same on every
host, so no key depends on the blocking), and
``_schedule`` maps each cluster's best-M winners (``_winner_cqi``, the
step all schedulers here share) to CQIs and merges the clusters per block.
``_subband_blocks`` realizes imperfect feedback on that path, and
``strategy_comparison`` evaluates the joint, homogeneous and separate
feedback organizations.  The CQI law is Exp(1) quantized at 2^-32 in
probability, with mean about 1 - 2.8e-9; a kept key of 0 maps to CQI 0.0
and counts as unreported.

Rates are log1p(snr x) / ln 2, which keeps its relative precision where
1 + snr x rounds to 1 (snr x below 1.1e-16).

The correlated model multiplies each user's normal tap draws by one real
matrix (``channel._correlated_gain_map``) into the (re, im) pairs of its
scaled subcarrier gains, takes log1p of each pair's squared sum in nats,
and converts to bits once, on the subband CQIs.

Estimators mirror the analytic conventions: the per-block rate and goodput
averages keep idle (never-reported) blocks in the denominator at zero
contribution, while the transmission-outage probability is reported as the
fraction of scheduled blocks whose transmission failed, with the
never-reported fraction exposed separately.

The engine imports only numpy and ``channel``; ``crossval`` checks it
against the closed forms.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    CorrelatedChannelConfig,
    ImpairmentParams,
    StrategyParams,
    SystemConfig,
    _correlated_gain_map,
    _is_power_of_two,
    cluster_feedback_quota,
)

__all__ = [
    "CHUNK_TRIALS",
    "ExperimentSpec",
    "EstimateWithError",
    "ImperfectResult",
    "run_perfect",
    "run_imperfect",
    "run_imperfect_grid",
    "run_strategy_comparison",
    "strategy_comparison",
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

# Probability step of a 32-bit key: k * _KEY_STEP is uniform on [0, 1).
_KEY_STEP = 2.0**-32

_BITS_PER_NAT = 1.0 / math.log(2.0)


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
        if self.strategy is not None and self.impairments is None:
            raise ValueError("a rate-adaptation strategy needs impairments (est_err_var, alpha)")
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
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise FloatingPointError(f"estimate {self.value!r} with standard error "
                                     f"{self.std_error!r} is not finite")


@dataclass(frozen=True)
class ImperfectResult:
    """Goodput, transmission outage (over scheduled blocks), idle fraction."""

    strategy: StrategyParams
    goodput: EstimateWithError
    outage: EstimateWithError
    scheduling_outage: EstimateWithError


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
    def job(seq, t):
        # past the float range a rate is inf (or NaN), which its estimate refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(seq, t)

    workers = _worker_count(len(plan))
    if workers == 1:
        return [job(seq, t) for seq, t in plan]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(lambda args: job(*args), plan))
    finally:
        pool.shutdown(cancel_futures=True)


def _named_estimate(name: str, value: float, std_error: float, trials: int) -> EstimateWithError:
    """The estimate of the metric ``name``; a refusal of a non-finite one names the metric."""
    try:
        return EstimateWithError(value=value, std_error=std_error, trials=trials)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{name} {exc}") from None


def _mean_estimate(samples: np.ndarray, name: str) -> EstimateWithError:
    """The mean of per-trial samples of the metric ``name``, with its standard error.

    Both are taken of the samples scaled by the power of two that brings
    their largest magnitude into [0.5, 1), then scaled back.  That is exact,
    so the result is the unscaled one wherever that neither underflows nor
    overflows, and the squared deviations of rates near 1e-300 keep their
    digits.
    """
    t = samples.size
    _, exp = math.frexp(float(np.max(np.abs(samples), initial=0.0)))
    scaled = np.ldexp(samples, -exp)
    with np.errstate(invalid="ignore"):  # inf - inf: the estimate refuses the NaN spread
        mean, spread = scaled.mean(), scaled.std(ddof=1)
    return _named_estimate(
        name,
        value=math.ldexp(mean, exp),
        std_error=math.ldexp(spread, exp) / math.sqrt(t),
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
    strategy).  A row of n 32-bit keys ties with probability about
    n^2 / 2^33; rows without ties skip the tie pass.
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
    return np.log1p(snr * best).mean(axis=1) * _BITS_PER_NAT


def _winner_cqi(cqi: np.ndarray, quota: int) -> np.ndarray:
    """Best-M winners of (rows, users, subbands) CQIs, in place; 0 where nobody reported.

    Any nonnegative score that increases with the CQI picks the same
    winners, as the subband kernel's 32-bit keys do.  With no users, every
    winner is 0.
    """
    _keep_best(cqi, quota)
    return cqi.max(axis=1, initial=0)


def _keys(rng: np.random.Generator, rows: int, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform uint32 keys of shape (rows, *shape), read one whole row at a time.

    Each row of n keys reads ceil(n / 2) raw 64-bit outputs as little-endian
    halves and keeps its first n, so a key depends only on its row and cell,
    not on how many rows one call draws, and every host reads the same keys.
    An even n equals ``rng.integers(0, 2**32, (rows, *shape), dtype=np.uint32)``
    on a little-endian host.
    """
    n = math.prod(shape)
    raw = rng.bit_generator.random_raw((rows, (n + 1) // 2))
    return raw.astype("<u8", copy=False).view("<u4")[:, :n].reshape(rows, *shape)


def _row_blocks(t: int, row_bytes: int) -> list[int]:
    """Sizes of the row blocks that split ``t`` trials under ``_BLOCK_BYTES``, one row at least."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    return [min(rows, t - lo) for lo in range(0, t, rows)]


def _cluster_streams(seq: np.random.SeedSequence, num_clusters: int):
    """Per-cluster generators of one chunk: CQI draws, then winner noise."""
    rngs = [np.random.default_rng(s) for s in _substreams(seq, 2 * num_clusters)]
    return rngs[:num_clusters], rngs[num_clusters:]


# ---------------------------------------------------------------------------
# Subband-model kernel
# ---------------------------------------------------------------------------


def _key_blocks(sys: SystemConfig, seq, t: int, row_bytes: int):
    """Per row block of one chunk: each cluster's (rows, users, subbands) keys, and noise streams.

    A key k stands in for the CQI |CN(0, 1)|^2 = -log1p(-k 2^-32), an
    increasing map, so best-M on the keys picks the CQIs' winners.
    """
    draws, noise = _cluster_streams(seq, sys.num_clusters)
    shapes = [(c.num_users, sys.num_subbands(g)) for g, c in enumerate(sys.clusters)]
    for r in _row_blocks(t, row_bytes):
        yield [_keys(rng, r, shape) for rng, shape in zip(draws, shapes)], noise


def _schedule(sys: SystemConfig, keys: list[np.ndarray]):
    """Each cluster's best-M winners, selected in place on its keys, and the joint schedule.

    Returns ``(best, winners)``: the maximum over clusters of the winning
    CQIs -log1p(-k 2^-32) on the block grid, the earlier cluster kept on
    ties and 0 on idle blocks; and per cluster ``(top, wins)``, its winning
    CQIs on its subband grid (0 where nobody reported) and the blocks it wins.
    """
    best = np.zeros((len(keys[0]), sys.num_rbs))
    winners = []
    for g, (cluster, k) in enumerate(zip(sys.clusters, keys)):
        top = _winner_cqi(k, cluster_feedback_quota(sys, g)) * -_KEY_STEP
        np.log1p(top, out=top)
        top *= -1.0
        top_blocks = np.repeat(top, cluster.subband_size, axis=1)
        wins = top_blocks > best
        best = np.where(wins, top_blocks, best)
        winners.append((top, wins))
    return best, winners


def _subband_blocks(sys: SystemConfig, imp: ImpairmentParams | None, seq, t: int):
    """Best-M scheduling of one subband-model chunk, one row block at a time.

    Yields ``(best, covered, actual)`` per block, each shaped (rows, num_rbs):
    the scheduled CQI estimate, ``best > 0`` (the scheduled blocks) and, with
    impairments, the scheduled user's actual CQI (else ``None``); both CQIs are 0 when idle.
    The schedule is ``_schedule``'s on ``_key_blocks``' keys; with impairments
    its CQIs are scaled by the estimate variance, which keeps every comparison.

    Realize: given the estimate, h_tilde = alpha*h_hat + n with
    n ~ CN(0, alpha^2 sigma_w^2 + 1 - alpha^2) independent of h_hat, and
    only the winner's actual CQI is read.  So one noise draw per (trial,
    cluster, subband) gives |alpha*sqrt(chi_hat) + n|^2; distinct (cluster,
    subband) pairs are distinct (user, subband) pairs, so the joint law is
    that of independent per-user noise.
    """
    cells = [c.num_users * sys.num_subbands(g) for g, c in enumerate(sys.clusters)]
    # 24 B per cell of the largest cluster, unless every cluster's keys (4 B
    # per cell) and one partition copy and mask (5 B) hold more: blocks
    # sized at the 9 B of one cluster ran 3-4% faster but fill the whole
    # budget, and peak RSS rose 2 MiB; a dozen float block-grid temporaries
    row_bytes = max(24 * max(cells), 4 * sum(cells) + 5 * max(cells)) + 96 * sys.num_rbs
    for keys, noise in _key_blocks(sys, seq, t, row_bytes):
        best, winners = _schedule(sys, keys)
        actual = None
        if imp is not None:
            best *= imp.estimate_var
            actual = np.zeros_like(best)
            for g, (top, wins) in enumerate(winners):
                n = noise[g].standard_normal(top.shape + (2,)) / imp.alpha_w
                amp = imp.delay_corr * np.sqrt(top * imp.estimate_var) + n[..., 0]
                til = np.repeat(amp * amp + n[..., 1] ** 2, sys.clusters[g].subband_size, 1)
                actual = np.where(wins, til, actual)
        yield best, best > 0.0, actual


# ---------------------------------------------------------------------------
# Perfect feedback
# ---------------------------------------------------------------------------


def _group_mean(x: np.ndarray, width: int) -> np.ndarray:
    """Means of consecutive groups of ``width`` entries along the last axis of (rows, users, n).

    One small matrix-vector product per (row, user), which BLAS runs on the
    calling thread several times faster than a reduction over a short axis.
    """
    return x.reshape(*x.shape[:2], x.shape[2] // width, width) @ np.full(width, 1.0 / width)


def _subcarrier_rates(gains, cfg: CorrelatedChannelConfig, users: int, rng, t: int):
    """Rates ln(1 + snr |g|^2) in nats of ``t`` trials, yielded in (rows, users, Nc) blocks.

    ``gains`` is ``cfg``'s gain map at that snr, built once per run and
    shared by the chunk threads, which only read it.
    """
    # per subcarrier: the (re, im) pair (16 B) and its power (8 B); 48 B
    # leaves room for the weights, draws and CQIs
    blocks = _row_blocks(t, 48 * users * cfg.num_subcarriers)
    # the caller is done with a block's rates when it asks for the next, so
    # every block's power and rates reuse one buffer, which kept a fresh
    # allocation per block off the peak RSS
    power = np.empty((blocks[0], users, cfg.num_subcarriers))
    for r in blocks:
        g = gains(rng.standard_normal((r, users, 2 * cfg.num_taps)))
        np.multiply(g, g, out=g)
        # re^2 + im^2 into a contiguous buffer, where log1p takes half the time
        rate = np.add(g[..., 0::2], g[..., 1::2], out=power[:r])
        del g
        yield np.log1p(rate, out=rate)


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

    rates = np.concatenate(_map_chunks(chunk, _chunk_plan(spec.trials, spec.seed)))
    return _mean_estimate(rates, "sum_rate")


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
    converted there from nats to bits, and each coarser size averages those;
    each combination schedules a copy of its size's CQIs.  A scheduled subband contributes log2(1 + snr * CQI)
    of its winner, where the homogeneous strategy delivers the CQI itself.
    The mapping stays because figure 1 and the benchmark's recorded
    reference rest on it; the CQI is 9-14% lower.
    """
    if not combos:
        raise ValueError("correlated_rate_grid needs at least one (subband_size, best_m) combo")
    for eta, m in combos:
        if not _is_power_of_two(eta) or cfg.num_rbs % eta:
            raise ValueError(f"combo {(eta, m)}: subband size is not a power of two "
                             f"dividing num_rbs={cfg.num_rbs}")
        if not 1 <= m <= cfg.num_rbs // eta:
            raise ValueError(f"combo {(eta, m)}: best_m must lie in [1, {cfg.num_rbs // eta}]")
    etas = sorted({eta for eta, _ in combos})
    finest = etas[0]
    gains = _correlated_gain_map(cfg, snr)

    def chunk(seq, t):
        """Per-trial sum rates, one row per combination."""
        blocks = []
        for rate in _subcarrier_rates(gains, cfg, num_users, np.random.default_rng(seq), t):
            fine = _group_mean(rate, finest * cfg.subcarriers_per_rb)
            fine *= _BITS_PER_NAT
            cqi = {finest: fine}
            for e in etas[1:]:
                cqi[e] = _group_mean(fine, e // finest)
            blocks.append([_mean_rate(_winner_cqi(cqi[eta].copy(), m), snr) for eta, m in combos])
        return np.concatenate(blocks, axis=1)

    rates = np.concatenate(_map_chunks(chunk, _chunk_plan(trials, seed)), axis=1)
    return {c: _mean_estimate(r, "sum_rate") for c, r in zip(combos, rates)}


# ---------------------------------------------------------------------------
# Imperfect feedback
# ---------------------------------------------------------------------------


def _ratio_estimate(numer: np.ndarray, denom: np.ndarray, trials: int,
                    name: str) -> EstimateWithError:
    """Pooled ratio of the metric ``name`` with a linearization standard error."""
    mean_d = denom.mean()
    ratio = numer.sum() / denom.sum()
    lin = (numer - ratio * denom) / mean_d
    return _named_estimate(
        name,
        value=float(ratio),
        std_error=float(lin.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
    )


def run_imperfect_grid(
    spec: ExperimentSpec, strategies: list[StrategyParams]
) -> list[ImperfectResult]:
    """Realize several strategies on one shared set of channel draws."""
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
                    rate = math.log1p(rho * s.beta0) * _BITS_PER_NAT
                    success = til > s.beta0
                else:
                    rate = np.log1p(rho * s.beta1 * best) * _BITS_PER_NAT
                    success = til > s.beta1 * best
                stats += [np.where(success, rate, 0.0).sum(axis=1) / n,
                          (covered & ~success).sum(axis=1)]
            blocks.append(stats)
        return np.concatenate(blocks, axis=1)

    stats = np.concatenate(_map_chunks(chunk, _chunk_plan(spec.trials, spec.seed)), axis=1)
    sched = stats[0]
    scheduling_outage = _mean_estimate((n - sched) / n, "scheduling_outage")
    return [
        ImperfectResult(strategy=s, goodput=_mean_estimate(good, "goodput"),
                        outage=_ratio_estimate(failed, sched, spec.trials, "outage"),
                        scheduling_outage=scheduling_outage)
        for s, good, failed in zip(strategies, stats[1::2], stats[2::2])
    ]


def run_imperfect(spec: ExperimentSpec) -> ImperfectResult:
    """Empirical goodput and outage for the strategy configured in ``spec``."""
    if spec.strategy is None:
        raise ValueError("run_imperfect requires strategy parameters")
    return run_imperfect_grid(spec, [spec.strategy])[0]


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

    Each is a row of ``strategy_comparison``: ``joint`` (which equals
    ``run_perfect``), ``homogeneous`` at the common size ``subband_size``,
    and ``separate``.
    """
    rows = {"joint": 0, "homogeneous": 1, "separate": -1}
    if strategy not in rows:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "homogeneous" and subband_size is None:
        raise ValueError("homogeneous comparison needs a common subband size")
    sizes = [subband_size] if strategy == "homogeneous" else []
    rates = strategy_comparison(sys, sizes, trials=trials, seed=seed)
    return _mean_estimate(rates[rows[strategy]], "sum_rate")


def homogeneous_quota(sys: SystemConfig) -> int:
    """Even split of the joint feedback budget across users (ceiling)."""
    total = sum(c.num_users * cluster_feedback_quota(sys, g) for g, c in enumerate(sys.clusters))
    return math.ceil(total / sys.num_users)


def strategy_comparison(sys: SystemConfig, subband_sizes, *, trials: int, seed) -> np.ndarray:
    """Paired per-trial sum rates of the feedback organizations on one channel draw.

    Rows: joint (the subband kernel, equal to ``run_perfect`` at the same
    seed); homogeneous at each common size in ``subband_sizes``, with the
    joint feedback budget split evenly (``homogeneous_quota``): every key's
    rate log(1 + snr z), z = -log1p(-k 2^-32), on its cluster's grid is
    repeated onto a finer common grid or averaged over a coarser one, and a
    scheduled subband delivers the winner's mean rate there; then separate:
    each cluster scheduled alone on its best-M winners, in equal time shares.
    All read the kernel's keys and schedule (``_key_blocks``, ``_schedule``).
    """
    bad = [eta for eta in subband_sizes if not _is_power_of_two(eta) or sys.num_rbs % eta]
    if bad:
        raise ValueError(f"common subband size {bad[0]} is not a power of two dividing num_rbs")
    quota = homogeneous_quota(sys)  # _keep_best keeps every subband of a shorter row
    cells = [c.num_users * sys.num_subbands(g) for g, c in enumerate(sys.clusters)]
    feedback_cells = sys.num_users * sys.num_rbs // min(subband_sizes, default=sys.num_rbs)
    # per cell: every cluster's keys and rates (12 B), one cluster's partition copy and mask
    # (5 B), a common grid's pieces, their concatenation, partition copy and mask (25 B); a
    # dozen float block-grid temporaries
    row_bytes = 12 * sum(cells) + 5 * max(cells) + 25 * feedback_cells + 96 * sys.num_rbs

    def chunk(seq, t):
        blocks = []
        for keys, _ in _key_blocks(sys, seq, t, row_bytes):
            rates = []
            for cluster, k in zip(sys.clusters, keys):
                if subband_sizes:
                    rate = k * -_KEY_STEP
                    np.log1p(rate, out=rate)
                    rate *= -sys.snr
                    rates.append((cluster.subband_size, np.log1p(rate, out=rate)))
            best, winners = _schedule(sys, keys)
            stats = [_mean_rate(best, sys.snr)]
            for eta_fb in subband_sizes:
                cqi = [np.repeat(rate, eta // eta_fb, axis=2) if eta >= eta_fb
                       else _group_mean(rate, eta_fb // eta) for eta, rate in rates]
                nats = _winner_cqi(np.concatenate(cqi, axis=1), quota).mean(axis=1)
                stats.append(nats * _BITS_PER_NAT)
            separate = sum(_mean_rate(top, sys.snr) for top, _ in winners)
            blocks.append(stats + [separate / sys.num_clusters])
        return np.concatenate(blocks, axis=1)

    return np.concatenate(_map_chunks(chunk, _chunk_plan(trials, seed)), axis=1)
