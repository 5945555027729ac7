import math
import os
import time
import tracemalloc

import numpy as np
import pytest

import hetfb.montecarlo as mc
from hetfb.analytic import average_sum_rate, coverage_prob, i1
from hetfb.channel import (
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    SystemConfig,
    pdp_exponential,
)
from hetfb.goodput import StrategyParams, fixed_rate_metrics
from hetfb.montecarlo import (
    CHUNK_TRIALS,
    EstimateWithError,
    ExperimentSpec,
    _cluster_streams,
    _keep_best,
    _mean_rate,
    _subband_blocks,
    correlated_rate_grid,
    cross_validate,
    run_imperfect,
    run_imperfect_grid,
    run_perfect,
    run_strategy_comparison,
)
from tests.conftest import two_cluster_system
from tests.perdraw import (
    ChannelRealization,
    FeedbackReport,
    best_m_select,
    correlated_gains,
    cqi_subband_avg_rate,
    realize_fixed_rate,
    realize_variable_rate,
    schedule,
    subband_reports,
)


def corr_cfg():
    return CorrelatedChannelConfig(64, 4, tuple(pdp_exponential(8, 3.0)))


class TestSpecValidation:
    def test_correlated_requires_config(self):
        s = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
        with pytest.raises(ValueError):
            ExperimentSpec("correlated", s)

    def test_correlated_single_cluster_only(self):
        s = SystemConfig(16, (Cluster(1, 1), Cluster(2, 1)), 2, 10.0)
        with pytest.raises(ValueError):
            ExperimentSpec("correlated", s, correlated=corr_cfg())

    def test_correlated_rejects_impairments(self):
        s = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
        with pytest.raises(ValueError):
            ExperimentSpec(
                "correlated", s, correlated=corr_cfg(), impairments=ImpairmentParams(0.01, 0.9)
            )

    def test_subband_rejects_correlated_config(self):
        s = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
        with pytest.raises(ValueError, match="model='correlated'"):
            ExperimentSpec("subband", s, correlated=corr_cfg())

    def test_unknown_model(self):
        s = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
        with pytest.raises(ValueError):
            ExperimentSpec("fancy", s)

    def test_estimate_needs_two_trials(self):
        with pytest.raises(ValueError):
            EstimateWithError(1.0, 0.1, 1)

    @pytest.mark.parametrize("trials", [-3, 0, 1])
    def test_entry_points_need_two_trials(self, trials):
        s = SystemConfig(16, (Cluster(1, 2), Cluster(2, 2)), 2, 10.0)
        calls = (
            lambda: correlated_rate_grid(corr_cfg(), 10.0, 4, [(1, 2)], trials, 1),
            lambda: run_strategy_comparison(
                s, "homogeneous", subband_size=2, trials=trials, seed=1
            ),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^at least two trials are required$"):
                call()


class TestDeterminism:
    def test_perfect_bit_identical(self):
        spec = ExperimentSpec("subband", two_cluster_system(6, 2), trials=3000, seed=5)
        a, b = run_perfect(spec), run_perfect(spec)
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_seed_sequence_repeatable(self):
        # a SeedSequence seed is not advanced by a run, and draws the
        # streams of the integer seed it wraps
        s = two_cluster_system(6, 2)
        spec = ExperimentSpec("subband", s, trials=3000, seed=np.random.SeedSequence(7))
        a, b = run_perfect(spec), run_perfect(spec)
        c = run_perfect(ExperimentSpec("subband", s, trials=3000, seed=7))
        assert (a.value, a.std_error) == (b.value, b.std_error) == (c.value, c.std_error)

    def test_perfect_seed_sensitivity(self):
        s = two_cluster_system(6, 2)
        a = run_perfect(ExperimentSpec("subband", s, trials=3000, seed=5))
        b = run_perfect(ExperimentSpec("subband", s, trials=3000, seed=6))
        assert a.value != b.value

    def test_imperfect_bit_identical(self):
        spec = ExperimentSpec(
            "subband",
            two_cluster_system(6, 8),
            impairments=ImpairmentParams(0.01, 0.98),
            strategy=StrategyParams(beta1=0.8),
            trials=3000,
            seed=9,
        )
        a, b = run_imperfect(spec), run_imperfect(spec)
        assert (a.goodput.value, a.outage.value) == (b.goodput.value, b.outage.value)

    def test_correlated_bit_identical(self):
        s = SystemConfig(16, (Cluster(2, 4),), 2, 10.0)
        spec = ExperimentSpec("correlated", s, correlated=corr_cfg(), trials=1000, seed=3)
        assert run_perfect(spec).value == run_perfect(spec).value

    def test_plan_entry_reruns_identically(self):
        # the per-cluster substreams leave the chunk's sequence as it was
        s = two_cluster_system(6, 8)
        ((seq, t),) = mc._chunk_plan(200, 5)
        first, second = (list(_subband_blocks(s, ImpairmentParams(0.01, 0.98), seq, t)) for _ in "ab")
        for one, two in zip(first, second):
            assert all(np.array_equal(x, y) for x, y in zip(one, two))


class TestAgainstOpsPipeline:
    """The vectorized kernel must agree with the reference operation chain.

    The oracle is fed the kernel's own draws: estimated gains are the square
    roots of the drawn CQIs, and every user of a cluster shares that
    subband's noise (the kernel reads only the winner's).
    """

    def test_perfect_chunk_equals_schedule_ops(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 3)), 1, 10.0)
        t = 64
        blocks = _subband_blocks(s, None, np.random.SeedSequence(77), t)
        chunk_rates = np.concatenate([_mean_rate(best, s.snr) for best, _, _ in blocks])

        draws, _ = _cluster_streams(np.random.SeedSequence(77), s.num_clusters)
        gains = [
            np.sqrt(draws[g].standard_exponential((t, c.num_users, s.num_subbands(g)))) + 0j
            for g, c in enumerate(s.clusters)
        ]
        for i in range(t):
            real = ChannelRealization("subband", tuple(d[i] for d in gains))
            dec = schedule(subband_reports(real, s), s)
            rate = np.where(dec.scheduled, np.log2(1.0 + s.snr * np.where(dec.scheduled, dec.cqi, 0.0)), 0.0)
            assert abs(rate.mean() - chunk_rates[i]) < 1e-12

    def test_imperfect_chunk_equals_realize_ops(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(4, 2)), 1, 10.0)
        imp = ImpairmentParams(0.02, 0.95)
        t = 48
        ((best, covered, til),) = _subband_blocks(s, imp, np.random.SeedSequence(123), t)
        # an idle block fails every success test: its estimate and actual CQI are 0
        assert not covered.all()
        assert np.all(best[~covered] == 0.0) and np.all(til[~covered] == 0.0)

        draws, noise = _cluster_streams(np.random.SeedSequence(123), s.num_clusters)
        h_hat, h_til = [], []
        for g, c in enumerate(s.clusters):
            chi_hat = imp.estimate_var * draws[g].standard_exponential(
                (t, c.num_users, s.num_subbands(g))
            )
            hh = np.sqrt(chi_hat) + 0j
            n = noise[g].standard_normal((t, s.num_subbands(g), 2)) / imp.alpha_w
            h_hat.append(hh)
            h_til.append(imp.delay_corr * hh + (n[..., 0] + 1j * n[..., 1])[:, None, :])

        beta0, beta1 = 0.9, 0.85
        for i in range(t):
            est_real = ChannelRealization("subband", tuple(h[i] for h in h_hat))
            act_real = ChannelRealization("subband", tuple(h[i] for h in h_til))
            dec = schedule(subband_reports(est_real, s), s)
            actual_cqi = np.abs(act_real.block_gains(s)) ** 2
            assert np.array_equal(dec.scheduled, covered[i])
            sched = dec.scheduled
            assert np.allclose(np.where(sched, dec.cqi, 0.0), best[i], rtol=1e-12, atol=0)

            fixed = realize_fixed_rate(dec, actual_cqi, beta0, s.snr)
            succ_chunk = covered[i] & (til[i] > beta0)
            assert np.array_equal(fixed.success, succ_chunk)

            var = realize_variable_rate(dec, actual_cqi, beta1, s.snr)
            succ_chunk = covered[i] & (til[i] > beta1 * best[i])
            assert np.array_equal(var.success, succ_chunk)
            rate_chunk = np.where(succ_chunk, np.log2(1.0 + s.snr * beta1 * best[i]), 0.0)
            assert np.allclose(var.goodput, rate_chunk, rtol=1e-12, atol=0)


class TestKernel:
    @pytest.mark.parametrize(
        "users,subbands,quota,tie",
        [(3, 16, 4, 1), (5, 16, 1, 1), (4, 8, 8, 1), (0, 8, 2, 1), (3, 16, 3, 2), (4, 16, 6, 4)],
    )
    def test_selector_keeps_each_rows_largest(self, users, subbands, quota, tie):
        # tie > 1 repeats every draw, as a feedback subband finer than the
        # channel's does; the quota then splits tie groups
        draws = np.random.default_rng(quota).standard_exponential((6, users, subbands // tie))
        values = np.repeat(draws, tie, axis=-1)
        out = values.copy()
        kept = _keep_best(out, quota)
        assert kept.shape == values.shape
        flat = (a.reshape(-1, subbands) for a in (values, out, kept))
        for row, row_out, row_kept in zip(*flat):
            top = {i for i, _ in best_m_select(row, quota)}
            assert set(np.flatnonzero(row_kept).tolist()) == top
            assert np.array_equal(row_out, np.where(row_kept, row, 0.0))

    def test_empty_cluster(self):
        s = SystemConfig(16, (Cluster(1, 0), Cluster(4, 3)), 2, 10.0)
        est = run_perfect(ExperimentSpec("subband", s, trials=4000, seed=3))
        assert abs(est.value - average_sum_rate(s)) < 3 * est.std_error

    @pytest.mark.parametrize("budget", [1, 2**16])
    def test_results_independent_of_row_blocking(self, monkeypatch, budget):
        s = two_cluster_system(6, 2)
        imp = ImpairmentParams(0.01, 0.98)
        trials = CHUNK_TRIALS + 300
        runs = (
            lambda: run_perfect(ExperimentSpec("subband", s, trials=trials, seed=4)),
            lambda: run_imperfect(
                ExperimentSpec(
                    "subband", s, impairments=imp, strategy=StrategyParams(beta1=0.8),
                    trials=trials, seed=5,
                )
            ),
            lambda: run_strategy_comparison(s, "homogeneous", subband_size=2, trials=900, seed=6),
            lambda: run_perfect(
                ExperimentSpec(
                    "correlated", SystemConfig(16, (Cluster(2, 4),), 2, 10.0),
                    correlated=corr_cfg(), trials=trials, seed=7,
                )
            ),
        )
        reference = [run() for run in runs]
        monkeypatch.setattr(mc, "_BLOCK_BYTES", budget)
        assert len(mc._row_blocks(CHUNK_TRIALS, 8 * s.num_rbs)) > 1
        assert [run() for run in runs] == reference

    @pytest.mark.parametrize(
        "num_rbs,users,best_m,trials",
        [(256, 150, 16, 300), (16, 4, 2, CHUNK_TRIALS), (16, 4, 2, 3 * CHUNK_TRIALS + 17)],
    )
    def test_peak_memory_under_budget(self, num_rbs, users, best_m, trials):
        # one trial per block at the large size, many at the small one; every
        # worker holds one block, and tracemalloc traces every thread
        workers = mc._worker_count(len(mc._chunk_plan(trials, 0)))
        s = SystemConfig(num_rbs, (Cluster(1, users), Cluster(4, users)), best_m, 10.0)
        imp = ImpairmentParams(0.01, 0.98)
        runs = (
            lambda: run_perfect(ExperimentSpec("subband", s, trials=trials, seed=1)),
            lambda: run_imperfect(
                ExperimentSpec(
                    "subband", s, impairments=imp, strategy=StrategyParams(beta0=1.0),
                    trials=trials, seed=2,
                )
            ),
        ) + tuple(
            (lambda eta=eta: run_strategy_comparison(
                s, "homogeneous", subband_size=eta, trials=trials, seed=3
            ))
            for eta in (1, 2, 8)
        )
        for run in runs:
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < workers * mc._BLOCK_BYTES

    @pytest.mark.parametrize(
        "subcarriers,per_rb,users,trials",
        [(1024, 64, 50, 300), (256, 8, 10, CHUNK_TRIALS), (256, 8, 10, 3 * CHUNK_TRIALS + 17)],
    )
    def test_correlated_working_set_under_budget(self, subcarriers, per_rb, users, trials):
        # per-RB rates are scheduled one row block at a time, never held per chunk
        cfg = CorrelatedChannelConfig(subcarriers, per_rb, tuple(pdp_exponential(16, 4.0)))
        workers = mc._worker_count(len(mc._chunk_plan(trials, 0)))
        tracemalloc.start()
        try:
            correlated_rate_grid(cfg, 10.0, users, [(1, 2), (4, 4)], trials, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < workers * mc._BLOCK_BYTES

    def test_near_perfect_actual_tracks_estimate(self):
        s = two_cluster_system(10, 4)
        imp = ImpairmentParams(1e-8, 1.0)
        for best, covered, til in _subband_blocks(s, imp, np.random.SeedSequence(8), 2000):
            gap = np.abs(np.sqrt(til) - np.sqrt(best))[covered]
            assert gap.size and np.max(gap) <= 1e-3
        res = run_imperfect(
            ExperimentSpec(
                "subband", s, impairments=imp, strategy=StrategyParams(beta1=0.9),
                trials=4000, seed=9,
            )
        )
        values = (res.goodput.value, res.outage.value, res.outage.std_error)
        assert all(math.isfinite(v) for v in values)
        assert res.goodput.value > 0 and res.outage.value < 1e-3


class TestPerfectEstimates:
    def test_single_user_full_feedback(self):
        s = SystemConfig(16, (Cluster(4, 1),), 4, 10.0)
        est = run_perfect(ExperimentSpec("subband", s, trials=20_000, seed=2))
        ref = i1(10.0, 1)
        assert abs(est.value - ref) < 3 * est.std_error

    def test_matches_analytic_partial_feedback(self):
        s = two_cluster_system(10, 2)
        est = run_perfect(ExperimentSpec("subband", s, trials=20_000, seed=4))
        assert abs(est.value - average_sum_rate(s)) < 3 * est.std_error

    def test_se_scaling(self):
        s = two_cluster_system(6, 2)
        small = run_perfect(ExperimentSpec("subband", s, trials=4000, seed=8))
        large = run_perfect(ExperimentSpec("subband", s, trials=16_000, seed=8))
        assert abs(small.std_error / large.std_error - 2.0) < 0.4

    def test_rejects_impairments(self):
        spec = ExperimentSpec(
            "subband", two_cluster_system(4, 2), impairments=ImpairmentParams(0.01, 0.9)
        )
        with pytest.raises(ValueError):
            run_perfect(spec)


class TestImperfectEstimates:
    def test_zero_backoff_zero_everything(self):
        spec = ExperimentSpec(
            "subband",
            two_cluster_system(4, 8),
            impairments=ImpairmentParams(0.01, 0.98),
            strategy=StrategyParams(beta1=0.0),
            trials=500,
            seed=1,
        )
        res = run_imperfect(spec)
        assert res.goodput.value == 0.0
        assert res.outage.value == 0.0

    def test_uncorrelated_outage_is_exponential_tail(self):
        # alpha = 0, sigma_w^2 = 0: outage -> 1 - exp(-beta0), independent of K
        beta0 = 0.8
        spec = ExperimentSpec(
            "subband",
            two_cluster_system(6, 16),
            impairments=ImpairmentParams(0.0, 0.0),
            strategy=StrategyParams(beta0=beta0),
            trials=20_000,
            seed=3,
        )
        res = run_imperfect(spec)
        ref = 1.0 - math.exp(-beta0)
        assert abs(res.outage.value - ref) < 3 * res.outage.std_error

    def test_strategy_validation(self):
        spec = ExperimentSpec(
            "subband", two_cluster_system(4, 8), impairments=ImpairmentParams(0.01, 0.98)
        )
        with pytest.raises(ValueError):
            run_imperfect(spec)
        with pytest.raises(ValueError):
            run_imperfect_grid(spec, [StrategyParams()])
        with pytest.raises(ValueError):
            run_imperfect_grid(spec, [StrategyParams(beta0=1.0, beta1=0.5)])

    def test_grid_shares_draws_with_single_runs(self):
        s = two_cluster_system(6, 8)
        imp = ImpairmentParams(0.01, 0.98)
        strategies = [StrategyParams(beta0=1.0), StrategyParams(beta1=0.9),
                      StrategyParams(beta1=0.5)]
        grid = run_imperfect_grid(
            ExperimentSpec("subband", s, impairments=imp, trials=2000, seed=5), strategies
        )
        single = run_imperfect(
            ExperimentSpec(
                "subband", s, impairments=imp, strategy=StrategyParams(beta0=1.0), trials=2000, seed=5
            )
        )
        assert grid[0].goodput.value == single.goodput.value
        assert grid[0].scheduling_outage.value == grid[1].scheduling_outage.value
        # every field (goodput, outage, scheduling_outage) of every strategy
        # equals its own single run on the same draws
        for strategy, res in zip(strategies, grid):
            assert res == run_imperfect(ExperimentSpec(
                "subband", s, impairments=imp, strategy=strategy, trials=2000, seed=5
            ))


class TestCrossValidation:
    def test_perfect_within_three_se(self):
        spec = ExperimentSpec("subband", two_cluster_system(10, 4), trials=20_000, seed=11)
        report = cross_validate(spec)
        assert [e.name for e in report.entries] == ["sum_rate"]
        assert not report.flagged

    def test_imperfect_fixed_rate(self):
        s = two_cluster_system(10, 16)
        spec = ExperimentSpec(
            "subband",
            s,
            impairments=ImpairmentParams(0.01, 0.98),
            strategy=StrategyParams(beta0=1.0),
            trials=20_000,
            seed=12,
        )
        report = cross_validate(spec)
        assert {e.name for e in report.entries} == {"fixed_rate_goodput", "fixed_rate_outage"}
        assert not report.flagged
        # full feedback: analytic outage matches the raw closed form
        _, p0 = fixed_rate_metrics(s, spec.impairments, 1.0)
        outage_entry = next(e for e in report.entries if e.name.endswith("outage"))
        assert outage_entry.analytic == pytest.approx(p0 / coverage_prob(s), rel=1e-12)

    def test_imperfect_partial_feedback_variable(self):
        spec = ExperimentSpec(
            "subband",
            two_cluster_system(10, 4),
            impairments=ImpairmentParams(0.01, 0.98),
            strategy=StrategyParams(beta1=0.7),
            trials=20_000,
            seed=13,
        )
        report = cross_validate(spec)
        assert not report.flagged

    def test_requires_subband_model(self):
        s = SystemConfig(16, (Cluster(2, 4),), 2, 10.0)
        spec = ExperimentSpec("correlated", s, correlated=corr_cfg(), trials=100, seed=0)
        with pytest.raises(ValueError):
            cross_validate(spec)


class TestStrategyComparison:
    def _sys(self):
        return SystemConfig(
            16, (Cluster(1, 2), Cluster(2, 2), Cluster(4, 2), Cluster(8, 2)), 1, 10.0
        )

    def test_joint_equals_run_perfect(self):
        s = self._sys()
        a = run_strategy_comparison(s, "joint", trials=2000, seed=4)
        b = run_perfect(ExperimentSpec("subband", s, trials=2000, seed=4))
        assert a.value == b.value

    def test_homogeneous_and_separate_run(self):
        s = self._sys()
        hom = run_strategy_comparison(s, "homogeneous", subband_size=1, trials=2000, seed=4)
        sep = run_strategy_comparison(s, "separate", trials=2000, seed=4)
        assert 0.0 < sep.value < hom.value

    def test_separate_accepts_seed_sequence(self):
        # as every other strategy does, drawing the streams of the integer it wraps
        s = self._sys()
        seq = np.random.SeedSequence(4)
        a = run_strategy_comparison(s, "separate", trials=2000, seed=seq)
        assert a == run_strategy_comparison(s, "separate", trials=2000, seed=4)
        assert a == run_strategy_comparison(s, "separate", trials=2000, seed=seq)

    @pytest.mark.parametrize("best_m,eta_fb", [(4, 1), (2, 2), (1, 8)])
    def test_homogeneous_matches_per_user_oracle(self, best_m, eta_fb):
        # below 4 the common size is finer than the eta-4 cluster's, so its
        # users' CQIs tie in groups that the quota splits; at 8 it is coarser
        # than both clusters', so every cluster's CQI is an average
        s = SystemConfig(16, (Cluster(1, 3), Cluster(4, 3)), best_m, 10.0)
        t, users, n = 40, s.num_users, s.num_rbs
        quota = min(mc.homogeneous_quota(s), n // eta_fb)
        assert eta_fb > 4 or quota % (4 // eta_fb)
        est = run_strategy_comparison(s, "homogeneous", subband_size=eta_fb, trials=t, seed=11)

        ((seq, _),) = mc._chunk_plan(t, 11)
        draws = [np.random.default_rng(c) for c in seq.spawn(s.num_clusters)]
        z = np.concatenate(
            [
                np.repeat(
                    draws[g].standard_exponential((t, c.num_users, s.num_subbands(g))),
                    c.subband_size,
                    axis=2,
                )
                for g, c in enumerate(s.clusters)
            ],
            axis=1,
        )
        rates = []
        for i in range(t):
            rate_blocks = np.log2(1.0 + s.snr * z[i])
            cqi = rate_blocks.reshape(users, n // eta_fb, eta_fb).mean(axis=2)
            reports = {}
            for k in range(users):
                entries = best_m_select(cqi[k], quota)
                assert len(entries) == quota
                for j, v in entries:
                    reports.setdefault(j, []).append((v, -k))
            total = 0.0
            for j, entries in reports.items():
                k = -max(entries)[1]
                total += rate_blocks[k, j * eta_fb : (j + 1) * eta_fb].sum()
            rates.append(total / n)
        assert abs(np.mean(rates) - est.value) < 1e-12

    @pytest.mark.parametrize("eta_fb", [0, -2, 3, 32])
    def test_homogeneous_rejects_bad_subband_size(self, eta_fb):
        # a power of two dividing num_rbs nests with every cluster's grid
        with pytest.raises(ValueError, match="power of two dividing num_rbs"):
            run_strategy_comparison(
                self._sys(), "homogeneous", subband_size=eta_fb, trials=100, seed=1
            )

    def test_homogeneous_quota_weights_clusters_by_users(self):
        # quotas 4 and 1: (10 * 4 + 2 * 1) / 12 = 3.5 per user, rounded up
        s = SystemConfig(16, (Cluster(1, 10), Cluster(4, 2)), 1, 10.0)
        assert mc.homogeneous_quota(s) == 4

    def test_homogeneous_needs_subband_size(self):
        with pytest.raises(ValueError):
            run_strategy_comparison(self._sys(), "homogeneous", trials=100, seed=1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_strategy_comparison(self._sys(), "mixed", trials=100, seed=1)


class TestChunkPool:
    TRIALS = 3 * CHUNK_TRIALS + 17

    def test_worker_count_does_not_change_results(self, monkeypatch):
        s = two_cluster_system(6, 2)
        imp = ImpairmentParams(0.01, 0.98)
        t = self.TRIALS
        runs = (
            lambda: run_perfect(ExperimentSpec("subband", s, trials=t, seed=4)),
            lambda: run_imperfect_grid(
                ExperimentSpec("subband", s, impairments=imp, trials=t, seed=5),
                [StrategyParams(beta0=1.0), StrategyParams(beta1=0.8)],
            ),
            lambda: correlated_rate_grid(corr_cfg(), 10.0, 6, [(1, 2), (2, 4)], t, 7),
            lambda: run_strategy_comparison(s, "homogeneous", subband_size=2, trials=t, seed=6),
            lambda: run_strategy_comparison(s, "separate", trials=t, seed=8),
        )
        pooled = [run() for run in runs]
        monkeypatch.setattr(mc, "_MAX_WORKERS", 1)
        assert [run() for run in runs] == pooled

    def test_pool_size_is_capped(self, monkeypatch):
        sizes = []
        pool = mc.ThreadPoolExecutor

        def spy(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", spy)
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        s = two_cluster_system(4, 2)
        for trials in (CHUNK_TRIALS, 2 * CHUNK_TRIALS, self.TRIALS, 9 * CHUNK_TRIALS):
            sizes.clear()
            run_perfect(ExperimentSpec("subband", s, trials=trials, seed=1))
            cap = min(cpus, math.ceil(trials / CHUNK_TRIALS), mc._MAX_WORKERS)
            # a single chunk or a single cpu starts no executor
            assert sizes == ([cap] if cap > 1 else [])

    def test_results_in_chunk_order(self):
        plan = mc._chunk_plan(self.TRIALS, 3)

        def late_first(seq, t):
            i = seq.spawn_key[-1]
            time.sleep(0.02 * (len(plan) - i))  # earlier chunks finish later
            return i, t

        assert mc._map_chunks(late_first, plan) == [(i, t) for i, (_, t) in enumerate(plan)]


class TestCorrelatedGrid:
    def test_shared_draws_and_shapes(self):
        grid = correlated_rate_grid(corr_cfg(), 10.0, 6, [(1, 2), (2, 2)], 1200, 9)
        assert set(grid) == {(1, 2), (2, 2)}
        for est in grid.values():
            assert est.trials == 1200 and est.std_error > 0

    def test_matches_per_draw_oracle(self):
        # three subband sizes, so two are averaged from the finest, on one
        # row block of shared taps; at M = 1 on 16 subbands of 4 users some
        # blocks go idle
        cfg, snr, users, t = corr_cfg(), 10.0, 4, 40
        combos = [(1, 1), (1, 3), (2, 2), (4, 1), (4, 3)]
        grid = correlated_rate_grid(cfg, snr, users, combos, t, 13)

        ((seq, _),) = mc._chunk_plan(t, 13)
        z = np.random.default_rng(seq).standard_normal((t, users, cfg.num_taps, 2))
        gains = correlated_gains(cfg, z)
        for eta, m in combos:
            s = SystemConfig(cfg.num_rbs, (Cluster(eta, users),), m, snr)
            width = eta * cfg.subcarriers_per_rb
            rates = []
            for i in range(t):
                reports = []
                for k in range(users):
                    cqi = [
                        cqi_subband_avg_rate(gains[i, k, j * width : (j + 1) * width], snr)
                        for j in range(s.num_subbands(0))
                    ]
                    reports.append(FeedbackReport(k, 0, best_m_select(cqi, m)))
                decision = schedule(reports, s)
                winner = np.where(decision.scheduled, decision.cqi, 0.0)
                rates.append(np.log2(1.0 + snr * winner).mean())
            assert abs(np.mean(rates) - grid[eta, m].value) < 1e-12
            se = np.std(rates, ddof=1) / math.sqrt(t)
            assert abs(se - grid[eta, m].std_error) < 1e-12

    @pytest.mark.parametrize("snr_db", [10.0, 120.0])
    def test_flat_fading_ties_every_subband(self, snr_db):
        # one tap: every subcarrier of a user has the same gain, so all its
        # subband CQIs tie and each user reports its M lowest subbands; the
        # best user then serves those M of the S subbands
        cfg, users, t = CorrelatedChannelConfig(64, 4, (1.0,)), 5, 300
        snr = 10.0 ** (snr_db / 10.0)
        combos = [(1, 3), (2, 2), (4, 1)]
        grid = correlated_rate_grid(cfg, snr, users, combos, t, 21)

        ((seq, _),) = mc._chunk_plan(t, 21)
        z = np.random.default_rng(seq).standard_normal((t, users, 1, 2))
        power = 0.5 * (z[..., 0, 0] ** 2 + z[..., 0, 1] ** 2)
        best = np.log2(1.0 + snr * np.log2(1.0 + snr * power).max(axis=1))
        for eta, m in combos:
            rates = m / (cfg.num_rbs // eta) * best
            est = grid[eta, m]
            assert math.isfinite(est.value) and math.isfinite(est.std_error)
            assert abs(est.value - rates.mean()) < 1e-12
            assert abs(est.std_error - np.std(rates, ddof=1) / math.sqrt(t)) < 1e-12

    def test_chunking_boundary(self):
        # trials not a multiple of the chunk width
        trials = CHUNK_TRIALS + 17
        s = two_cluster_system(4, 2)
        est = run_perfect(ExperimentSpec("subband", s, trials=trials, seed=1))
        assert est.trials == trials
