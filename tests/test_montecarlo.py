import math
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hetfb.montecarlo as mc
from hetfb.analytic import average_sum_rate, coverage_prob, i1
from hetfb.channel import (
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    StrategyParams,
    SystemConfig,
    cluster_feedback_quota,
    pdp_exponential,
)
from hetfb.crossval import CrossValidationEntry, CrossValidationReport, cross_validate
from hetfb.goodput import fixed_rate_metrics
from hetfb.montecarlo import (
    CHUNK_TRIALS,
    EstimateWithError,
    ExperimentSpec,
    _cluster_streams,
    _keep_best,
    _mean_rate,
    _subband_blocks,
    _winner_cqi,
    correlated_rate_grid,
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


def kernel_uniforms(rng, shape):
    """The subband kernel's draws of ``shape`` from ``rng``, as U = k 2^-32.

    For an even key count the kernel's keys k are ``integers``' uint32 draws.
    """
    return rng.integers(0, 2**32, shape, dtype=np.uint32) * 2.0**-32


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

    @pytest.mark.parametrize("strategy", [StrategyParams(beta0=1.0), StrategyParams(beta1=0.5)],
                             ids=["fixed", "variable"])
    def test_strategy_requires_impairments(self, strategy):
        # without impairments every entry point would run perfect feedback
        s = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
        with pytest.raises(ValueError, match="impairments"):
            ExperimentSpec("subband", s, strategy=strategy)
        with pytest.raises(ValueError, match="impairments"):
            ExperimentSpec("correlated", s, correlated=corr_cfg(), strategy=strategy)

    def test_correlated_rb_counts_must_agree(self):
        # corr_cfg() has 16 RBs
        s = SystemConfig(32, (Cluster(2, 3),), 2, 10.0)
        with pytest.raises(ValueError, match="resource-block counts"):
            ExperimentSpec("correlated", s, correlated=corr_cfg())

    @pytest.mark.parametrize("model", ["subband", "correlated"])
    def test_imperfect_grid_needs_impairments(self, model):
        s = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
        cfg = corr_cfg() if model == "correlated" else None
        spec = ExperimentSpec(model, s, correlated=cfg, trials=100)
        with pytest.raises(ValueError, match="requires impairment parameters"):
            run_imperfect_grid(spec, [StrategyParams(beta1=0.5)])

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
            lambda: ExperimentSpec("subband", s, trials=trials),
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
    roots of the CQIs -log1p(-U) of the drawn keys' uniforms, and every user of a
    cluster shares that subband's noise (the kernel reads only the winner's).
    """

    def test_perfect_chunk_equals_schedule_ops(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 3)), 1, 10.0)
        t = 64
        blocks = _subband_blocks(s, None, np.random.SeedSequence(77), t)
        chunk_rates = np.concatenate([_mean_rate(best, s.snr) for best, _, _ in blocks])

        draws, _ = _cluster_streams(np.random.SeedSequence(77), s.num_clusters)
        gains = [
            np.sqrt(-np.log1p(-kernel_uniforms(draws[g], (t, c.num_users, s.num_subbands(g)))))
            + 0j
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
            chi_hat = imp.estimate_var * -np.log1p(
                -kernel_uniforms(draws[g], (t, c.num_users, s.num_subbands(g)))
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

    def test_uniform_winners_equal_exponential_pipeline(self):
        # best-M on the keys, then -log1p(-U) of the winners, against best-M on
        # the CQIs -log1p(-U) of every draw, scheduled and realized as the kernel does
        s = two_cluster_system(10, 4)
        imp = ImpairmentParams(0.01, 0.98)
        t = 300
        ((best, covered, actual),) = _subband_blocks(s, imp, np.random.SeedSequence(31), t)

        draws, noise = _cluster_streams(np.random.SeedSequence(31), s.num_clusters)
        want_best, want_actual = np.zeros((t, s.num_rbs)), np.zeros((t, s.num_rbs))
        for g, c in enumerate(s.clusters):
            z = -np.log1p(-kernel_uniforms(draws[g], (t, c.num_users, s.num_subbands(g))))
            z *= imp.estimate_var
            top = _winner_cqi(z, cluster_feedback_quota(s, g))
            top_blocks = np.repeat(top, c.subband_size, axis=1)
            wins = top_blocks > want_best
            want_best = np.where(wins, top_blocks, want_best)
            n = noise[g].standard_normal(top.shape + (2,)) / imp.alpha_w
            til = (imp.delay_corr * np.sqrt(top) + n[..., 0]) ** 2 + n[..., 1] ** 2
            want_actual = np.where(wins, np.repeat(til, c.subband_size, axis=1), want_actual)
        assert np.array_equal(best, want_best)
        assert np.array_equal(covered, want_best > 0.0)
        assert np.array_equal(actual, want_actual)
        assert 0 < covered.sum() < covered.size

    def test_kept_zero_draw_is_unreported(self, monkeypatch):
        # a key of 0 can be among a user's best M (here by the tie pass); it
        # maps to CQI 0.0, so a subband it wins stays idle
        u = np.array([[[0, 0, 2**30], [0, 2**31, 0]]], dtype=np.uint32)
        assert _keep_best(u.copy(), 2)[0, :, 0].all()
        assert _winner_cqi(u.copy(), 2).tolist() == [[0, 2**31, 2**30]]

        class Raw:
            def random_raw(self, size):
                # one row of outputs, two keys per output, the first in the low half
                assert size == (1, u.size // 2)
                return u.astype("<u4").reshape(size[0], -1).view("<u8").copy()

        class Fixed:
            bit_generator = Raw()

        monkeypatch.setattr(
            mc, "_cluster_streams", lambda seq, n: ([Fixed()], [np.random.default_rng(1)])
        )
        s = SystemConfig(3, (Cluster(1, 2),), 2, 10.0)
        imp = ImpairmentParams(0.01, 0.98)
        ((best, covered, actual),) = _subband_blocks(s, imp, np.random.SeedSequence(0), 1)
        assert best[0, 0] == 0.0 and actual[0, 0] == 0.0
        assert covered.tolist() == [[False, True, True]]
        want = -np.log1p(-np.array([0.5, 0.25])) * imp.estimate_var
        assert best[0, 1:].tolist() == want.tolist()

    def test_keys_are_the_generators_uint32_draws(self):
        # an even count per row: whole raw outputs, low half first, as integers() reads them
        shape = (5, 16)
        keys = mc._keys(np.random.default_rng(11), 6, shape)
        assert keys.dtype == np.uint32 and keys.shape == (6, *shape)
        want = np.random.default_rng(11).integers(0, 2**32, (6, *shape), dtype=np.uint32)
        assert np.array_equal(keys, want)
        raw = np.random.default_rng(11).bit_generator.random_raw(2)
        assert keys.ravel()[:4].tolist() == [int(raw[0]) & 0xFFFFFFFF, int(raw[0]) >> 32,
                                             int(raw[1]) & 0xFFFFFFFF, int(raw[1]) >> 32]
        # an odd count per row drops each row's last high half
        odd = mc._keys(np.random.default_rng(11), 3, (7,))
        assert np.array_equal(odd, want.ravel()[:24].reshape(3, 8)[:, :7])

    @pytest.mark.parametrize("shape", [(3, 4), (3, 3)], ids=["even_keys", "odd_keys"])
    def test_keys_of_many_rows_equal_one_row_at_a_time(self, shape):
        rows = mc._keys(np.random.default_rng(12), 5, shape)
        rng = np.random.default_rng(12)
        assert np.array_equal(rows, np.concatenate([mc._keys(rng, 1, shape) for _ in range(5)]))

    @pytest.mark.parametrize("quota", [1, 3, 5, 8])
    def test_dense_key_ties_equal_per_user_oracle(self, quota):
        # keys in 0..3 tie in nearly every row; at the larger quotas some
        # rows keep keys of 0
        keys = np.random.default_rng(quota).integers(0, 4, (50, 3, 8), dtype=np.uint32)
        if quota >= 5:
            assert (_keep_best(keys.copy(), quota) & (keys == 0)).any()
        got = _winner_cqi(keys.copy(), quota)
        assert got.dtype == np.uint32
        for row, row_got in zip(keys, got):
            want = np.zeros(keys.shape[-1], dtype=np.uint32)
            for user in row:
                for i, value in best_m_select(user, quota):
                    want[i] = max(want[i], value)
            assert np.array_equal(row_got, want)

    def test_empty_cluster(self):
        s = SystemConfig(16, (Cluster(1, 0), Cluster(4, 3)), 2, 10.0)
        est = run_perfect(ExperimentSpec("subband", s, trials=4000, seed=3))
        assert abs(est.value - average_sum_rate(s)) < 3 * est.std_error

    @pytest.mark.parametrize(
        "budget,odd_keys",
        [pytest.param(b, odd, id=("odd_keys-" if odd else "") + str(b))
         for odd in (False, True) for b in (1, 2**16)],
    )
    def test_results_independent_of_row_blocking(self, monkeypatch, budget, odd_keys):
        # with odd_keys, one subband of 3 users draws 3 keys per trial, and the
        # odd trial count leaves the chunk's last block an odd key count: a
        # dropped half output must never shift a later block's keys
        s = SystemConfig(8, (Cluster(8, 3),), 1, 10.0) if odd_keys else two_cluster_system(6, 2)
        imp = ImpairmentParams(0.01, 0.98)
        trials = CHUNK_TRIALS + (301 if odd_keys else 300)
        runs = (
            lambda: run_perfect(ExperimentSpec("subband", s, trials=trials, seed=4)),
            lambda: run_imperfect(
                ExperimentSpec(
                    "subband", s, impairments=imp, strategy=StrategyParams(beta1=0.8),
                    trials=trials, seed=5,
                )
            ),
            lambda: run_strategy_comparison(s, "homogeneous", subband_size=2, trials=900, seed=6),
            lambda: run_strategy_comparison(s, "separate", trials=900, seed=6),
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

    @pytest.mark.parametrize("path", ["subband", "strategy", "correlated"])
    def test_row_larger_than_the_budget(self, monkeypatch, path):
        # a budget below one row's bytes gives one-row blocks, and the peak of
        # one worker does not grow from one chunk of trials to three
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 1024)
        monkeypatch.setattr(mc, "CHUNK_TRIALS", 16)
        monkeypatch.setattr(mc, "_MAX_WORKERS", 1)
        row_blocks, sizes = mc._row_blocks, []
        monkeypatch.setattr(
            mc, "_row_blocks",
            lambda t, row_bytes: sizes.append(row_bytes) or row_blocks(t, row_bytes),
        )
        s = SystemConfig(128, (Cluster(1, 40), Cluster(4, 40)), 4, 10.0)
        run = {
            "subband": lambda t: run_imperfect(
                ExperimentSpec("subband", s, impairments=ImpairmentParams(0.01, 0.98),
                               strategy=StrategyParams(beta1=0.8), trials=t, seed=1)
            ),
            "strategy": lambda t: mc.strategy_comparison(s, [2], trials=t, seed=2),
            "correlated": lambda t: correlated_rate_grid(corr_cfg(), 10.0, 40, [(1, 2)], t, 3),
        }[path]
        peaks = []
        for trials in (16, 48):
            tracemalloc.start()
            try:
                run(trials)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert len(sizes) == 4 and min(sizes) > mc._BLOCK_BYTES
        assert all(row_blocks(16, row_bytes) == [1] * 16 for row_bytes in sizes)
        # the per-trial results of two more chunks take about 1 KiB
        assert peaks[1] < 1.05 * peaks[0]

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

    def test_standard_error_does_not_underflow(self):
        # the samples are about snr x; their squared deviations would underflow
        # at snr 1e-300, where the scaled spread keeps the SE in proportion
        s = two_cluster_system(6, 2)
        per_snr = []
        for snr in (1e-100, 1e-300):
            spec = ExperimentSpec("subband", replace(s, snr=snr), trials=4096, seed=8)
            per_snr.append(run_perfect(spec).std_error / snr)
        assert per_snr[0] > 0.0
        assert per_snr[1] == pytest.approx(per_snr[0], rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 0.7, 1.0, 6.0, 3e5])
    def test_estimate_keeps_the_bits_of_the_plain_formulas(self, scale):
        # scaling by a power of two is exact, so an ordinary estimate is unchanged
        samples = np.random.default_rng(3).exponential(scale, 5000)
        est = mc._mean_estimate(samples)
        assert est.value == float(samples.mean())
        assert est.std_error == float(samples.std(ddof=1) / math.sqrt(samples.size))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_estimate_raises(self, bad):
        with pytest.raises(FloatingPointError, match="not finite"):
            mc._mean_estimate(np.array([1.0, bad, 2.0]))

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
    def test_zero_standard_error(self):
        # nothing observed to vary: z is 0 on agreement and NaN otherwise, never flagged
        agree = CrossValidationEntry("outage", 0.0, 0.0, 0.0)
        differ = CrossValidationEntry("outage", 0.0, 0.0, 1e-17)
        assert agree.z_score == 0.0 and math.isnan(differ.z_score)
        assert not CrossValidationReport((agree, differ)).flagged

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

    @pytest.mark.parametrize("odd_keys", [False, True], ids=["even_keys", "odd_keys"])
    def test_joint_row_equals_run_perfect(self, odd_keys):
        s = SystemConfig(8, (Cluster(1, 3), Cluster(8, 3 if odd_keys else 2)), 1, 10.0)
        trials = CHUNK_TRIALS + 301
        rates = mc.strategy_comparison(s, [2], trials=trials, seed=(9, 2))
        want = run_perfect(ExperimentSpec("subband", s, trials=trials, seed=(9, 2)))
        got = mc._mean_estimate(rates[0])
        assert (got.value, got.std_error) == (want.value, want.std_error)

    def test_separate_row_matches_per_cluster_oracle(self):
        # every cluster scheduled alone on its own reports, in equal time
        # shares; an empty cluster's share is idle
        s = SystemConfig(16, (Cluster(1, 3), Cluster(2, 0), Cluster(4, 2)), 1, 10.0)
        t = 40
        separate = mc.strategy_comparison(s, [], trials=t, seed=12)[-1]

        ((seq, _),) = mc._chunk_plan(t, 12)
        draws, _ = _cluster_streams(seq, s.num_clusters)
        shares = []
        for g, c in enumerate(s.clusters):
            if c.num_users == 0:
                shares.append(np.zeros(t))
                continue
            solo = SystemConfig(s.num_rbs, (c,), cluster_feedback_quota(s, g), s.snr)
            z = -np.log1p(-kernel_uniforms(draws[g], (t, c.num_users, s.num_subbands(g))))
            rates = []
            for i in range(t):
                real = ChannelRealization("subband", (np.sqrt(z[i]),))
                dec = schedule(subband_reports(real, solo), solo)
                cqi = np.where(dec.scheduled, dec.cqi, 0.0)
                rates.append(np.log2(1.0 + s.snr * cqi).mean())
            shares.append(rates)
        assert np.max(np.abs(np.mean(shares, axis=0) - separate)) < 1e-12

    def test_one_call_equals_one_call_per_size(self):
        s = SystemConfig(16, (Cluster(1, 3), Cluster(4, 3)), 2, 10.0)
        rates = mc.strategy_comparison(s, [1, 2, 8], trials=600, seed=13)
        for i, eta in enumerate([1, 2, 8]):
            alone = mc.strategy_comparison(s, [eta], trials=600, seed=13)
            assert np.array_equal(alone, rates[[0, 1 + i, -1]])

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
                    -np.log1p(-kernel_uniforms(draws[g], (t, c.num_users, s.num_subbands(g)))),
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
    @pytest.mark.parametrize(
        "combos,match",
        [([], "at least one"), ([(1, 2), (3, 2)], r"combo \(3, 2\): .*power of two"),
         ([(32, 1)], r"combo \(32, 1\): .*power of two"),
         ([(1, 99)], r"combo \(1, 99\): best_m must lie in \[1, 16\]"),
         ([(4, 0)], r"combo \(4, 0\): best_m must lie in \[1, 4\]")],
        ids=["empty", "size_3", "size_32", "best_m_99", "best_m_0"],
    )
    def test_malformed_combos_raise(self, combos, match):
        # corr_cfg() has 16 RBs
        with pytest.raises(ValueError, match=match):
            correlated_rate_grid(corr_cfg(), 10.0, 4, combos, 100, 1)

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
