import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from hetfb.channel import (
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    StrategyParams,
    SystemConfig,
    _correlated_gain_map,
    pdp_exponential,
)
from hetfb.specfun import marcum_q1
from tests.oracles import conditional_pdf_actual, subcarrier_correlation
from tests.perdraw import (
    ChannelRealization,
    apply_impairments,
    correlated_gains,
    gen_correlated_channel,
    gen_subband_fading,
)

# direct evaluation of the profile formula, normalization checked separately
PDP_SIGMA0_L16_D4 = 0.22532621043101655


def corr_cfg(num_taps=16, decay=4.0, nc=256, rc=8):
    return CorrelatedChannelConfig(nc, rc, tuple(pdp_exponential(num_taps, decay)))


class TestConfigs:
    def test_system_properties(self):
        s = SystemConfig(64, (Cluster(1, 5), Cluster(4, 7)), 4, 10.0)
        assert s.num_users == 12 and s.num_clusters == 2
        assert s.eta_max == 4 and s.m_full == 16
        assert s.report_prob == pytest.approx(0.25)
        assert s.num_subbands(0) == 64 and s.num_subbands(1) == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_rbs=0, clusters=(Cluster(1, 1),), best_m=1, snr=1.0),
            dict(num_rbs=8, clusters=(), best_m=1, snr=1.0),
            dict(num_rbs=8, clusters=(Cluster(2, 1), Cluster(2, 1)), best_m=1, snr=1.0),
            dict(num_rbs=8, clusters=(Cluster(4, 1), Cluster(2, 1)), best_m=1, snr=1.0),
            dict(num_rbs=12, clusters=(Cluster(8, 1),), best_m=1, snr=1.0),
            dict(num_rbs=8, clusters=(Cluster(4, 1),), best_m=3, snr=1.0),
            dict(num_rbs=8, clusters=(Cluster(4, 1),), best_m=0, snr=1.0),
            dict(num_rbs=8, clusters=(Cluster(4, 0),), best_m=1, snr=1.0),
            dict(num_rbs=8, clusters=(Cluster(4, 1),), best_m=1, snr=0.0),
        ],
    )
    def test_system_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("num_rbs,sizes", [(48, (1, 32)), (8, (16,))])
    def test_largest_subband_size_must_divide_blocks(self, num_rbs, sizes):
        # covers every smaller size, and a largest size above num_rbs
        with pytest.raises(ValueError, match="the largest subband size must divide num_rbs"):
            SystemConfig(num_rbs, tuple(Cluster(s, 1) for s in sizes), 1, 10.0)

    def test_cluster_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Cluster(3, 1)

    def test_correlated_rejects(self):
        with pytest.raises(ValueError):
            CorrelatedChannelConfig(100, 4, (1.0,))  # not a power of two
        with pytest.raises(ValueError):
            CorrelatedChannelConfig(256, 7, (1.0,))  # rc does not divide
        with pytest.raises(ValueError):
            CorrelatedChannelConfig(256, 8, (0.5, 0.4))  # unnormalized

    def test_impairments(self):
        imp = ImpairmentParams(0.01, 0.98)
        expected = math.sqrt(2.0 / (0.98**2 * 0.01 + 1.0 - 0.98**2))
        assert imp.alpha_w == pytest.approx(expected, rel=1e-14)
        assert imp.estimate_var == pytest.approx(0.99)

    @pytest.mark.parametrize("sw2,alpha", [(1.0, 0.5), (-0.1, 0.5), (0.1, 1.5), (0.0, 1.0)])
    def test_impairments_reject(self, sw2, alpha):
        with pytest.raises(ValueError):
            ImpairmentParams(sw2, alpha)

    def test_near_perfect_feedback_at_unit_correlation(self):
        # alpha = 1 leaves alpha_w = sqrt(2 / sigma_w^2): accepted while it is
        # finite, rejected once it overflows
        for sw2 in (1e-300, 2.9e-115, 1e-20):
            assert ImpairmentParams(sw2, 1.0).alpha_w == pytest.approx(math.sqrt(2.0 / sw2))
        with pytest.raises(ValueError, match="degenerate impairments"):
            ImpairmentParams(5e-324, 1.0)


class TestPdp:
    def test_single_tap(self):
        assert pdp_exponential(1, 3.0).tolist() == [1.0]

    def test_frozen_value(self):
        pdp = pdp_exponential(16, 4.0)
        direct = (1 - math.exp(-0.25)) / (1 - math.exp(-4.0))
        assert abs(direct - PDP_SIGMA0_L16_D4) < 1e-15
        assert pdp[0] == pytest.approx(PDP_SIGMA0_L16_D4, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64), st.floats(0.05, 50.0))
    def test_normalization(self, num_taps, decay):
        assert abs(pdp_exponential(num_taps, decay).sum() - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            pdp_exponential(0, 1.0)
        with pytest.raises(ValueError):
            pdp_exponential(4, 0.0)


class TestSubcarrierCorrelation:
    def test_same_index(self):
        assert subcarrier_correlation(pdp_exponential(16, 4.0), 5, 5, 256) == pytest.approx(1.0)

    def test_flat_fading(self):
        for lag in (1, 17, 100):
            assert subcarrier_correlation((1.0,), 0, lag, 256) == pytest.approx(1.0)

    def test_direct_sum_oracle(self):
        pdp = pdp_exponential(16, 4.0)
        oracle = sum(
            p * complex(math.cos(-2 * math.pi * l * 8 / 256), math.sin(-2 * math.pi * l * 8 / 256))
            for l, p in enumerate(pdp)
        )
        got = subcarrier_correlation(pdp, 0, 8, 256)
        assert abs(got - oracle) < 1e-14


class TestCorrelatedChannel:
    def test_single_tap_flat(self):
        cfg = CorrelatedChannelConfig(64, 4, (1.0,))
        real = gen_correlated_channel(cfg, 3, seed=1)
        mags = np.abs(real.gains[0])
        assert np.allclose(mags, mags[:, :1])

    @pytest.mark.parametrize("users", [3, 70])
    def test_gain_map_is_the_scaled_tap_sum(self, users):
        # the library's real product gives the (re, im) pairs of sqrt(snr) g;
        # the oracle sums the complex taps explicitly.  70 users split into
        # two groups of (users x 32) @ (32 x 512) products
        cfg, snr = corr_cfg(), 10.0
        z = np.random.default_rng(4).standard_normal((7, users, cfg.num_taps, 2))
        got = _correlated_gain_map(cfg, snr)(z.reshape(7, users, -1)).view(complex)
        want = math.sqrt(snr) * correlated_gains(cfg, z)
        # relative over each user's subcarriers: a gain near a null carries
        # the rounding of its largest terms
        err = np.linalg.norm(got - want, axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=-1))

    def test_seed_determinism(self):
        cfg = corr_cfg()
        a = gen_correlated_channel(cfg, 4, seed=9).gains[0]
        b = gen_correlated_channel(cfg, 4, seed=9).gains[0]
        c = gen_correlated_channel(cfg, 4, seed=10).gains[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_covariance_matches_formula(self):
        cfg = corr_cfg()
        users = 30000
        gains = gen_correlated_channel(cfg, users, seed=42).gains[0]
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 3.0 / math.sqrt(users)
        for lag in (1, 8, 32):
            emp = np.mean(gains[:, 0] * np.conj(gains[:, lag]))
            ref = np.conj(subcarrier_correlation(cfg.pdp, 0, lag, cfg.num_subcarriers))
            # product of two unit-variance complex gaussians: SE ~ 1/sqrt(n)
            assert abs(emp - ref) < 3.0 / math.sqrt(users)


class TestSubbandFading:
    def test_single_subband_repeats(self):
        s = SystemConfig(8, (Cluster(8, 3),), 1, 10.0)
        real = gen_subband_fading(s, seed=2)
        assert real.gains[0].shape == (3, 1)
        blocks = real.block_gains(s)
        assert blocks.shape == (3, 8)
        assert np.allclose(blocks, blocks[:, :1])

    def test_blocks_within_subband_equal(self):
        s = SystemConfig(8, (Cluster(2, 2), Cluster(4, 2)), 1, 10.0)
        blocks = gen_subband_fading(s, seed=3).block_gains(s)
        assert np.array_equal(blocks[0, 0], blocks[0, 1])
        assert np.array_equal(blocks[2, 0], blocks[2, 3])

    def test_exponential_marginal_ks(self):
        s = SystemConfig(4, (Cluster(1, 100),), 1, 10.0)
        draws = []
        for seed in range(250):
            draws.append(np.abs(gen_subband_fading(s, seed=seed).gains[0]) ** 2)
        sample = np.concatenate([d.ravel() for d in draws])
        assert sample.size == 100_000
        assert stats.kstest(sample, "expon").pvalue > 0.01

    def test_seed_determinism(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 2, 10.0)
        a = gen_subband_fading(s, seed=11)
        b = gen_subband_fading(s, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a.gains, b.gains))

    def test_block_view_requires_subband(self):
        real = ChannelRealization("subcarrier", (np.zeros((1, 4), dtype=complex),))
        with pytest.raises(ValueError):
            real.block_gains(SystemConfig(4, (Cluster(1, 1),), 1, 1.0))


class TestImpairments:
    def _draws(self, imp, users=60000, seed=5):
        s = SystemConfig(2, (Cluster(2, users),), 1, 10.0)
        base = gen_subband_fading(s, seed=seed)
        est, act = apply_impairments(base, imp, seed=seed + 1)
        return est.gains[0].ravel(), act.gains[0].ravel()

    def test_near_perfect_limit(self):
        # the exactly degenerate pair is rejected; the limit is continuous
        est, act = self._draws(ImpairmentParams(1e-12, 1.0), users=2000)
        assert np.max(np.abs(est - act)) < 1e-4

    def test_zero_delay_correlation_decorrelates(self):
        est, act = self._draws(ImpairmentParams(0.01, 0.0))
        n = est.size
        corr = np.mean(est * np.conj(act)) / math.sqrt(
            np.mean(np.abs(est) ** 2) * np.mean(np.abs(act) ** 2)
        )
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_estimate_marginal(self):
        imp = ImpairmentParams(0.04, 0.95)
        est, _ = self._draws(imp)
        z = np.abs(est) ** 2
        assert stats.kstest(z[:50000], "expon", args=(0.0, imp.estimate_var)).pvalue > 0.01

    def test_conditional_second_moment(self):
        imp = ImpairmentParams(0.01, 0.98)
        est, act = self._draws(imp, users=200_000, seed=8)
        chi_hat = np.abs(est) ** 2
        chi_til = np.abs(act) ** 2
        c = 1.0
        sel = np.abs(chi_hat - c) < 0.05
        a2 = imp.delay_corr**2
        expected = a2 * chi_hat[sel] + a2 * imp.est_error_var + 1.0 - a2
        resid = chi_til[sel] - expected
        se = resid.std(ddof=1) / math.sqrt(sel.sum())
        assert abs(resid.mean()) < 3.0 * se

    def test_conditional_outage_matches_marcum(self):
        imp = ImpairmentParams(0.01, 0.98)
        est, act = self._draws(imp, users=200_000, seed=9)
        chi_hat = np.abs(est) ** 2
        chi_til = np.abs(act) ** 2
        beta0, c = 0.8, 1.2
        sel = np.abs(chi_hat - c) < 0.05
        emp = np.mean(chi_til[sel] <= beta0)
        center = chi_hat[sel].mean()
        ref = 1.0 - marcum_q1(
            imp.alpha_w * imp.delay_corr * math.sqrt(center), imp.alpha_w * math.sqrt(beta0)
        )
        se = math.sqrt(ref * (1 - ref) / sel.sum())
        assert abs(emp - ref) < 3.0 * se + 0.01

    def test_determinism(self):
        s = SystemConfig(4, (Cluster(2, 3),), 1, 10.0)
        base = gen_subband_fading(s, seed=1)
        imp = ImpairmentParams(0.05, 0.9)
        a = apply_impairments(base, imp, seed=2)
        b = apply_impairments(base, imp, seed=2)
        assert np.array_equal(a[0].gains[0], b[0].gains[0])
        assert np.array_equal(a[1].gains[0], b[1].gains[0])


class TestStrategyParams:
    def test_validation(self):
        StrategyParams(beta0=0.0)
        StrategyParams(beta1=1.0)
        with pytest.raises(ValueError):
            StrategyParams(beta0=-0.1)
        with pytest.raises(ValueError):
            StrategyParams(beta1=1.1)


class TestConditionalPdf:
    def test_normalizes(self, imp_default):
        val, _ = integrate.quad(
            lambda x: conditional_pdf_actual(x, 1.0, imp_default), 0.0, 60.0, limit=200
        )
        assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("chi_hat", [0.3, 1.0, 4.0])
    def test_mean(self, imp_default, chi_hat):
        imp = imp_default
        val, _ = integrate.quad(
            lambda x: x * conditional_pdf_actual(x, chi_hat, imp), 0.0, 80.0, limit=300
        )
        expected = imp.delay_corr**2 * chi_hat + 2.0 / imp.alpha_w**2
        assert abs(val - expected) < 1e-6

    def test_zero_estimate_is_exponential(self, imp_default):
        aw2 = imp_default.alpha_w**2
        for x in (0.0, 0.5, 2.0):
            expected = 0.5 * aw2 * math.exp(-0.5 * aw2 * x)
            assert conditional_pdf_actual(x, 0.0, imp_default) == pytest.approx(expected, rel=1e-12)

    def test_large_arguments_finite(self, imp_default):
        assert math.isfinite(conditional_pdf_actual(500.0, 500.0, imp_default))

    def test_domain(self, imp_default):
        with pytest.raises(ValueError):
            conditional_pdf_actual(-1.0, 1.0, imp_default)
        with pytest.raises(ValueError):
            conditional_pdf_actual(1.0, -1.0, imp_default)
