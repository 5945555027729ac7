import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetfb.channel import Cluster, SystemConfig, cluster_feedback_quota
from tests.perdraw import (
    FeedbackReport,
    best_m_select,
    cqi_subband_avg_rate,
    gen_subband_fading,
    subband_reports,
)

LOG2_11 = 3.4594316186372973
MIXED_CQI = 4.206813964512087  # (log2(11) + log2(31)) / 2


class TestCqi:
    def test_constant_channel(self):
        gains = np.ones(8, dtype=complex)
        assert cqi_subband_avg_rate(gains, 10.0) == pytest.approx(LOG2_11, abs=1e-12)

    def test_zero_channel(self):
        assert cqi_subband_avg_rate(np.zeros(4, dtype=complex), 10.0) == 0.0

    def test_mixed_oracle(self):
        gains = np.array([1.0, math.sqrt(3.0)], dtype=complex)
        direct = (math.log2(11.0) + math.log2(31.0)) / 2.0
        assert abs(direct - MIXED_CQI) < 1e-14
        assert cqi_subband_avg_rate(gains, 10.0) == pytest.approx(MIXED_CQI, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            cqi_subband_avg_rate(np.array([]), 10.0)


class TestBestMSelect:
    def test_example(self):
        assert best_m_select([5, 2, 9, 1], 2) == [(2, 9.0), (0, 5.0)]

    def test_full_selection_is_permutation(self):
        vals = [3.0, 1.0, 4.0, 1.5]
        got = best_m_select(vals, 4)
        assert sorted(i for i, _ in got) == [0, 1, 2, 3]
        assert [v for _, v in got] == sorted(vals, reverse=True)

    def test_tie_breaks_low_index(self):
        assert best_m_select([7, 7, 1], 1) == [(0, 7.0)]
        assert best_m_select([7, 7, 1], 2) == [(0, 7.0), (1, 7.0)]

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            best_m_select([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            best_m_select([1.0, 2.0], 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=24),
        st.data(),
    )
    def test_selected_is_maximal(self, values, data):
        m = data.draw(st.integers(1, len(values)))
        got = best_m_select(values, m)
        assert len(got) == m
        chosen = {i for i, _ in got}
        assert len(chosen) == m
        lowest_chosen = min(v for _, v in got)
        for i, v in enumerate(values):
            if i not in chosen:
                assert v <= lowest_chosen


class TestQuota:
    def test_two_clusters(self):
        s = SystemConfig(16, (Cluster(1, 1), Cluster(4, 1)), 2, 10.0)
        assert [cluster_feedback_quota(s, g) for g in range(2)] == [8, 2]

    def test_base_cluster_gets_m(self):
        s = SystemConfig(16, (Cluster(2, 1), Cluster(8, 1)), 2, 10.0)
        assert cluster_feedback_quota(s, s.num_clusters - 1) == s.best_m

    def test_four_cluster_ladder(self):
        s = SystemConfig(64, (Cluster(1, 1), Cluster(2, 1), Cluster(4, 1), Cluster(8, 1)), 2, 10.0)
        assert [cluster_feedback_quota(s, g) for g in range(4)] == [16, 8, 4, 2]

    def test_report_fraction_is_cluster_independent(self):
        s = SystemConfig(64, (Cluster(1, 3), Cluster(2, 3), Cluster(8, 3)), 4, 10.0)
        fractions = {
            Fraction(cluster_feedback_quota(s, g), s.num_subbands(g))
            for g in range(s.num_clusters)
        }
        assert fractions == {Fraction(s.eta_max * s.best_m, s.num_rbs)}


class TestSubbandReports:
    def test_structure_and_quota(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(4, 1)), 1, 10.0)
        reports = subband_reports(gen_subband_fading(s, seed=0), s)
        assert [r.user for r in reports] == [0, 1, 2]
        assert [len(r.entries) for r in reports] == [4, 4, 1]
        for r in reports:
            values = [v for _, v in r.entries]
            assert values == sorted(values, reverse=True)

    def test_empirical_report_frequency(self):
        # fraction of draws reporting a fixed subband -> eta_max*M/N
        s = SystemConfig(8, (Cluster(1, 1), Cluster(2, 1)), 1, 10.0)
        p = s.report_prob
        n_trials = 4000
        hits = np.zeros(2)
        for seed in range(n_trials):
            for r in subband_reports(gen_subband_fading(s, seed=seed), s):
                if any(idx == 0 for idx, _ in r.entries):
                    hits[r.cluster] += 1
        se = math.sqrt(p * (1 - p) / n_trials)
        assert abs(hits[0] / n_trials - p) < 3 * se
        assert abs(hits[1] / n_trials - p) < 3 * se

    def test_rejects_duplicate_entries(self):
        with pytest.raises(ValueError):
            FeedbackReport(0, 0, ((1, 0.5), (1, 0.2)))
