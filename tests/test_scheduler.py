import math

import numpy as np
import pytest

from hetfb.channel import Cluster, SystemConfig
from tests.perdraw import (
    FeedbackReport,
    gen_subband_fading,
    realize_fixed_rate,
    realize_variable_rate,
    schedule,
    subband_reports,
)


def sys_two_users():
    return SystemConfig(4, (Cluster(2, 2),), 1, 10.0)


class TestSchedule:
    def test_single_user_everywhere(self):
        s = SystemConfig(4, (Cluster(2, 1),), 2, 10.0)  # full feedback
        reports = [FeedbackReport(0, 0, ((0, 0.4), (1, 0.9)))]
        dec = schedule(reports, s)
        assert (dec.user == 0).all()
        assert dec.cqi.tolist() == [0.4, 0.4, 0.9, 0.9]

    def test_argmax_and_outage(self):
        s = sys_two_users()
        reports = [
            FeedbackReport(0, 0, ((0, 0.5),)),
            FeedbackReport(1, 0, ((0, 0.7),)),
        ]
        dec = schedule(reports, s)
        assert dec.user.tolist() == [1, 1, -1, -1]
        assert dec.cqi[0] == 0.7 and math.isnan(dec.cqi[2])
        assert dec.scheduled.tolist() == [True, True, False, False]

    def test_tie_goes_to_lowest_user(self):
        s = sys_two_users()
        reports = [
            FeedbackReport(1, 0, ((0, 0.5),)),
            FeedbackReport(0, 0, ((0, 0.5),)),
        ]
        dec = schedule(reports, s)
        assert dec.user[0] == 0

    def test_selected_user_reported_that_block(self):
        s = SystemConfig(8, (Cluster(1, 3), Cluster(4, 2)), 1, 10.0)
        real = gen_subband_fading(s, seed=4)
        reports = subband_reports(real, s)
        covered = {r.user: {i for i, _ in r.entries} for r in reports}
        dec = schedule(reports, s)
        for n in range(s.num_rbs):
            u = dec.user[n]
            if u < 0:
                continue
            g = 0 if u < 3 else 1
            eta = s.clusters[g].subband_size
            assert n // eta in covered[u]


class TestRealize:
    def _decision(self):
        s = sys_two_users()
        reports = [FeedbackReport(0, 0, ((0, 2.0),)), FeedbackReport(1, 0, ((1, 1.0),))]
        return s, schedule(reports, s)

    def test_fixed_zero_threshold(self):
        s, dec = self._decision()
        actual = np.full((2, 4), 0.5)
        out = realize_fixed_rate(dec, actual, 0.0, s.snr)
        assert (out.goodput == 0).all()
        assert out.success[dec.scheduled].all()

    def test_fixed_rule(self):
        s, dec = self._decision()
        actual = np.array([[2.0, 2.0, 0.3, 0.3], [0.5, 0.5, 1.2, 1.2]])
        out = realize_fixed_rate(dec, actual, 1.0, 10.0)
        rate = math.log2(11.0)
        # blocks 0-1 -> user 0, actual 2.0 > 1.0; blocks 2-3 -> user 1, 1.2 > 1.0
        assert out.goodput == pytest.approx([rate, rate, rate, rate])
        out2 = realize_fixed_rate(dec, actual, 1.5, 10.0)
        assert out2.goodput[:2] == pytest.approx([math.log2(16.0)] * 2)
        assert (out2.goodput[2:] == 0).all()
        assert (out2.goodput == np.where(out2.success, out2.attempted, 0.0)).all()

    def test_variable_rule(self):
        s, dec = self._decision()
        actual = np.array([[1.8, 1.8, 0.0, 0.0], [0.0, 0.0, 0.9, 0.9]])
        out = realize_variable_rate(dec, actual, 0.95, 10.0)
        # user 0 reported 2.0: threshold 1.9 > actual 1.8 -> outage
        assert (out.goodput[:2] == 0).all()
        assert not out.success[0]
        # user 1 reported 1.0: threshold 0.95 > 0.9 -> outage
        assert (out.goodput[2:] == 0).all()
        out2 = realize_variable_rate(dec, actual, 0.8, 10.0)
        assert out2.success.all()  # thresholds 1.6 < 1.8 and 0.8 < 0.9
        assert out2.goodput[0] == pytest.approx(math.log2(1 + 10 * 0.8 * 2.0))

    def test_variable_zero_backoff(self):
        s, dec = self._decision()
        actual = np.full((2, 4), 0.5)
        out = realize_variable_rate(dec, actual, 0.0, 10.0)
        assert (out.attempted == 0).all() and (out.goodput == 0).all()

    def test_scheduling_outage_blocks_carry_zero(self):
        s = sys_two_users()
        reports = [FeedbackReport(0, 0, ((0, 2.0),))]
        dec = schedule(reports, s)
        actual = np.full((2, 4), 5.0)
        out = realize_fixed_rate(dec, actual, 1.0, 10.0)
        assert (out.attempted[2:] == 0).all() and (out.goodput[2:] == 0).all()

    def test_validation(self):
        s, dec = self._decision()
        actual = np.zeros((2, 4))
        with pytest.raises(ValueError):
            realize_fixed_rate(dec, actual, -0.1, 10.0)
        with pytest.raises(ValueError):
            realize_variable_rate(dec, actual, 1.2, 10.0)


class TestStatisticalInvariants:
    def test_fairness_and_coverage(self):
        s = SystemConfig(8, (Cluster(1, 2), Cluster(2, 2)), 1, 10.0)
        n_trials = 3000
        wins = np.zeros(s.num_users)
        covered_blocks = 0
        scheduled_weight = 0
        for seed in range(n_trials):
            real = gen_subband_fading(s, seed=seed)
            dec = schedule(subband_reports(real, s), s)
            for u in dec.user:
                if u >= 0:
                    wins[u] += 1
            covered_blocks += int(dec.scheduled.sum())
        total_wins = wins.sum()
        share = wins / total_wins
        se = math.sqrt(0.25 / total_wins)
        assert np.all(np.abs(share - 1.0 / s.num_users) < 3 * se + 0.01)

        p_cover = 1.0 - (1.0 - s.report_prob) ** s.num_users
        emp_cover = covered_blocks / (n_trials * s.num_rbs)
        se_cover = math.sqrt(p_cover * (1 - p_cover) / (n_trials * s.num_rbs))
        # blocks within a trial are correlated; allow a generous margin
        assert abs(emp_cover - p_cover) < 6 * se_cover + 0.005
