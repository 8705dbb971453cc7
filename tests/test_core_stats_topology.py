"""Unit tests for the statistics wrappers."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.core import stats
from repro.synth import linkutil as linkutil_synth


class TestKSShift:
    def test_clear_shift_significant(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.0, 0.3, 200)
        stage = rng.uniform(0.15, 0.5, 200)
        result = stats.ks_shift(base, stage)
        assert result.significant()
        assert result.direction == "right"

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 1, 200)
        stage = rng.uniform(0, 1, 200)
        assert not stats.ks_shift(base, stage).significant(alpha=0.001)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            stats.ks_shift([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_fig5_utilizations_significant(self, scenario):
        members = scenario.members["ixp-ce"]
        base = linkutil_synth.member_day_utilization(
            members, dt.date(2020, 2, 19), 1.0, seed=scenario.seed + 51
        )
        stage = linkutil_synth.member_day_utilization(
            members, dt.date(2020, 4, 22), 1.3, seed=scenario.seed + 51,
            shape_name="lockdown-workday",
        )
        base_avgs = [float(np.mean(v)) for v in base.values()]
        stage_avgs = [float(np.mean(v)) for v in stage.values()]
        result = stats.ks_shift(base_avgs, stage_avgs)
        assert result.significant()
        assert result.direction == "right"


class TestMannWhitney:
    def test_level_shift_detected(self):
        rng = np.random.default_rng(2)
        base = rng.normal(100, 5, 30)
        stage = rng.normal(125, 5, 30)
        result = stats.mannwhitney_shift(base, stage)
        assert result.significant()
        assert result.direction == "right"

    def test_decrease_direction(self):
        result = stats.mannwhitney_shift(
            [10.0] * 10, [5.0, 5.1, 4.9, 5.2, 5.0, 4.8, 5.1, 5.0, 4.9, 5.0]
        )
        assert result.direction == "left"


class TestSpearmanTrend:
    def test_rising_trend(self):
        result = stats.spearman_trend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert result.direction == "right"
        assert result.significant(alpha=0.05)

    def test_ixp_us_rises_through_april(self, scenario):
        # §3.1: IXP-US "increases only in April" — the rise window
        # (weeks 10-15, late lockdown ramping in) is a significant
        # monotone trend.
        from repro.core import aggregate

        weekly = aggregate.weekly_normalized(
            scenario.ixp_us.hourly_traffic(
                timebase.STUDY_START, timebase.STUDY_END
            )
        )
        values = [weekly.value(w) for w in range(10, 16)]
        result = stats.spearman_trend(values)
        assert result.direction == "right"
        assert result.significant(alpha=0.05)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            stats.spearman_trend([1.0, 2.0, 3.0])
