"""Unit tests for the link-utilization ECDF analysis."""

import datetime as dt

import numpy as np
import pytest

from repro.core import linkutil as linkutil_mod
from repro.core.linkutil import (
    ECDF,
    compare_days,
    reduce_day,
    right_shift_fraction,
)
from repro.synth import linkutil as linkutil_synth


class TestECDF:
    def test_fraction_at_or_below(self):
        ecdf = ECDF.from_values([0.1, 0.2, 0.3, 0.4])
        assert ecdf.fraction_at_or_below(0.25) == pytest.approx(0.5)
        assert ecdf.fraction_at_or_below(1.0) == 1.0
        assert ecdf.fraction_at_or_below(0.0) == 0.0

    def test_quantile(self):
        ecdf = ECDF.from_values(np.linspace(0, 1, 101))
        assert ecdf.quantile(0.5) == pytest.approx(0.5)

    def test_quantile_bounds(self):
        ecdf = ECDF.from_values([1.0])
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ECDF.from_values([])

    def test_evaluate_grid(self):
        ecdf = ECDF.from_values([0.2, 0.4])
        values = ecdf.evaluate([0.1, 0.3, 0.5])
        assert values.tolist() == [0.0, 0.5, 1.0]


class TestReduceDay:
    def test_statistics(self):
        utils = {1: np.array([0.1, 0.5, 0.3])}
        stats = reduce_day(utils)
        assert stats.minimum[1] == pytest.approx(0.1)
        assert stats.maximum[1] == pytest.approx(0.5)
        assert stats.average[1] == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce_day({})

    def test_bad_series_rejected(self):
        with pytest.raises(ValueError):
            reduce_day({1: np.zeros((2, 2))})

    def test_ecdfs_cover_population(self):
        utils = {i: np.full(10, i / 10) for i in range(1, 6)}
        ecdfs = reduce_day(utils).ecdfs()
        assert ecdfs["average"].sorted_values.shape == (5,)


class TestRightShift:
    def test_clear_shift_detected(self):
        base = ECDF.from_values(np.linspace(0.1, 0.4, 50))
        stage = ECDF.from_values(np.linspace(0.2, 0.6, 50))
        assert right_shift_fraction(base, stage) > 0.9

    def test_identical_distributions(self):
        values = np.linspace(0.1, 0.4, 50)
        base, stage = ECDF.from_values(values), ECDF.from_values(values)
        assert right_shift_fraction(base, stage) == pytest.approx(1.0)

    def test_left_shift_scores_low(self):
        base = ECDF.from_values(np.linspace(0.3, 0.6, 50))
        stage = ECDF.from_values(np.linspace(0.1, 0.3, 50))
        # Grid points where both CDFs sit at 0 or 1 count as ties, so a
        # clear left shift still scores ~0.5 rather than 0.
        assert right_shift_fraction(base, stage) <= 0.55

    def test_left_shift_scores_below_right_shift(self):
        lo = np.linspace(0.1, 0.3, 50)
        hi = np.linspace(0.3, 0.6, 50)
        left = right_shift_fraction(ECDF.from_values(hi), ECDF.from_values(lo))
        right = right_shift_fraction(ECDF.from_values(lo), ECDF.from_values(hi))
        assert left < right


class TestCompareDays:
    def test_all_statistics_present(self):
        rng = np.random.default_rng(0)
        base = {i: rng.uniform(0, 0.3, 100) for i in range(20)}
        stage = {i: rng.uniform(0.1, 0.5, 100) for i in range(20)}
        comparison = compare_days(base, stage)
        assert set(comparison) == {"minimum", "average", "maximum"}
        for base_e, stage_e in comparison.values():
            assert right_shift_fraction(base_e, stage_e) > 0.7


class TestDownsampling:
    def test_hourly_average_of_constant(self):
        series = np.full(1440, 0.5)
        coarse = linkutil_mod.downsample_utilization(series, 60)
        assert coarse.shape == (24,)
        assert np.allclose(coarse, 0.5)

    def test_averaging_hides_bursts(self):
        series = np.zeros(1440)
        series[100] = 1.0  # a one-minute burst
        coarse = linkutil_mod.downsample_utilization(series, 60)
        assert coarse.max() == pytest.approx(1.0 / 60.0)

    def test_one_minute_is_identity(self):
        series = np.random.default_rng(0).uniform(0, 1, 1440)
        assert np.array_equal(
            linkutil_mod.downsample_utilization(series, 1), series
        )

    def test_uneven_window_rejected(self):
        with pytest.raises(ValueError):
            linkutil_mod.downsample_utilization(np.zeros(1440), 7)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            linkutil_mod.downsample_utilization(np.zeros(1440), 0)


class TestPeakUnderstatement:
    def test_bursty_member_understated(self):
        series = np.zeros(1440)
        series[::100] = 1.0
        ratio = linkutil_mod.peak_understatement({1: series}, 60)
        assert ratio < 0.5

    def test_smooth_member_not_understated(self):
        series = np.full(1440, 0.6)
        assert linkutil_mod.peak_understatement(
            {1: series}, 60
        ) == pytest.approx(1.0)

    def test_requires_positive_utilization(self):
        with pytest.raises(ValueError):
            linkutil_mod.peak_understatement({1: np.zeros(1440)}, 60)


class TestMeasurementGranularity:
    """§3.3 measures per minute: coarser windows understate the maxima
    that trigger upgrades, but Fig 5's right shift survives them."""

    WINDOWS = (1, 5, 15, 60)

    @pytest.fixture(scope="class")
    def days(self, scenario):
        members = scenario.members["ixp-ce"]
        base = linkutil_synth.member_day_utilization(
            members, dt.date(2020, 2, 19), 1.0, seed=scenario.seed + 51
        )
        stage = linkutil_synth.member_day_utilization(
            members, dt.date(2020, 4, 22), 1.3, seed=scenario.seed + 51,
            shape_name="lockdown-workday",
        )
        return base, stage

    def test_averaging_hides_peaks_monotonically(self, days):
        _, stage = days
        shown = [
            linkutil_mod.peak_understatement(stage, window)
            for window in self.WINDOWS
        ]
        assert shown[0] == 1.0
        assert shown == sorted(shown, reverse=True)
        assert shown[-1] < 0.999

    def test_right_shift_survives_coarse_windows(self, days):
        for window in self.WINDOWS:
            base_max, stage_max = (
                ECDF.from_values([
                    float(linkutil_mod.downsample_utilization(s, window).max())
                    for s in day.values()
                ])
                for day in days
            )
            assert right_shift_fraction(base_max, stage_max) >= 0.8, window
