"""Unit tests for the workday/weekend pattern classifier."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.core import patterns
from repro.series import HourlySeries
from repro.synth import diurnal


@pytest.fixture(scope="module")
def isp_series(scenario):
    return scenario.isp_ce.hourly_traffic(
        dt.date(2020, 1, 1), dt.date(2020, 5, 11)
    )


@pytest.fixture(scope="module")
def baseline(isp_series):
    return patterns.fit_baseline(
        isp_series, timebase.Region.CENTRAL_EUROPE
    )


class TestBaseline:
    def test_shapes_normalized(self, baseline):
        assert baseline.workday_shape.sum() == pytest.approx(1.0)
        assert baseline.weekend_shape.sum() == pytest.approx(1.0)

    def test_shapes_differ(self, baseline):
        assert not np.allclose(
            baseline.workday_shape, baseline.weekend_shape, atol=0.005
        )

    def test_bin_count(self, baseline):
        assert baseline.workday_shape.shape == (24 // baseline.bin_hours,)

    def test_synthetic_shapes_classified(self, baseline):
        workday = diurnal.workday_shape()
        weekend = diurnal.weekend_shape()
        wd_shape = workday.reshape(-1, 6).sum(axis=1)
        we_shape = weekend.reshape(-1, 6).sum(axis=1)
        assert baseline.classify_shape(
            wd_shape / wd_shape.sum()
        ) == "workday-like"
        assert baseline.classify_shape(
            we_shape / we_shape.sum()
        ) == "weekend-like"

    def test_invalid_bin_size(self, isp_series):
        with pytest.raises(ValueError):
            patterns.fit_baseline(
                isp_series, timebase.Region.CENTRAL_EUROPE, bin_hours=5
            )


class TestClassification:
    def test_february_workdays_workday_like(self, isp_series, baseline):
        results = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE, baseline,
            start=dt.date(2020, 2, 3), end=dt.date(2020, 2, 28),
        )
        workdays = [
            c for c in results
            if c.calendar_kind is timebase.DayKind.WORKDAY
        ]
        agreement = sum(
            1 for c in workdays if c.predicted == "workday-like"
        ) / len(workdays)
        assert agreement > 0.9

    def test_april_workdays_weekend_like(self, isp_series, baseline):
        results = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE, baseline,
            start=dt.date(2020, 4, 1), end=dt.date(2020, 4, 30),
        )
        workdays = [
            c for c in results
            if c.calendar_kind is timebase.DayKind.WORKDAY
        ]
        weekendlike = sum(
            1 for c in workdays if c.predicted == "weekend-like"
        ) / len(workdays)
        assert weekendlike > 0.9

    def test_new_year_vacation_misclassified(self, isp_series, baseline):
        results = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE, baseline,
            start=dt.date(2020, 1, 2), end=dt.date(2020, 1, 3),
        )
        assert all(c.predicted == "weekend-like" for c in results)
        assert not any(c.matches_calendar for c in results)

    def test_matches_calendar_for_weekend(self, isp_series, baseline):
        results = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE, baseline,
            start=dt.date(2020, 2, 22), end=dt.date(2020, 2, 23),
        )
        assert all(c.matches_calendar for c in results)

    def test_default_range_is_whole_series(self, isp_series, baseline):
        results = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE, baseline
        )
        assert results[0].day == dt.date(2020, 1, 1)
        assert results[-1].day == dt.date(2020, 5, 11)


def _shift_at(series, bin_hours):
    classifications = patterns.classify_days(
        series, timebase.Region.CENTRAL_EUROPE, bin_hours=bin_hours
    )
    return patterns.summarize_shift(
        classifications, timebase.TIMELINE_CE.lockdown
    )


class TestSummarizeShift:
    def test_shift_detected(self, isp_series):
        classifications = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE
        )
        shift = patterns.summarize_shift(
            classifications, timebase.TIMELINE_CE.lockdown
        )
        assert shift.shifted()
        assert shift.pre_lockdown_agreement > 0.8
        assert shift.post_lockdown_weekendlike_workdays > 0.8
        assert shift.post_lockdown_agreement_weekends > 0.8

    # The paper's 6 h bins are the default, checked above.
    @pytest.mark.parametrize("bin_hours", [1, 3, 12])
    def test_shift_visible_at_other_bin_sizes(self, isp_series, bin_hours):
        assert _shift_at(isp_series, bin_hours).shifted()

    def test_six_hour_bins_agree_no_worse_than_extremes(self, isp_series):
        agreement = {
            bin_hours: _shift_at(isp_series, bin_hours).pre_lockdown_agreement
            for bin_hours in (1, 6, 12)
        }
        assert agreement[6] >= min(agreement[1], agreement[12])

    def test_range_must_span_lockdown(self, isp_series):
        classifications = patterns.classify_days(
            isp_series, timebase.Region.CENTRAL_EUROPE,
            start=dt.date(2020, 2, 1), end=dt.date(2020, 2, 28),
        )
        with pytest.raises(ValueError):
            patterns.summarize_shift(
                classifications, timebase.TIMELINE_CE.lockdown
            )
