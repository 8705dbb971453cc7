"""Unit tests for anomaly detection."""

import datetime as dt

import numpy as np
import pytest

from repro.core import anomaly, appclass


def daily_series(values, start=dt.date(2020, 2, 1)):
    return {
        start + dt.timedelta(days=i): float(v) for i, v in enumerate(values)
    }


class TestRobustZScores:
    def test_flat_series_scores_zero(self):
        scores = anomaly.robust_z_scores([10.0] * 30)
        assert np.all(scores == 0)

    def test_single_spike_flagged(self):
        values = [10.0] * 30
        values[20] = 100.0
        scores = anomaly.robust_z_scores(values)
        assert abs(scores[20]) == np.inf or abs(scores[20]) > 10

    def test_gradual_shift_not_flagged(self):
        # A lockdown-like ramp: +2% per day must not register as an
        # anomaly under the trailing-window design.
        values = [100.0 * 1.02**i for i in range(40)]
        rng = np.random.default_rng(0)
        noisy = [v * rng.lognormal(0, 0.02) for v in values]
        flagged = anomaly.detect_anomalies(
            daily_series(noisy), threshold=4.0
        )
        assert not flagged

    def test_window_validation(self):
        with pytest.raises(ValueError):
            anomaly.robust_z_scores([1.0] * 10, window=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anomaly.robust_z_scores([])


class TestDetectAnomalies:
    def test_two_day_outage_detected(self):
        rng = np.random.default_rng(1)
        values = [100.0 * rng.lognormal(0, 0.03) for _ in range(40)]
        values[25] = 20.0
        values[26] = 25.0
        drops = anomaly.detect_outage_days(daily_series(values))
        expected = {
            dt.date(2020, 2, 1) + dt.timedelta(days=25),
            dt.date(2020, 2, 1) + dt.timedelta(days=26),
        }
        assert expected <= set(drops)

    def test_surge_classified(self):
        values = [100.0] * 30
        values[15] = 500.0
        found = anomaly.detect_anomalies(daily_series(values))
        assert any(a.kind == "surge" for a in found)
        surge = next(a for a in found if a.kind == "surge")
        assert surge.relative_deviation > 3.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            anomaly.detect_anomalies(daily_series([1.0] * 20), threshold=0)

    def test_gaming_outage_found_in_scenario(self, scenario):
        start, end = dt.date(2020, 2, 24), dt.date(2020, 4, 5)
        flows = scenario.ixp_se.generate_flows(
            start, end, fidelity=0.5, profiles=["gaming"]
        )
        gaming = appclass.standard_classes()["gaming"]
        activity = appclass.class_activity(flows, gaming, start, end)
        daily = {
            day: volume for day, (_, volume) in activity.daily_avg.items()
        }
        drops = anomaly.detect_outage_days(daily, threshold=3.0)
        # The planted provider outage: March 16-17.
        assert dt.date(2020, 3, 16) in drops
        assert dt.date(2020, 3, 17) in drops


class TestWeekOverWeek:
    def test_first_week_scores_zero(self):
        scores = anomaly.week_over_week_scores([100.0] * 20)
        assert np.all(scores[:7] == 0)

    def test_regime_drift_tolerated(self):
        # +30% per week sustained drift with realistic noise: the log
        # ratio is near-constant, so nothing is flagged.
        rng = np.random.default_rng(3)
        values = [
            100.0 * 1.3 ** (i / 7) * rng.lognormal(0, 0.03)
            for i in range(35)
        ]
        found = anomaly.detect_anomalies(daily_series(values), threshold=4.0)
        assert not found

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            anomaly.week_over_week_scores([1.0, 0.0, 2.0])

    def test_short_series_all_zero(self):
        assert np.all(anomaly.week_over_week_scores([5.0] * 5) == 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            anomaly.detect_anomalies(
                daily_series([1.0] * 20), method="fourier"
            )

    def test_level_method_still_available(self):
        values = [10.0] * 30
        values[20] = 100.0
        found = anomaly.detect_anomalies(
            daily_series(values), method="level"
        )
        assert any(a.day == dt.date(2020, 2, 21) for a in found)

    def test_wow_expected_is_prior_week(self):
        values = [100.0] * 30
        values[20] = 10.0
        found = anomaly.detect_anomalies(daily_series(values))
        drop = next(a for a in found if a.kind == "drop")
        assert drop.expected == 100.0
