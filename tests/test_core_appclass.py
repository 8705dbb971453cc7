"""Unit tests for the application-class filters and heatmaps."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
from repro.core import appclass
from repro.flows.record import PROTO_TCP, PROTO_UDP, FlowRecord
from repro.flows.table import FlowTable


def flow(src_asn=1, dst_asn=2, proto=PROTO_TCP, service_port=443,
         hour=0, n_bytes=100):
    return FlowRecord(
        hour=hour, src_ip=1, dst_ip=2, src_asn=src_asn, dst_asn=dst_asn,
        proto=proto, src_port=service_port, dst_port=55000,
        n_bytes=n_bytes, n_packets=1,
    )


class TestClassFilter:
    def test_requires_criteria(self):
        with pytest.raises(ValueError):
            appclass.ClassFilter()

    def test_as_only_matches_either_side(self):
        filt = appclass.ClassFilter(asns=frozenset({2906}))
        table = FlowTable.from_records(
            [flow(src_asn=2906), flow(dst_asn=2906), flow(src_asn=1)]
        )
        assert filt.mask(table).tolist() == [True, True, False]

    def test_port_only(self):
        filt = appclass.ClassFilter(ports=frozenset({22}))
        table = FlowTable.from_records(
            [flow(service_port=22), flow(service_port=443)]
        )
        assert filt.mask(table).tolist() == [True, False]

    def test_combined_as_and_port(self):
        filt = appclass.ClassFilter(
            asns=frozenset({8075}), ports=frozenset({3480})
        )
        table = FlowTable.from_records(
            [
                flow(src_asn=8075, service_port=3480),
                flow(src_asn=8075, service_port=443),
                flow(src_asn=1, service_port=3480),
            ]
        )
        assert filt.mask(table).tolist() == [True, False, False]

    def test_protocol_restriction(self):
        filt = appclass.ClassFilter(
            ports=frozenset({443}), protos=frozenset({PROTO_UDP})
        )
        table = FlowTable.from_records(
            [flow(proto=PROTO_UDP), flow(proto=PROTO_TCP)]
        )
        assert filt.mask(table).tolist() == [True, False]


class TestStandardClasses:
    @pytest.fixture(scope="class")
    def classes(self):
        return appclass.standard_classes()

    def test_nine_classes(self, classes):
        assert len(classes) == 9

    def test_table1_counts_exact(self):
        rows = {
            name: (f, a, p) for name, f, a, p in appclass.table1_rows()
        }
        assert rows["webconf"] == (7, 1, 6)
        assert rows["vod"] == (5, 5, 0)
        assert rows["gaming"] == (8, 5, 57)
        assert rows["social"] == (4, 4, 1)
        assert rows["messaging"] == (3, 0, 5)
        assert rows["email"] == (1, 0, 10)
        assert rows["educational"] == (9, 9, 0)
        assert rows["collab"] == (8, 2, 9)
        assert rows["cdn"] == (8, 8, 0)

    def test_total_filters_above_50(self):
        total = sum(f for _, f, _, _ in appclass.table1_rows())
        assert total > 50

    def test_gaming_selects_gaming_flow(self, classes):
        table = FlowTable.from_records(
            [flow(src_asn=32590, proto=PROTO_UDP, service_port=27015)]
        )
        assert classes["gaming"].mask(table).all()

    def test_vod_selects_netflix_by_as(self, classes):
        table = FlowTable.from_records([flow(src_asn=2906)])
        assert classes["vod"].mask(table).all()

    def test_webconf_zoom_port_matches_without_as(self, classes):
        table = FlowTable.from_records(
            [flow(src_asn=12345, proto=PROTO_UDP, service_port=8801)]
        )
        assert classes["webconf"].mask(table).all()

    def test_classes_can_overlap(self, classes):
        # Facebook on TCP/5222 hits both social (AS) and messaging
        # (port) — the paper allows overlapping class semantics.
        table = FlowTable.from_records(
            [flow(src_asn=32934, service_port=5222)]
        )
        assert classes["social"].mask(table).all()
        assert classes["messaging"].mask(table).all()

    def test_plain_web_matches_nothing(self, classes):
        table = FlowTable.from_records(
            [flow(src_asn=210000, service_port=8080)]
        )
        for name in ("vod", "gaming", "email", "webconf"):
            assert not classes[name].mask(table).any()


class TestClassActivity:
    def test_activity_metrics(self, scenario):
        start, end = dt.date(2020, 3, 2), dt.date(2020, 3, 8)
        flows = scenario.ixp_se.generate_flows(
            start, end, fidelity=0.6, profiles=["gaming"]
        )
        gaming = appclass.standard_classes()["gaming"]
        activity = appclass.class_activity(flows, gaming, start, end)
        assert len(activity.daily_avg) == 7
        assert activity.unique_ips.values.min() >= 0
        # Normalized to the minimum positive value.
        positive = activity.volume.values[activity.volume.values > 0]
        assert positive.min() == pytest.approx(1.0)

    def test_ip_side_validation(self, scenario):
        start = dt.date(2020, 3, 2)
        flows = scenario.ixp_se.generate_flows(
            start, start, fidelity=0.5, profiles=["gaming"]
        )
        gaming = appclass.standard_classes()["gaming"]
        with pytest.raises(ValueError):
            appclass.class_activity(
                flows, gaming, start, start, ip_side="middle"
            )


class TestHeatmaps:
    @pytest.fixture(scope="class")
    def heatmaps(self, scenario):
        weeks = timebase.APPCLASS_WEEKS_IXP
        flows = FlowTable.concat(
            [
                scenario.ixp_ce.generate_week_flows(week, fidelity=0.4)
                for week in weeks.values()
            ]
        )
        return appclass.class_heatmaps(
            appclass.class_volumes(flows, weeks.values()), weeks
        )

    def test_every_class_has_heatmap(self, heatmaps):
        assert set(heatmaps) == set(appclass.standard_classes())

    def test_morning_hours_removed(self, heatmaps):
        hm = heatmaps["webconf"]
        h0, h1 = appclass.MORNING_HOURS_REMOVED
        assert not any(h0 <= h < h1 for h in hm.hours_kept)
        assert len(hm.base) == 7 * len(hm.hours_kept)

    def test_diffs_clipped(self, heatmaps):
        lo, hi = appclass.CLIP_PERCENT
        for hm in heatmaps.values():
            for diff in hm.diffs.values():
                assert diff.min() >= lo
                assert diff.max() <= hi

    def test_base_normalized_01(self, heatmaps):
        for hm in heatmaps.values():
            assert hm.base.min() >= 0.0
            assert hm.base.max() <= 1.0

    def test_webconf_increases(self, heatmaps):
        diff = heatmaps["webconf"].diffs["stage2"]
        assert diff.mean() > 10.0  # percent points

    def test_requires_base_week(self, scenario):
        flows = scenario.ixp_ce.generate_week_flows(
            timebase.APPCLASS_WEEKS_IXP["base"], fidelity=0.2
        )
        with pytest.raises(ValueError):
            appclass.class_heatmaps(
                appclass.class_volumes(
                    flows, [timebase.APPCLASS_WEEKS_IXP["base"]]
                ),
                {"stage1": timebase.APPCLASS_WEEKS_IXP["stage1"]},
            )


class TestMorningHourRemoval:
    """§5 drops the 2-7am hours before normalizing: the nightly minimum
    barely moves in the lockdown and would compress the heatmaps."""

    @pytest.fixture(scope="class")
    def webconf(self, scenario, fast_config):
        weeks = timebase.APPCLASS_WEEKS_IXP
        flows = FlowTable.concat(
            [
                scenario.ixp_ce.generate_week_flows(
                    week, fast_config.flow_fidelity
                )
                for week in weeks.values()
            ]
        )
        classes = {"webconf": appclass.standard_classes()["webconf"]}
        return appclass.class_volumes(flows, weeks.values(), classes)[
            "webconf"
        ]

    @staticmethod
    def _contrast(volume, hours):
        """Mean |stage-2 - base| in points of the joint min/max scale."""
        raw = {
            label: volume.week(week).astype(float).reshape(7, 24)[:, hours]
            for label, week in timebase.APPCLASS_WEEKS_IXP.items()
        }
        lo = min(v.min() for v in raw.values())
        hi = max(v.max() for v in raw.values())
        diff = (raw["stage2"] - raw["base"]) / ((hi - lo) or 1.0)
        return float(np.abs(diff * 100.0).mean())

    def test_removal_does_not_lose_contrast(self, webconf):
        h0, h1 = appclass.MORNING_HOURS_REMOVED
        kept = [h for h in range(24) if not h0 <= h < h1]
        assert self._contrast(webconf, kept) >= self._contrast(
            webconf, list(range(24))
        )


class TestGrowthHelpers:
    def test_weekly_growth_requires_base_traffic(self):
        weeks = timebase.APPCLASS_WEEKS_IXP
        empty = appclass.class_volumes(FlowTable.empty(), weeks.values())
        with pytest.raises(ValueError):
            appclass.weekly_class_growth(
                empty["webconf"], weeks["base"], weeks["stage1"],
            )

    def test_business_hours_growth_positive_for_webconf(self, scenario):
        weeks = timebase.APPCLASS_WEEKS_ISP
        flows = FlowTable.concat(
            [
                scenario.isp_ce.generate_week_flows(week, fidelity=0.4)
                for week in weeks.values()
            ]
        )
        volume = appclass.class_volumes(flows, weeks.values())["webconf"]
        growth = appclass.business_hours_growth(
            volume, weeks["base"], weeks["stage2"],
            timebase.Region.CENTRAL_EUROPE,
        )
        assert growth > 1.0


def _loop_business_hours_growth(volume, base_week, stage_week, region,
                                hours=(9, 17), weekend=False):
    """Reference: the per-day loop ``business_hours_growth`` replaced."""
    h0, h1 = hours

    def _mean_business(week):
        days = volume.week(week).astype(np.float64).reshape(7, 24)
        values = []
        for i, day in enumerate(week.days()):
            if timebase.behaves_like_weekend(day, region) == weekend:
                values.append(days[i, h0:h1].mean())
        return float(np.mean(values)) if values else 0.0

    base = _mean_business(base_week)
    stage = _mean_business(stage_week)
    if base <= 0:
        raise ValueError("base week has no traffic for the class")
    return stage / base - 1.0


#: Week starts for the business-hours cases.  Dec 31, 2019 starts a
#: week whose seven days all behave like weekend days (New Year
#: vacation), so no workday matches; Apr 6 holds the Easter holidays.
BUSINESS_WEEK_STARTS = (
    dt.date(2019, 12, 31), dt.date(2020, 1, 8), dt.date(2020, 2, 19),
    dt.date(2020, 4, 6), dt.date(2020, 5, 11),
)


class TestBusinessHoursGrowthMatchesLoop:
    @given(
        seed=st.integers(0, 2**32 - 1),
        base_start=st.sampled_from(BUSINESS_WEEK_STARTS),
        stage_start=st.sampled_from(BUSINESS_WEEK_STARTS),
        hours=st.tuples(st.integers(0, 23), st.integers(1, 24)).filter(
            lambda h: h[0] < h[1]
        ),
        weekend=st.booleans(),
        large=st.booleans(),
        region=st.sampled_from(list(timebase.Region)),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_per_day_loop(
        self, seed, base_start, stage_start, hours, weekend, large, region
    ):
        start_hour = timebase.hour_index(BUSINESS_WEEK_STARTS[0], 0)
        stop_hour = timebase.hour_index(BUSINESS_WEEK_STARTS[-1], 0) + 168
        rng = np.random.default_rng(seed)
        high = 2**60 if large else 10**7
        volume = appclass.ClassVolume(
            start_hour, rng.integers(0, high, stop_hour - start_hour)
        )
        base = timebase.Week(base_start)
        stage = timebase.Week(stage_start)
        try:
            expected = _loop_business_hours_growth(
                volume, base, stage, region, hours, weekend
            )
        except ValueError:
            with pytest.raises(ValueError):
                appclass.business_hours_growth(
                    volume, base, stage, region, hours, weekend
                )
            return
        got = appclass.business_hours_growth(
            volume, base, stage, region, hours, weekend
        )
        assert got == expected

    def test_no_matching_day(self):
        # Every day of the New Year week behaves like a weekend day.
        volume = appclass.ClassVolume(
            timebase.hour_index(dt.date(2019, 12, 31), 0),
            np.full(14 * 24, 1000, dtype=np.int64),
        )
        new_year = timebase.Week(dt.date(2019, 12, 31))
        later = timebase.Week(dt.date(2020, 1, 7))
        region = timebase.Region.CENTRAL_EUROPE
        assert appclass.business_hours_growth(
            volume, later, new_year, region
        ) == -1.0
        with pytest.raises(ValueError, match="base week"):
            appclass.business_hours_growth(volume, new_year, later, region)
