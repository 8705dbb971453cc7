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
from tests import appclass_reference as reference


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
            appclass.class_volumes([flows], weeks.values()), weeks
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
                    [flows], [timebase.APPCLASS_WEEKS_IXP["base"]]
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
        return appclass.class_volumes([flows], weeks.values(), classes)[
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
        empty = appclass.class_volumes([FlowTable.empty()], weeks.values())
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
        volume = appclass.class_volumes([flows], weeks.values())["webconf"]
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


# -- membership against the plain-numpy reference ----------------------------

_EDGE_WEEKS = {
    "base": timebase.Week(dt.date(2020, 2, 19), "base"),
    "stage": timebase.Week(dt.date(2020, 3, 25), "stage"),
}

#: (src_asn, dst_asn, proto, src_port, dst_port) per edge-table row.
_EDGE_ROWS = (
    (2906, 1, PROTO_TCP, 55000, 443),
    (1, 2906, PROTO_UDP, 51000, 3480),  # AS only on the destination
    (8075, 1, PROTO_UDP, 52000, 3480),
    (8075, 1, PROTO_TCP, 22, 50000),
    (3, 4, 47, 1234, 5678),  # GRE: service port 0
    (4, 3, 50, 0, 0),  # ESP
    (5, 6, PROTO_TCP, 60000, 0),  # TCP to port 0
    (5, 6, PROTO_TCP, 60000, 70000),  # service port above 65535
    (5, 6, PROTO_TCP, 50000, -3),  # negative service port
    (5, 6, 300, 55000, 443),  # protocol above 255
    (5, 6, -1, 55000, 443),  # negative protocol
    (2**40, 6, PROTO_TCP, 55000, 443),  # ASN beyond 32 bits
)

_EDGE_FILTERS = (
    appclass.ClassFilter(ports=frozenset({22, 443})),
    appclass.ClassFilter(asns=frozenset({2906})),
    appclass.ClassFilter(asns=frozenset({8075}), ports=frozenset({3480})),
    appclass.ClassFilter(
        ports=frozenset({443}), protos=frozenset({PROTO_UDP})
    ),
    appclass.ClassFilter(ports=frozenset({0}), protos=frozenset({47})),
    appclass.ClassFilter(ports=frozenset({0})),
    appclass.ClassFilter(asns=frozenset({99999})),  # absent from the table
    appclass.ClassFilter(asns=frozenset({2**40})),
    appclass.ClassFilter(
        asns=frozenset({5}), protos=frozenset({PROTO_TCP, PROTO_UDP})
    ),
)


def _edge_table(repeat=1):
    rows = np.array(_EDGE_ROWS * repeat, dtype=np.int64)
    start, _ = _EDGE_WEEKS["base"].hour_range()
    n = len(rows)
    return FlowTable.from_arrays(
        hour=start + np.arange(n) % 400,
        src_ip=np.arange(n), dst_ip=np.arange(n),
        src_asn=rows[:, 0], dst_asn=rows[:, 1], proto=rows[:, 2],
        src_port=rows[:, 3], dst_port=rows[:, 4],
        n_bytes=np.arange(1, n + 1) * 1000, n_packets=np.ones(n),
    )


#: ASNs of the random tables; the last one is in no random filter.
_ASN_POOL = [1, 2, 3, 7, 11, 2906, 8075, 2**40, 12]


def _random_filters(rng, n):
    """``n`` distinct filters over small ASN, port and protocol pools."""
    filters = {}
    while len(filters) < n:
        asns = rng.choice(_ASN_POOL[:-1], rng.integers(0, 3))
        ports = rng.choice([0, 22, 80, 443, 3480, 65535], rng.integers(0, 3))
        protos = rng.choice([PROTO_TCP, PROTO_UDP, 47, 50], rng.integers(0, 2))
        if not len(asns) and not len(ports):
            continue
        filt = appclass.ClassFilter(
            asns=frozenset(int(a) for a in asns),
            ports=frozenset(int(p) for p in ports),
            protos=frozenset(int(p) for p in protos),
        )
        filters[filt] = None
    return list(filters)


def _random_table(rng, n):
    start, _ = _EDGE_WEEKS["base"].hour_range()
    _, stop = _EDGE_WEEKS["stage"].hour_range()
    pick = lambda values: rng.choice(values, n)  # noqa: E731
    return FlowTable.from_arrays(
        hour=rng.integers(start - 5, stop + 5, n),
        src_ip=rng.integers(0, 2**32, n), dst_ip=rng.integers(0, 2**32, n),
        src_asn=pick(_ASN_POOL), dst_asn=pick(_ASN_POOL),
        proto=pick([PROTO_TCP, PROTO_UDP, 47, 50, 1, 300]),
        src_port=pick([22, 443, 3480, 50000, 60000, 70000]),
        dst_port=pick([0, 22, 80, 443, 3480, 55000, 65535, 70000]),
        n_bytes=rng.integers(0, 2**40, n), n_packets=np.ones(n),
    )


class TestMembershipMatchesReference:
    """``ClassFilter.mask``, ``AppClass.mask`` and ``class_volumes``
    against per-filter ``np.isin`` (:mod:`tests.appclass_reference`)."""

    @pytest.mark.parametrize("index", range(len(_EDGE_FILTERS)))
    def test_each_edge_filter(self, index):
        filt = _EDGE_FILTERS[index]
        table = _edge_table()
        assert filt.mask(table).tolist() == (
            reference.filter_mask(filt, table).tolist()
        )

    def test_edge_expectations(self):
        # Spot checks that the reference reads the rows as intended.
        table = _edge_table()
        dst_only, port_zero = _EDGE_FILTERS[1], _EDGE_FILTERS[5]
        assert dst_only.mask(table)[:2].tolist() == [True, True]
        # GRE, ESP and TCP to port 0 all have service port 0.
        assert np.flatnonzero(port_zero.mask(table)).tolist() == [4, 5, 6]
        assert not _EDGE_FILTERS[6].mask(table).any()

    def test_edge_class_and_volumes(self):
        classes = {
            "all": appclass.AppClass("all", _EDGE_FILTERS),
            "ports": appclass.AppClass("ports", _EDGE_FILTERS[3:6]),
            "absent": appclass.AppClass("absent", _EDGE_FILTERS[6:7]),
        }
        tables = [_edge_table(3), FlowTable.empty(), _edge_table(2)]
        for app_class in classes.values():
            for table in tables:
                assert np.array_equal(
                    app_class.mask(table),
                    reference.class_mask(app_class, table),
                )
        got = appclass.class_volumes(tables, _EDGE_WEEKS.values(), classes)
        want = reference.class_volumes(tables, _EDGE_WEEKS.values(), classes)
        assert sorted(got) == sorted(want)
        for name, volume in got.items():
            assert volume.values.dtype == np.int64
            assert np.array_equal(volume.values, want[name]), name
        assert want["all"].any() and not want["absent"].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_more_than_64_filters(self, seed):
        rng = np.random.default_rng(seed)
        filters = _random_filters(rng, 150)
        classes = {
            "wide": appclass.AppClass("wide", tuple(filters)),
            "head": appclass.AppClass("head", tuple(filters[:70])),
            "tail": appclass.AppClass("tail", tuple(filters[60:])),
            "last": appclass.AppClass("last", (filters[-1],)),
        }
        tables = [_random_table(rng, 600) for _ in range(3)]
        for filt in filters[::10]:
            assert np.array_equal(
                filt.mask(tables[0]), reference.filter_mask(filt, tables[0])
            )
        for app_class in classes.values():
            assert np.array_equal(
                app_class.mask(tables[0]),
                reference.class_mask(app_class, tables[0]),
            )
        got = appclass.class_volumes(tables, _EDGE_WEEKS.values(), classes)
        want = reference.class_volumes(tables, _EDGE_WEEKS.values(), classes)
        for name, volume in got.items():
            assert np.array_equal(volume.values, want[name]), name

    def test_filter_values_outside_port_and_protocol_ranges_rejected(self):
        with pytest.raises(ValueError):
            appclass.ClassFilter(ports=frozenset({65536}))
        with pytest.raises(ValueError):
            appclass.ClassFilter(ports=frozenset({-1}))
        with pytest.raises(ValueError):
            appclass.ClassFilter(
                ports=frozenset({80}), protos=frozenset({256})
            )
