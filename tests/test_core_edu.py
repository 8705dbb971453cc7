"""Unit tests for the educational-network analysis (§7)."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.core import edu
from repro.flows.record import PROTO_GRE, PROTO_TCP, PROTO_UDP, FlowRecord
from repro.flows.table import FlowTable
from repro.netbase.asdb import EDU_NETWORK_ASN

INTERNAL = [EDU_NETWORK_ASN]


def edu_flow(src_asn, dst_asn, src_port, dst_port, proto=PROTO_TCP,
             hour=0, n_bytes=100, connections=1):
    return FlowRecord(
        hour=hour, src_ip=1, dst_ip=2, src_asn=src_asn, dst_asn=dst_asn,
        proto=proto, src_port=src_port, dst_port=dst_port,
        n_bytes=n_bytes, n_packets=1, connections=connections,
    )


class TestVolumeDirection:
    def test_ingress_egress_masks(self):
        table = FlowTable.from_records(
            [
                edu_flow(99, EDU_NETWORK_ASN, 443, 55000),  # into campus
                edu_flow(EDU_NETWORK_ASN, 99, 443, 55000),  # out of campus
            ]
        )
        ingress, egress = edu.ingress_egress_bytes(table, INTERNAL)
        assert ingress.tolist() == [True, False]
        assert egress.tolist() == [False, True]


class TestConnectionDirection:
    def test_incoming_service_inside(self):
        # External client connecting to an internal server.
        table = FlowTable.from_records(
            [edu_flow(99, EDU_NETWORK_ASN, 55000, 22)]
        )
        assert edu.connection_direction(table, INTERNAL).tolist() == [1]

    def test_incoming_on_response_direction(self):
        # The server's response flow: service port on the internal src.
        table = FlowTable.from_records(
            [edu_flow(EDU_NETWORK_ASN, 99, 443, 55000)]
        )
        assert edu.connection_direction(table, INTERNAL).tolist() == [1]

    def test_outgoing_service_outside(self):
        # Campus client fetching from an external server.
        table = FlowTable.from_records(
            [edu_flow(99, EDU_NETWORK_ASN, 443, 55000)]
        )
        assert edu.connection_direction(table, INTERNAL).tolist() == [-1]

    def test_unknown_when_both_ephemeral(self):
        table = FlowTable.from_records(
            [edu_flow(99, EDU_NETWORK_ASN, 55000, 61000)]
        )
        assert edu.connection_direction(table, INTERNAL).tolist() == [0]

    def test_gre_directed_inward(self):
        table = FlowTable.from_records(
            [edu_flow(99, EDU_NETWORK_ASN, 0, 0, proto=PROTO_GRE)]
        )
        assert edu.connection_direction(table, INTERNAL).tolist() == [1]


class TestClassMask:
    def test_web_class(self):
        table = FlowTable.from_records(
            [
                edu_flow(99, EDU_NETWORK_ASN, 55000, 443),
                edu_flow(99, EDU_NETWORK_ASN, 55000, 22),
            ]
        )
        assert edu.class_mask(table, "web").tolist() == [True, False]

    def test_quic_is_udp_only(self):
        table = FlowTable.from_records(
            [
                edu_flow(99, EDU_NETWORK_ASN, 55000, 443, proto=PROTO_UDP),
                edu_flow(99, EDU_NETWORK_ASN, 55000, 443, proto=PROTO_TCP),
            ]
        )
        assert edu.class_mask(table, "quic").tolist() == [True, False]

    def test_vpn_includes_gre(self):
        table = FlowTable.from_records(
            [edu_flow(99, EDU_NETWORK_ASN, 0, 0, proto=PROTO_GRE)]
        )
        assert edu.class_mask(table, "vpn").all()

    def test_spotify_by_asn(self):
        table = FlowTable.from_records(
            [edu_flow(EDU_NETWORK_ASN, edu.SPOTIFY_ASN, 55000, 61000)]
        )
        assert edu.class_mask(table, "spotify").all()

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError):
            edu.class_mask(FlowTable.empty(), "torrent")


class TestWeeklyVolumes:
    @pytest.fixture(scope="class")
    def volumes(self, edu_capture_flows):
        return edu.weekly_volumes(
            edu_capture_flows, timebase.EDU_WEEKS, INTERNAL
        )

    def test_weeks_present(self, volumes):
        assert set(volumes) == {"base", "transition", "online-lecturing"}

    def test_normalized_peak_is_one(self, volumes):
        peak = max(float(v.total.max()) for v in volumes.values())
        assert peak == pytest.approx(1.0)

    def test_workday_drop_in_band(self, volumes):
        drop = edu.workday_drop(volumes)
        assert 0.30 <= drop <= 0.65

    def test_base_ratio_high(self, volumes):
        base = volumes["base"]
        workday_ratios = [
            r for d, r in zip(base.days, base.in_out_ratio)
            if not timebase.is_weekend(d)
        ]
        assert np.median(workday_ratios) > 8

    def test_ratio_collapses(self, volumes):
        base_med = np.median(volumes["base"].in_out_ratio)
        online_med = np.median(volumes["online-lecturing"].in_out_ratio)
        assert online_med < base_med / 3

    def test_weeks_start_thursday(self, volumes):
        for week in volumes.values():
            assert week.days[0].weekday() == 3  # Thursday


@pytest.fixture(scope="module")
def edu_directions(edu_capture_flows):
    return edu.connection_direction(edu_capture_flows, INTERNAL)


class TestConnections:
    def test_daily_connection_series(self, edu_capture_flows, edu_directions):
        series = edu.daily_connections(
            edu_capture_flows, edu_directions, "ssh", "in",
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
        )
        assert len(series.days) == len(series.counts)
        assert series.days[0] == timebase.EDU_CAPTURE_START

    def test_relative_to_first(self, edu_capture_flows, edu_directions):
        series = edu.daily_connections(
            edu_capture_flows, edu_directions, "web", "in",
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
        )
        relative = series.relative_to_first()
        assert relative[0] == pytest.approx(1.0)

    def test_growth_after_split(self, edu_capture_flows, edu_directions):
        series = edu.daily_connections(
            edu_capture_flows, edu_directions, "vpn", "in",
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
        )
        growth = series.growth_after(dt.date(2020, 3, 11))
        assert growth > 2.0

    def test_invalid_direction_rejected(
        self, edu_capture_flows, edu_directions
    ):
        with pytest.raises(ValueError):
            edu.daily_connections(
                edu_capture_flows, edu_directions, "web", "sideways",
                timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
            )

    def test_directions_must_label_every_flow(self, edu_capture_flows):
        # The internal-AS list is not a direction label per flow.
        with pytest.raises(ValueError, match="one connection_direction"):
            edu.daily_connections(
                edu_capture_flows, INTERNAL, "web", "in",
                timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
            )

    def test_split_outside_period_rejected(
        self, edu_capture_flows, edu_directions
    ):
        series = edu.daily_connections(
            edu_capture_flows, edu_directions, "web", "in",
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
        )
        with pytest.raises(ValueError):
            series.median_before_after(dt.date(2019, 1, 1))


class TestDirectionalitySummary:
    def test_headline_numbers(self, edu_capture_flows, edu_directions):
        summary = edu.directionality_summary(
            edu_capture_flows, edu_directions,
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
            dt.date(2020, 3, 11),
        )
        assert 0.15 <= summary.unknown_fraction <= 0.55
        assert summary.incoming_growth > 1.5
        assert summary.outgoing_growth < 0.7
        assert 0.9 <= summary.total_growth <= 1.6


class TestOriginAnalysis:
    @pytest.fixture(scope="class")
    def region_asns(self, scenario):
        from repro.netbase.asdb import ASCategory

        overseas = [
            info.asn
            for info in scenario.registry.by_category(ASCategory.EYEBALL)
            if info.region is timebase.Region.US_EAST
        ]
        national = scenario.registry.eyeball_asns(
            timebase.Region.SOUTHERN_EUROPE
        )
        return national, overseas

    @pytest.fixture(scope="class")
    def profiles(self, edu_capture_flows, edu_directions, region_asns):
        national, overseas = region_asns
        args = (
            edu_capture_flows, edu_directions, "web", "in",
            dt.date(2020, 4, 13), dt.date(2020, 4, 26),
        )
        return (
            edu.hourly_connection_profile(*args, src_asns=national),
            edu.hourly_connection_profile(*args, src_asns=overseas),
        )

    def test_profile_shape(self, profiles):
        national, overseas = profiles
        assert national.shape == (24,)
        assert overseas.shape == (24,)

    def test_national_working_hours(self, profiles):
        national, _ = profiles
        assert 9 <= int(np.argmax(national)) <= 20

    def test_overseas_peak_out_of_hours(self, profiles):
        _, overseas = profiles
        peak = int(np.argmax(overseas))
        assert peak <= 7 or peak >= 23

    def test_night_share_contrast(self, profiles):
        national, overseas = profiles
        assert edu.out_of_hours_share(overseas) > 2 * edu.out_of_hours_share(
            national
        )

    def test_unrestricted_profile_covers_all(
        self, edu_capture_flows, edu_directions
    ):
        profile = edu.hourly_connection_profile(
            edu_capture_flows, edu_directions, "web", "in",
            dt.date(2020, 4, 13), dt.date(2020, 4, 26),
        )
        assert profile.sum() > 0

    def test_out_of_hours_share_validation(self):
        with pytest.raises(ValueError):
            edu.out_of_hours_share(np.zeros(24))
        with pytest.raises(ValueError):
            edu.out_of_hours_share(np.ones(10))
