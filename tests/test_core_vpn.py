"""Unit tests for the VPN classification (Fig 10, §6)."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.core import vpn
from repro.flows.record import PROTO_ESP, PROTO_TCP, PROTO_UDP, FlowRecord
from repro.flows.table import FlowTable


def flow(proto=PROTO_UDP, service_port=4500, src_ip=1, dst_ip=2):
    return FlowRecord(
        hour=0, src_ip=src_ip, dst_ip=dst_ip, src_asn=1, dst_asn=2,
        proto=proto, src_port=55000, dst_port=service_port,
        n_bytes=100, n_packets=1,
    )


@pytest.fixture(scope="module")
def candidates(scenario):
    return vpn.mine_vpn_candidates(scenario.dns_corpus)


class TestPortBased:
    def test_vpn_ports_match(self):
        table = FlowTable.from_records(
            [
                flow(service_port=4500),
                flow(service_port=500),
                flow(proto=PROTO_TCP, service_port=1194),
                flow(service_port=1701),
                flow(service_port=1723),
            ]
        )
        assert vpn.port_based_mask(table).all()

    def test_https_not_matched(self):
        table = FlowTable.from_records(
            [flow(proto=PROTO_TCP, service_port=443)]
        )
        assert not vpn.port_based_mask(table).any()

    def test_esp_not_in_section6_port_set(self):
        # §6's port-based classifier covers IPsec control/NAT-T,
        # OpenVPN, L2TP, PPTP — not bare ESP.
        record = FlowRecord(
            hour=0, src_ip=1, dst_ip=2, src_asn=1, dst_asn=2,
            proto=PROTO_ESP, src_port=0, dst_port=0, n_bytes=1,
            n_packets=1,
        )
        table = FlowTable.from_records([record])
        assert not vpn.port_based_mask(table).any()


class TestCandidateMining:
    def test_candidates_found(self, candidates):
        assert candidates.n_candidates > 20
        assert all("vpn" in d for d in candidates.candidate_domains)

    def test_shared_ips_eliminated(self, candidates, scenario):
        assert candidates.eliminated_shared
        assert not (
            candidates.candidate_ips & candidates.eliminated_shared
        )

    def test_candidates_match_ground_truth(self, candidates, scenario):
        # The miner must find exactly the dedicated gateways (it cannot
        # see the shared ones by design).
        truth = scenario.vpn_truth
        assert candidates.candidate_ips == truth.dedicated_gateway_ips

    def test_ablation_without_elimination(self, scenario):
        loose = vpn.mine_vpn_candidates(
            scenario.dns_corpus, eliminate_www_shared=False
        )
        strict = vpn.mine_vpn_candidates(scenario.dns_corpus)
        assert loose.n_candidates > strict.n_candidates
        assert not loose.eliminated_shared
        # Without elimination, shared www addresses leak in.
        assert (
            loose.candidate_ips
            >= strict.candidate_ips | scenario.vpn_truth.shared_gateway_ips
        )

    def test_without_elimination_web_bytes_count_as_vpn(
        self, scenario, candidates, fast_config
    ):
        flows = scenario.ixp_ce.generate_week_flows(
            timebase.Week(dt.date(2020, 2, 20), "february"),
            fast_config.flow_fidelity,
        )
        loose = vpn.mine_vpn_candidates(
            scenario.dns_corpus, eliminate_www_shared=False
        )
        n_bytes = flows.column("n_bytes")
        strict_bytes = n_bytes[vpn.domain_based_mask(flows, candidates)].sum()
        loose_bytes = n_bytes[vpn.domain_based_mask(flows, loose)].sum()
        assert loose_bytes > strict_bytes


class TestDomainBased:
    def test_only_tcp443_to_candidates(self, candidates):
        gateway_ip = next(iter(candidates.candidate_ips))
        table = FlowTable.from_records(
            [
                flow(proto=PROTO_TCP, service_port=443, dst_ip=gateway_ip),
                flow(proto=PROTO_TCP, service_port=443, dst_ip=999),
                flow(proto=PROTO_UDP, service_port=443, dst_ip=gateway_ip),
            ]
        )
        mask = vpn.domain_based_mask(table, candidates)
        assert mask.tolist() == [True, False, False]

    def test_empty_candidates_match_nothing(self):
        empty = vpn.VPNCandidates((), frozenset(), frozenset())
        table = FlowTable.from_records([flow(proto=PROTO_TCP)])
        assert not vpn.domain_based_mask(table, empty).any()


def _filter_week_patterns(flows, weeks, region, candidates):
    """Reference: Fig 10's patterns from one sub-table per method, as
    ``vpn_week_patterns`` computed them before it summed masked rows."""
    sub_tables = (
        flows.filter(vpn.port_based_mask(flows)),
        flows.filter(vpn.domain_based_mask(flows, candidates)),
    )
    raw = {}
    for label, week in weeks.items():
        arrays = []
        for sub in sub_tables:
            start, stop = week.hour_range()
            days = sub.hourly_bytes(start, stop).astype(np.float64)
            days = days.reshape(7, 24)
            workdays, weekends = [], []
            for i, day in enumerate(week.days()):
                if timebase.behaves_like_weekend(day, region):
                    weekends.append(days[i])
                else:
                    workdays.append(days[i])
            arrays.append(
                np.mean(workdays, axis=0) if workdays else np.zeros(24)
            )
            arrays.append(
                np.mean(weekends, axis=0) if weekends else np.zeros(24)
            )
        raw[label] = arrays
    peak = max(max(a.max() for a in arrays) for arrays in raw.values())
    peak = peak if peak > 0 else 1.0
    return {label: [a / peak for a in arrays] for label, arrays in raw.items()}


class TestWeekPatterns:
    @pytest.fixture(scope="class")
    def weeks(self):
        return {
            "february": timebase.Week(dt.date(2020, 2, 20), "february"),
            "march": timebase.Week(dt.date(2020, 3, 19), "march"),
        }

    @pytest.fixture(scope="class")
    def week_tables(self, scenario, weeks):
        return [
            scenario.ixp_ce.generate_week_flows(week, fidelity=0.6)
            for week in weeks.values()
        ]

    @pytest.fixture(scope="class")
    def week_flows(self, week_tables):
        return FlowTable.concat(week_tables)

    @pytest.fixture(scope="class")
    def patterns(self, week_flows, weeks, candidates):
        return vpn.vpn_week_patterns(
            [week_flows], weeks, timebase.Region.CENTRAL_EUROPE, candidates
        )

    def test_matches_filter_reference(self, patterns, week_flows, weeks,
                                      candidates):
        expected = _filter_week_patterns(
            week_flows, weeks, timebase.Region.CENTRAL_EUROPE, candidates
        )
        for label, arrays in expected.items():
            got = patterns[label]
            for have, want in zip(
                (got.port_workday, got.port_weekend,
                 got.domain_workday, got.domain_weekend),
                arrays,
            ):
                assert have.dtype == want.dtype
                assert np.array_equal(have, want), label

    def test_week_tables_answer_as_their_concatenation(
        self, patterns, week_tables, weeks, candidates
    ):
        split = vpn.vpn_week_patterns(
            week_tables, weeks, timebase.Region.CENTRAL_EUROPE, candidates
        )
        assert list(split) == list(patterns)
        for label, got in split.items():
            want = patterns[label]
            for field in ("port_workday", "port_weekend",
                          "domain_workday", "domain_weekend"):
                assert np.array_equal(
                    getattr(got, field), getattr(want, field)
                ), (label, field)

    def test_empty_table_matches_filter_reference(self, weeks, candidates):
        region = timebase.Region.CENTRAL_EUROPE
        patterns = vpn.vpn_week_patterns(
            [FlowTable.empty()], weeks, region, candidates
        )
        expected = _filter_week_patterns(
            FlowTable.empty(), weeks, region, candidates
        )
        for label, arrays in expected.items():
            got = patterns[label]
            assert np.array_equal(got.port_workday, arrays[0])
            assert np.array_equal(got.domain_weekend, arrays[3])

    def test_jointly_normalized(self, patterns):
        peak = max(
            max(
                p.port_workday.max(), p.port_weekend.max(),
                p.domain_workday.max(), p.domain_weekend.max(),
            )
            for p in patterns.values()
        )
        assert peak == pytest.approx(1.0)

    def test_domain_growth_dominates(self, patterns):
        growth = vpn.vpn_growth(patterns, "february", "march")
        assert growth.domain_based >= 1.5
        assert growth.port_based < growth.domain_based * 0.5

    def test_weekend_growth_smaller(self, patterns):
        growth = vpn.vpn_growth(patterns, "february", "march")
        assert growth.domain_based_weekend < growth.domain_based

    def test_business_hours_concentration(self, patterns):
        march = patterns["march"]
        office = march.domain_workday[9:17].mean()
        night = march.domain_workday[0:6].mean()
        assert office > night * 3
