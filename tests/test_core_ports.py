"""Unit tests for the port-level application analysis (Fig 7)."""

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.core import ports
from repro.flows.table import FlowTable


@pytest.fixture(scope="module")
def isp_week_tables(scenario):
    return [
        scenario.isp_ce.generate_week_flows(week, fidelity=0.5)
        for week in timebase.PORT_WEEKS_ISP.values()
    ]


@pytest.fixture(scope="module")
def isp_port_flows(isp_week_tables):
    return FlowTable.concat(isp_week_tables)


def test_week_tables_answer_as_their_concatenation(
    isp_week_tables, isp_port_flows
):
    """Per-table sums added up equal sums over the concatenated table."""
    weeks = timebase.PORT_WEEKS_ISP
    region = timebase.Region.CENTRAL_EUROPE
    split, joined = isp_week_tables, [isp_port_flows]
    assert ports.top_ports(split, n=15) == ports.top_ports(joined, n=15)
    got = ports.port_patterns(split, weeks, region)
    want = ports.port_patterns(joined, weeks, region)
    assert list(got) == list(want)
    for key, patterns in want.items():
        for have, expected in zip(got[key], patterns):
            assert have.week_label == expected.week_label
            assert np.array_equal(have.workday, expected.workday)
            assert np.array_equal(have.weekend, expected.weekend)
    growth = (weeks["february"], weeks["april"], region)
    assert ports.port_growth(split, *growth) == ports.port_growth(
        joined, *growth
    )


class TestTopPorts:
    def test_web_ports_omitted(self, isp_port_flows):
        top = ports.top_ports([isp_port_flows])
        assert "TCP/443" not in top
        assert "TCP/80" not in top

    def test_quic_is_top_non_web_port(self, isp_port_flows):
        top = ports.top_ports([isp_port_flows])
        assert top[0] == "UDP/443"

    def test_requested_count(self, isp_port_flows):
        assert len(ports.top_ports([isp_port_flows], n=5)) == 5

    def test_fig7_ports_present(self, isp_port_flows):
        top = set(ports.top_ports([isp_port_flows], n=12))
        # The ISP panel's notable ports.
        assert "UDP/443" in top
        assert "TCP/8080" in top

    def test_no_omissions_keeps_web(self, isp_port_flows):
        top = ports.top_ports([isp_port_flows], n=3, omit=())
        assert top[0] == "TCP/443"


class TestPortPatterns:
    @pytest.fixture(scope="class")
    def patterns(self, isp_port_flows):
        return ports.port_patterns(
            [isp_port_flows], timebase.PORT_WEEKS_ISP,
            timebase.Region.CENTRAL_EUROPE,
        )

    def test_three_weeks_per_port(self, patterns):
        for per_week in patterns.values():
            assert {p.week_label for p in per_week} == {
                "february", "march", "april",
            }

    def test_normalized_to_at_most_one(self, patterns):
        for per_week in patterns.values():
            peak = max(
                max(p.workday.max(), p.weekend.max()) for p in per_week
            )
            assert peak == pytest.approx(1.0)

    def test_profiles_have_24_hours(self, patterns):
        any_pattern = next(iter(patterns.values()))[0]
        assert any_pattern.workday.shape == (24,)
        assert any_pattern.weekend.shape == (24,)

    def test_explicit_keys_respected(self, isp_port_flows):
        patterns = ports.port_patterns(
            [isp_port_flows], timebase.PORT_WEEKS_ISP,
            timebase.Region.CENTRAL_EUROPE, keys=["UDP/443"],
        )
        assert set(patterns) == {"UDP/443"}


class TestPortGrowth:
    @pytest.fixture(scope="class")
    def growth(self, isp_port_flows):
        return ports.port_growth(
            [isp_port_flows],
            timebase.PORT_WEEKS_ISP["february"],
            timebase.PORT_WEEKS_ISP["april"],
            timebase.Region.CENTRAL_EUROPE,
        )

    def test_quic_growth_band(self, growth):
        assert 0.2 <= growth["UDP/443"].workday_growth <= 0.9

    def test_vpn_port_working_hours_up(self, growth):
        assert growth["UDP/4500"].workday_growth > 0.5

    def test_vpn_weekend_negligible(self, growth):
        nat = growth["UDP/4500"]
        assert nat.weekend_growth < nat.workday_growth * 0.5

    def test_http_alt_flat(self, growth):
        assert abs(growth["TCP/8080"].workday_growth) < 0.2

    def test_shares_sum_below_one(self, growth):
        total_share = sum(g.base_share for g in growth.values())
        # Top non-web ports are a minority of total traffic.
        assert 0.0 < total_share < 0.6
