"""Fig 7 — application ports."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro import timebase
from repro.core import ports
from repro.experiments.base import ExperimentResult, PipelineConfig, register
from repro.report import figures as figrender
from repro.synth import datasets
from repro.synth.datasets import DatasetRequest
from repro.synth.scenario import Scenario

#: Stands in for a port missing from a growth table: its NaN growths
#: fail every check that reads them, so no check can vanish.
_ABSENT = ports.PortGrowth("absent", math.nan, math.nan, math.nan)

#: Per-vantage analysis weeks (shared keys with Figs 9/10 where the
#: paper reuses the same calendar weeks).
WEEKS = {
    "isp-ce": timebase.PORT_WEEKS_ISP,
    "ixp-ce": timebase.PORT_WEEKS_IXP,
}


def _week_requests(
    config: PipelineConfig, name: str
) -> List[DatasetRequest]:
    """The vantage's analysis-week requests, in calendar order."""
    return [
        datasets.week_flows_request(name, week, config.flow_fidelity)
        for week in WEEKS[name].values()
    ]


def _datasets(scenario: Scenario,
              config: PipelineConfig) -> Tuple[DatasetRequest, ...]:
    return tuple(
        request for name in WEEKS for request in _week_requests(config, name)
    )


@register("fig07", "Top application ports by hour", "Fig. 7",
          datasets=_datasets)
def run_fig07(scenario: Scenario,
              config: Optional[PipelineConfig] = None) -> ExperimentResult:
    """Fig 7: traffic by top application ports, ISP-CE and IXP-CE."""
    config = config or PipelineConfig()
    result = ExperimentResult("fig07", "Top application ports by hour")
    all_patterns = {}
    for name, weeks in WEEKS.items():
        vantage = scenario.vantage(name)
        tables = datasets.fetch_many(scenario, _week_requests(config, name))
        region = vantage.region
        top = ports.top_ports(tables)
        growth = ports.port_growth(
            tables, weeks["february"], weeks["april"], region, keys=top,
        )
        pattern = ports.port_patterns(tables, weeks, region, keys=top)
        all_patterns[name] = (pattern, growth)
        result.metrics[f"{name}/n-top-ports"] = float(len(top))
        quic = growth.get("UDP/443", _ABSENT)
        result.metrics[f"{name}/quic-growth"] = quic.workday_growth
        nat = growth.get("UDP/4500", _ABSENT)
        result.metrics[f"{name}/udp4500-growth"] = nat.workday_growth
        result.metrics[f"{name}/udp4500-weekend"] = nat.weekend_growth
        alt = growth.get("TCP/8080", _ABSENT)
        result.metrics[f"{name}/tcp8080-growth"] = alt.workday_growth
    isp_pattern, isp_growth = all_patterns["isp-ce"]
    ixp_pattern, ixp_growth = all_patterns["ixp-ce"]
    result.checks["QUIC grows 30-80% at the ISP"] = (
        0.2 <= result.metrics["isp-ce/quic-growth"] <= 0.9
    )
    result.checks["QUIC grows ~50% at the IXP"] = (
        0.25 <= result.metrics["ixp-ce/quic-growth"] <= 0.85
    )
    result.checks["UDP/4500 grows on workdays"] = (
        result.metrics["isp-ce/udp4500-growth"] > 0.5
        and result.metrics["ixp-ce/udp4500-growth"] > 0.25
    )
    result.checks["UDP/4500 weekend change negligible"] = (
        result.metrics["isp-ce/udp4500-weekend"]
        < result.metrics["isp-ce/udp4500-growth"] * 0.5
    )
    result.checks["TCP/8080 sees no major change"] = (
        abs(result.metrics["isp-ce/tcp8080-growth"]) < 0.2
        and abs(result.metrics["ixp-ce/tcp8080-growth"]) < 0.2
    )
    gre = ixp_growth.get("GRE", _ABSENT)
    esp = ixp_growth.get("ESP", _ABSENT)
    result.checks["GRE/ESP decrease at the IXP-CE"] = (
        gre.workday_growth < 0.0 and esp.workday_growth < 0.0
    )
    gre_isp = isp_growth.get("GRE", _ABSENT)
    result.metrics["isp-ce/gre-growth"] = gre_isp.workday_growth
    result.checks["GRE slightly increases at the ISP"] = (
        0.0 <= gre_isp.workday_growth <= 0.45
    )
    zoom = isp_growth.get("UDP/8801", _ABSENT)
    result.metrics["isp-ce/zoom-growth"] = zoom.workday_growth
    result.checks["Zoom grows by an order of magnitude at the ISP"] = (
        zoom.workday_growth >= 4.0
    )
    imap = isp_growth.get("TCP/993", _ABSENT)
    result.metrics["isp-ce/imap-growth"] = imap.workday_growth
    result.checks["IMAP-TLS grows ~60% during working hours"] = (
        0.25 <= imap.workday_growth <= 1.1
    )
    cf = ixp_growth.get("UDP/2408", _ABSENT)
    result.metrics["ixp-ce/cloudflare-growth"] = cf.workday_growth
    result.checks["Cloudflare LB port flat"] = (
        abs(cf.workday_growth) < 0.25
    )
    result.rendered = figrender.render_series_table(
        {
            key: list(p[-1].workday)
            for key, p in list(isp_pattern.items())[:6]
        }
    )
    result.data = all_patterns
    return result
