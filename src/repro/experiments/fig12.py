"""Fig 12 — educational-network connection-level analysis."""

from __future__ import annotations

import datetime as _dt
from typing import Optional, Tuple

import numpy as np

from repro import timebase
from repro.core import edu as edu_analysis
from repro.experiments.base import ExperimentResult, PipelineConfig, register
from repro.experiments.fig11 import edu_capture_request
from repro.flows.table import FlowTable
from repro.netbase.asdb import ASCategory, EDU_NETWORK_ASN
from repro.report import figures as figrender
from repro.synth import datasets
from repro.synth.datasets import DatasetRequest
from repro.synth.scenario import Scenario


def _datasets(scenario: Scenario,
              config: PipelineConfig) -> Tuple[DatasetRequest, ...]:
    return (edu_capture_request(config),)


@register("fig12", "EDU connection-level analysis", "Fig. 12",
          datasets=_datasets)
def run_fig12(scenario: Scenario,
              config: Optional[PipelineConfig] = None,
              flows: Optional[FlowTable] = None) -> ExperimentResult:
    """Fig 12: EDU daily connection growth per traffic class."""
    config = config or PipelineConfig()
    result = ExperimentResult("fig12", "EDU connection-level analysis")
    if flows is None:
        flows = datasets.fetch(scenario, edu_capture_request(config))
    directions = edu_analysis.connection_direction(flows, [EDU_NETWORK_ASN])
    split = _dt.date(2020, 3, 11)
    summary = edu_analysis.directionality_summary(
        flows, directions, timebase.EDU_CAPTURE_START,
        timebase.EDU_CAPTURE_END, split,
    )
    result.metrics["unknown-fraction"] = summary.unknown_fraction
    result.metrics["incoming-growth"] = summary.incoming_growth
    result.metrics["outgoing-growth"] = summary.outgoing_growth
    result.metrics["total-growth"] = summary.total_growth
    result.checks["~39% of flows undeterminable"] = (
        0.15 <= summary.unknown_fraction <= 0.55
    )
    result.checks["incoming connections double"] = (
        1.6 <= summary.incoming_growth <= 3.2
    )
    result.checks["outgoing connections nearly halve"] = (
        0.25 <= summary.outgoing_growth <= 0.65
    )
    result.checks["total daily connections grow ~24%"] = (
        0.95 <= summary.total_growth <= 1.6
    )
    #: Paper's per-class incoming growth: web 1.7x, email 1.8x, VPN
    #: 4.8x, remote desktop 5.9x, SSH 9.1x.
    class_targets = {
        "web": (1.3, 2.3, "in"),
        "email": (1.3, 2.5, "in"),
        "vpn": (2.5, 6.5, "in"),
        "remote-desktop": (3.5, 8.0, "in"),
        "ssh": (5.5, 12.0, "in"),
        "spotify": (0.05, 0.6, "out"),
        "push": (0.1, 0.6, "out"),
    }
    growths = {}
    for cname, (lo, hi, direction) in class_targets.items():
        series = edu_analysis.daily_connections(
            flows, directions, cname, direction,
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
        )
        growth = series.growth_after(split)
        growths[cname] = series
        result.metrics[f"{cname}/{direction}-growth"] = growth
        result.checks[f"{cname} {direction} growth in band"] = (
            lo <= growth <= hi
        )
    result.checks["remote-access ordering ssh > rdp > vpn > email"] = (
        result.metrics["ssh/in-growth"]
        > result.metrics["remote-desktop/in-growth"]
        > result.metrics["vpn/in-growth"]
        > result.metrics["email/in-growth"]
    )
    # §7 origin analysis: overseas students produce out-of-hours
    # connections ("peak from midnight until 7 am"); national users
    # keep working-hour patterns with a lunch valley.
    overseas_asns = [
        info.asn
        for info in scenario.registry.by_category(ASCategory.EYEBALL)
        if info.region is timebase.Region.US_EAST
    ]
    national_asns = scenario.registry.eyeball_asns(
        timebase.Region.SOUTHERN_EUROPE
    )
    post_start, post_end = _dt.date(2020, 4, 13), _dt.date(2020, 4, 26)
    national_profile = edu_analysis.hourly_connection_profile(
        flows, directions, "web", "in", post_start, post_end,
        src_asns=national_asns,
    )
    overseas_profile = edu_analysis.hourly_connection_profile(
        flows, directions, "web", "in", post_start, post_end,
        src_asns=overseas_asns,
    )
    result.metrics["national/night-share"] = (
        edu_analysis.out_of_hours_share(national_profile)
    )
    result.metrics["overseas/night-share"] = (
        edu_analysis.out_of_hours_share(overseas_profile)
    )
    result.checks["overseas connections land out of hours"] = (
        result.metrics["overseas/night-share"]
        > result.metrics["national/night-share"] * 2
    )
    result.checks["national users keep working-hour patterns"] = (
        9 <= int(np.argmax(national_profile)) <= 20
    )
    result.checks["overseas peak after midnight"] = (
        int(np.argmax(overseas_profile)) <= 7
        or int(np.argmax(overseas_profile)) >= 23
    )
    result.rendered = figrender.render_series_table(
        {
            name: list(series.relative_to_first())
            for name, series in growths.items()
        },
        shared_scale=False,
    )
    result.data = {"summary": summary, "series": growths}
    return result
