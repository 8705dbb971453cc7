"""Fig 10 — VPN traffic shift."""

from __future__ import annotations

import datetime as _dt
from typing import Optional, Tuple

from repro import timebase
from repro.core import vpn
from repro.experiments.base import ExperimentResult, PipelineConfig, register
from repro.report import figures as figrender
from repro.synth import datasets
from repro.synth.datasets import DatasetRequest
from repro.synth.scenario import Scenario

#: VPN analysis weeks at the IXP-CE (calendar-identical to Fig 7's
#: PORT_WEEKS_IXP, so the flow tables are shared through the cache).
VPN_WEEKS = {
    "february": timebase.Week(_dt.date(2020, 2, 20), "february"),
    "march": timebase.Week(_dt.date(2020, 3, 19), "march"),
    "april": timebase.Week(_dt.date(2020, 4, 23), "april"),
}


def _datasets(scenario: Scenario,
              config: PipelineConfig) -> Tuple[DatasetRequest, ...]:
    return tuple(
        datasets.week_flows_request("ixp-ce", week, config.flow_fidelity)
        for week in VPN_WEEKS.values()
    )


@register("fig10", "VPN traffic shift", "Fig. 10", datasets=_datasets)
def run_fig10(scenario: Scenario,
              config: Optional[PipelineConfig] = None) -> ExperimentResult:
    """Fig 10: port- vs. domain-based VPN identification at the IXP-CE."""
    config = config or PipelineConfig()
    result = ExperimentResult("fig10", "VPN traffic shift")
    tables = datasets.fetch_many(scenario, _datasets(scenario, config))
    # Scenario-derived, so mined once per scenario and shared by every
    # pass on the same dataset cache.
    candidates = datasets.memo(
        scenario, "vpn-candidates",
        lambda: vpn.mine_vpn_candidates(scenario.dns_corpus),
    )
    result.metrics["candidate-ips"] = float(candidates.n_candidates)
    result.metrics["eliminated-shared"] = float(
        len(candidates.eliminated_shared)
    )
    result.checks["www-shared addresses eliminated"] = (
        len(candidates.eliminated_shared) > 0
    )
    patterns_by_week = vpn.vpn_week_patterns(
        tables, VPN_WEEKS, timebase.Region.CENTRAL_EUROPE, candidates
    )
    growth_march = vpn.vpn_growth(patterns_by_week, "february", "march")
    growth_april = vpn.vpn_growth(patterns_by_week, "february", "april")
    result.metrics["domain/march"] = growth_march.domain_based
    result.metrics["domain/april"] = growth_april.domain_based
    result.metrics["port/march"] = growth_march.port_based
    result.metrics["domain-weekend/march"] = growth_march.domain_based_weekend
    result.checks["domain-based VPN grows >200% on workdays"] = (
        growth_march.domain_based >= 1.5
    )
    result.checks["port-based VPN comparatively flat"] = (
        growth_march.port_based < growth_march.domain_based * 0.5
    )
    result.checks["weekend increase less pronounced"] = (
        growth_march.domain_based_weekend < growth_march.domain_based * 0.6
    )
    result.checks["April gain smaller than March"] = (
        0.0 < growth_april.domain_based < growth_march.domain_based
    )
    result.rendered = figrender.render_series_table(
        {
            f"{label} domain workday": pattern.domain_workday
            for label, pattern in patterns_by_week.items()
        }
    )
    result.data = {
        "patterns": patterns_by_week,
        "growth": {"march": growth_march, "april": growth_april},
        "candidates": candidates,
    }
    return result
