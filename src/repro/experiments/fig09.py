"""Fig 9 — application-class heatmaps."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import timebase
from repro.core import appclass
from repro.experiments.base import ExperimentResult, PipelineConfig, register
from repro.flows.table import FlowTable
from repro.report import figures as figrender
from repro.synth import datasets
from repro.synth.datasets import DatasetRequest
from repro.synth.scenario import Scenario

#: Per-vantage analysis weeks.  The ISP weeks coincide with Fig 7's
#: PORT_WEEKS_ISP and the IXP base/stage-2 weeks with Figs 7/10, so the
#: dataset cache materializes each calendar week once across them.
WEEKS = {
    "isp-ce": timebase.APPCLASS_WEEKS_ISP,
    "ixp-ce": timebase.APPCLASS_WEEKS_IXP,
    "ixp-se": timebase.APPCLASS_WEEKS_IXP,
    "ixp-us": timebase.APPCLASS_WEEKS_IXP,
}


def _datasets(scenario: Scenario,
              config: PipelineConfig) -> Tuple[DatasetRequest, ...]:
    return tuple(
        datasets.week_flows_request(name, week, config.flow_fidelity)
        for name, weeks in WEEKS.items()
        for week in weeks.values()
    )


def _week_tables(scenario: Scenario, config: PipelineConfig,
                 name: str) -> List[FlowTable]:
    return datasets.fetch_many(
        scenario,
        [
            datasets.week_flows_request(name, week, config.flow_fidelity)
            for week in WEEKS[name].values()
        ],
    )


@register("fig09", "Application-class heatmaps", "Fig. 9",
          datasets=_datasets)
def run_fig09(scenario: Scenario,
              config: Optional[PipelineConfig] = None) -> ExperimentResult:
    """Fig 9: application-class heatmaps at four vantage points."""
    config = config or PipelineConfig()
    result = ExperimentResult("fig09", "Application-class heatmaps")
    classes = appclass.standard_classes()
    heatmaps = {}
    # Two growth views per (vantage, class, stage): business hours on
    # workdays (the ">200% during business hours" statements) and whole
    # weeks (the overall class-volume statements).
    business: Dict[str, Dict[str, Dict[str, float]]] = {}
    weekly: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, weeks in WEEKS.items():
        vantage = scenario.vantage(name)
        volumes = appclass.class_volumes(
            _week_tables(scenario, config, name), weeks.values(), classes
        )
        heatmaps[name] = appclass.class_heatmaps(volumes, weeks)
        business[name] = {}
        weekly[name] = {}
        for cname in classes:
            business[name][cname] = {}
            weekly[name][cname] = {}
            for stage in ("stage1", "stage2"):
                try:
                    business[name][cname][stage] = (
                        appclass.business_hours_growth(
                            volumes[cname], weeks["base"], weeks[stage],
                            vantage.region,
                        )
                    )
                    weekly[name][cname][stage] = (
                        appclass.weekly_class_growth(
                            volumes[cname], weeks["base"], weeks[stage]
                        )
                    )
                except ValueError:
                    business[name][cname][stage] = float("nan")
                    weekly[name][cname][stage] = float("nan")
    for name in WEEKS:
        # The IXP stage-1 week (Mar 12-18) straddles the CE lockdown
        # start; the dramatic webconf increase is fully visible by
        # stage 2, so check the stronger of the two stages.
        peak = max(business[name]["webconf"].values())
        result.metrics[f"{name}/webconf"] = peak
        result.checks[f"webconf >200% at {name}"] = peak >= 2.0
    result.metrics["ixp-ce/messaging"] = weekly["ixp-ce"]["messaging"]["stage2"]
    result.metrics["ixp-us/messaging"] = weekly["ixp-us"]["messaging"]["stage2"]
    result.metrics["ixp-ce/email"] = weekly["ixp-ce"]["email"]["stage2"]
    result.metrics["ixp-us/email"] = weekly["ixp-us"]["email"]["stage2"]
    result.checks["messaging soars in Europe"] = (
        result.metrics["ixp-ce/messaging"] >= 1.0
    )
    result.checks["messaging falls in the US"] = (
        result.metrics["ixp-us/messaging"] <= 0.05
    )
    result.checks["email grows in the US"] = (
        result.metrics["ixp-us/email"] >= 0.5
    )
    result.checks["email/messaging anti-pattern"] = (
        result.metrics["ixp-ce/messaging"] > result.metrics["ixp-ce/email"]
        and result.metrics["ixp-us/email"]
        > result.metrics["ixp-us/messaging"]
    )
    result.metrics["ixp-ce/vod"] = weekly["ixp-ce"]["vod"]["stage2"]
    result.metrics["isp-ce/vod"] = weekly["isp-ce"]["vod"]["stage2"]
    # "High growth rates ... of up to 100%": the weekly aggregate is
    # diluted by the hypergiants' own modest growth, so check both the
    # weekly growth and the peak heatmap cell.
    vod_peak_ce = float(
        max(d.max() for d in heatmaps["ixp-ce"]["vod"].diffs.values())
    )
    result.metrics["ixp-ce/vod-peak-diff"] = vod_peak_ce
    result.checks["VoD grows strongly at European IXPs"] = (
        weekly["ixp-ce"]["vod"]["stage2"] >= 0.15
        and weekly["ixp-se"]["vod"]["stage2"] >= 0.03
        and vod_peak_ce >= 40.0
    )
    result.checks["VoD only ~30% at the ISP"] = (
        0.0 <= result.metrics["isp-ce/vod"] <= 0.6
    )
    result.metrics["isp-ce/educational"] = (
        weekly["isp-ce"]["educational"]["stage1"]
    )
    result.metrics["ixp-us/educational"] = (
        weekly["ixp-us"]["educational"]["stage2"]
    )
    result.checks["educational surges at the ISP-CE"] = (
        result.metrics["isp-ce/educational"] >= 1.0
    )
    result.checks["educational falls in the US"] = (
        result.metrics["ixp-us/educational"] <= -0.1
    )
    result.metrics["isp-ce/gaming"] = weekly["isp-ce"]["gaming"]["stage1"]
    result.checks["gaming grows coherently at the IXPs"] = all(
        weekly[n]["gaming"]["stage2"] >= 0.25
        for n in ("ixp-ce", "ixp-se", "ixp-us")
    )
    result.checks["gaming only ~10% at the ISP"] = (
        -0.05 <= result.metrics["isp-ce/gaming"] <= 0.35
    )
    # Social media: initial increase that flattens in stage 2.
    social_stage1 = weekly["isp-ce"]["social"]["stage1"]
    social_stage2 = weekly["isp-ce"]["social"]["stage2"]
    result.metrics["isp-ce/social-stage1"] = social_stage1
    result.metrics["isp-ce/social-stage2"] = social_stage2
    result.checks["social media spike flattens"] = (
        social_stage1 > 0.25 and social_stage2 < social_stage1
    )
    lines = []
    for cname, hm in heatmaps["ixp-ce"].items():
        for label, diff in hm.diffs.items():
            lines.append(
                f"{cname:12s} {label:7s} "
                + figrender.render_heatmap_row(diff)
            )
    result.rendered = "\n".join(lines)
    result.data = {
        "heatmaps": heatmaps,
        "business_growth": business,
        "weekly_growth": weekly,
    }
    return result
