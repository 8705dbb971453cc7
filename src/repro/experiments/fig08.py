"""Fig 8 — gaming at the IXP-SE."""

from __future__ import annotations

import datetime as _dt
from typing import Optional, Tuple

import numpy as np

from repro.core import anomaly, appclass
from repro.experiments.base import ExperimentResult, PipelineConfig, register
from repro.report import figures as figrender
from repro.synth import datasets
from repro.synth.datasets import DatasetRequest
from repro.synth.scenario import Scenario

#: Gaming observation window: week 7 through week 17.
START = _dt.date(2020, 2, 10)
END = _dt.date(2020, 4, 26)


def _datasets(scenario: Scenario,
              config: PipelineConfig) -> Tuple[DatasetRequest, ...]:
    return (
        datasets.flows_request(
            "ixp-se", START, END,
            fidelity=max(config.survey_fidelity * 4, 0.4),
            profiles=["gaming"],
        ),
    )


@register("fig08", "Gaming unique IPs and volume", "Fig. 8",
          datasets=_datasets)
def run_fig08(scenario: Scenario,
              config: Optional[PipelineConfig] = None) -> ExperimentResult:
    """Fig 8: gaming class before/during lockdown at the IXP-SE."""
    config = config or PipelineConfig()
    result = ExperimentResult("fig08", "Gaming unique IPs and volume")
    (gaming_request,) = _datasets(scenario, config)
    flows = datasets.fetch(scenario, gaming_request)
    gaming_class = appclass.standard_classes()["gaming"]
    activity = appclass.class_activity(flows, gaming_class, START, END)

    # Pre-lockdown (weeks 7-9) vs. lockdown (weeks 12-14) daily averages.
    def _avg(metric_index: int, lo: _dt.date, hi: _dt.date) -> float:
        values = [
            v[metric_index]
            for day, v in activity.daily_avg.items()
            if lo <= day <= hi
        ]
        return float(np.mean(values))

    pre_ips = _avg(0, _dt.date(2020, 2, 10), _dt.date(2020, 3, 1))
    post_ips = _avg(0, _dt.date(2020, 3, 16), _dt.date(2020, 4, 5))
    pre_vol = _avg(1, _dt.date(2020, 2, 10), _dt.date(2020, 3, 1))
    post_vol = _avg(1, _dt.date(2020, 3, 16), _dt.date(2020, 4, 5))
    result.metrics["unique-ip-growth"] = post_ips / pre_ips
    result.metrics["volume-growth"] = post_vol / pre_vol
    result.checks["unique IPs rise steeply from the lockdown week"] = (
        post_ips / pre_ips >= 1.3
    )
    result.checks["volume rises steeply from the lockdown week"] = (
        post_vol / pre_vol >= 1.3
    )
    # The two-day gaming-provider outage in the first lockdown week,
    # recovered by the robust anomaly detector ("we verified that this
    # is not a measurement artifact").
    daily_volume = {
        day: volume for day, (_, volume) in activity.daily_avg.items()
    }
    drops = anomaly.detect_outage_days(daily_volume, threshold=3.0)
    lockdown_week_days = {
        _dt.date(2020, 3, 16) + _dt.timedelta(days=i) for i in range(7)
    }
    outage_days = sum(1 for d in drops if d in lockdown_week_days)
    result.metrics["outage-days"] = float(outage_days)
    result.checks["outage dip visible (~2 days)"] = 1 <= outage_days <= 3
    result.checks["no spurious outages outside the event"] = (
        len(drops) - outage_days <= 2
    )
    result.rendered = figrender.render_series_table(
        {
            "unique IPs (daily avg)": [
                v[0] for _, v in sorted(activity.daily_avg.items())
            ],
            "volume (daily avg)": [
                v[1] for _, v in sorted(activity.daily_avg.items())
            ],
        },
        shared_scale=False,
    )
    result.data = activity
    return result
