"""Hypergiant vs. other-AS traffic decomposition (§3.2, Fig 4).

Splits a flow table into traffic sourced by the Table 2 hypergiants and
traffic from all other ASes, then tracks each group's normalized growth
per calendar week, separated by day kind (workday/weekend) and daypart
(working hours 9:00-16:59 vs. evening 17:00-24:00), exactly the four
panels of Fig 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import timebase
from repro.flows.table import FlowTable
from repro.netbase.asdb import HYPERGIANT_ASNS

#: Fig 4's dayparts as half-open hour ranges.
DAYPARTS: Mapping[str, Tuple[int, int]] = {
    "working-hours": (9, 17),  # 09:00-16:59
    "evening": (17, 24),  # 17:00-24:00
}

#: The curves of one Fig 4 panel: (day kind, daypart).
CURVES: Tuple[Tuple[str, str], ...] = (
    ("workday", "working-hours"),
    ("workday", "evening"),
    ("weekend", "working-hours"),
    ("weekend", "evening"),
)


def hypergiant_share(
    flows: FlowTable, hypergiants: FrozenSet[int] = HYPERGIANT_ASNS
) -> float:
    """Fraction of bytes sourced by hypergiant ASes.

    §3.2 reports ~75% of traffic delivered to ISP-CE end users.
    """
    total = flows.total_bytes()
    if total == 0:
        raise ValueError("flow table is empty")
    by_asn = flows.bytes_by("src_asn")
    hyper = sum(v for asn, v in by_asn.items() if asn in hypergiants)
    return hyper / total


@dataclass(frozen=True)
class GroupGrowth:
    """Normalized weekly growth curves for one AS group."""

    group: str
    #: ``{(day kind, daypart): {week: normalized volume}}``
    curves: Dict[Tuple[str, str], Dict[int, float]]

    def curve(self, day_kind: str, daypart: str) -> Dict[int, float]:
        """One of the four Fig 4 curves."""
        return dict(self.curves[(day_kind, daypart)])


def _weekly_daypart_volumes(
    flows: FlowTable,
    region: timebase.Region,
    weeks: Sequence[int],
    where: np.ndarray,
) -> Dict[Tuple[str, str], Dict[int, float]]:
    """Raw byte volume of the ``where`` rows per (day kind, daypart,
    week), averaged per day.

    One exact per-hour sum over the weeks' span; each daypart is an
    int64 slice of it.  Weeks with no study days get no entry.
    """
    days_of = {week: timebase.iso_week_dates(week) for week in weeks}
    starts = [
        timebase.hour_index(day, 0)
        for days in days_of.values()
        for day in days
    ]
    if not starts:
        return {curve: {} for curve in CURVES}
    lo = min(starts)
    hourly = flows.hourly_bytes(lo, max(starts) + 24, where=where)
    volumes: Dict[Tuple[str, str], Dict[int, List[float]]] = {
        curve: {} for curve in CURVES
    }
    for week in weeks:
        for day in days_of[week]:
            kind = (
                "weekend"
                if timebase.behaves_like_weekend(day, region)
                else "workday"
            )
            day_start = timebase.hour_index(day, 0) - lo
            for daypart, (h0, h1) in DAYPARTS.items():
                volumes[(kind, daypart)].setdefault(week, []).append(
                    float(hourly[day_start + h0 : day_start + h1].sum())
                )
    return {
        curve: {week: float(np.mean(vals)) for week, vals in per_week.items()}
        for curve, per_week in volumes.items()
    }


def group_growth(
    flows: FlowTable,
    region: timebase.Region,
    baseline_week: int,
    weeks: Optional[Sequence[int]] = None,
    hypergiants: FrozenSet[int] = HYPERGIANT_ASNS,
) -> Dict[str, GroupGrowth]:
    """Fig 4: normalized weekly growth for hypergiants vs. other ASes.

    Each curve is normalized by its own baseline-week value, so the two
    groups' *relative* growth is directly comparable — the paper's
    finding is that the other-AS curves dominate the hypergiants' after
    the lockdown.
    """
    weeks = list(weeks or timebase.weeks_in_study())
    if baseline_week not in weeks:
        raise ValueError("baseline week must be among the analyzed weeks")
    src = flows.column("src_asn")
    masks = {
        "hypergiants": np.isin(src, np.asarray(sorted(hypergiants))),
    }
    masks["other"] = ~masks["hypergiants"]
    result: Dict[str, GroupGrowth] = {}
    for group, mask in masks.items():
        raw = _weekly_daypart_volumes(flows, region, weeks, where=mask)
        curves: Dict[Tuple[str, str], Dict[int, float]] = {}
        for curve, per_week in raw.items():
            base = per_week.get(baseline_week)
            if not base:
                raise ValueError(
                    f"baseline week {baseline_week} empty for {group}/{curve}"
                )
            curves[curve] = {
                week: value / base for week, value in per_week.items()
            }
        result[group] = GroupGrowth(group=group, curves=curves)
    return result


def other_dominates_after(
    growth: Mapping[str, GroupGrowth],
    lockdown_week: int,
    day_kind: str = "workday",
    daypart: str = "working-hours",
) -> bool:
    """The paper's Fig 4 takeaway, testable: from the lockdown week on,
    the other-AS growth curve sits above the hypergiants' curve."""
    hyper = growth["hypergiants"].curve(day_kind, daypart)
    other = growth["other"].curve(day_kind, daypart)
    post = [w for w in hyper if w >= lockdown_week and w in other]
    if not post:
        raise ValueError("no post-lockdown weeks in the growth curves")
    wins = sum(1 for w in post if other[w] > hyper[w])
    return wins >= 0.8 * len(post)
