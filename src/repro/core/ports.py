"""Raw port-level application analysis (§4, Fig 7).

For three analysis weeks, aggregate traffic per transport key
(``PROTO/port``, with GRE/ESP as bare protocol names), keep per-hour
statistics split into one aggregate workday and one aggregate weekend
pattern, and report the top ports after omitting TCP/443 and TCP/80
(which dominate but barely change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import timebase
from repro.flows.table import FlowTable, transport_label

#: The two dominant web keys omitted from Fig 7 for readability.
OMITTED_KEYS = ("TCP/443", "TCP/80")

#: Number of ports shown in Fig 7 (the "top 3-12").
DEFAULT_TOP_N = 10


def top_ports(
    tables: Sequence[FlowTable],
    n: int = DEFAULT_TOP_N,
    omit: Sequence[str] = OMITTED_KEYS,
) -> List[str]:
    """The top-``n`` transport keys by byte volume over all ``tables``,
    after omissions (ties rank by label, as
    :meth:`FlowTable.top_transport_keys`)."""
    totals: Dict[str, int] = {}
    for flows in tables:
        for key, total in flows.bytes_by_transport_key().items():
            totals[key] = totals.get(key, 0) + total
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    keys = [key for key, _ in ranked[: n + len(omit)] if key not in omit]
    return keys[:n]


@dataclass(frozen=True)
class PortWeekPattern:
    """Hour-of-day traffic for one port in one week.

    ``workday``/``weekend`` are 24-value arrays of the average byte
    volume in that hour across the week's workdays resp. weekend days.
    """

    key: str
    week_label: str
    workday: np.ndarray
    weekend: np.ndarray


def _hourly_by_label(
    tables: Sequence[FlowTable],
    keys: Sequence[str],
    weeks: Sequence[timebase.Week],
) -> Dict[str, List[np.ndarray]]:
    """Each key's int64 hourly bytes in each of ``weeks``.

    Adds up one :meth:`FlowTable.hourly_bytes_by` matrix per table,
    each over the part of the weeks' span its rows fall in; transport
    keys that share a label are summed, and a key with no flows reads
    zero.
    """
    ranges = [week.hour_range() for week in weeks]
    lo = min(start for start, _ in ranges)
    hi = max(stop for _, stop in ranges)
    rows = {key: np.zeros(hi - lo, dtype=np.int64) for key in keys}
    for flows in tables:
        hours = flows.group_index("hour").values
        if not len(hours):
            continue
        start = max(lo, int(hours[0]))
        stop = min(hi, int(hours[-1]) + 1)
        if stop <= start:
            continue
        values, matrix = flows.hourly_bytes_by("transport", start, stop)
        for value, row in zip(values, matrix):
            label = transport_label(int(value))
            if label in rows:
                rows[label][start - lo : stop - lo] += row
    return {
        key: [rows[key][start - lo : stop - lo] for start, stop in ranges]
        for key in keys
    }


def _hour_of_day_profile(
    hourly: np.ndarray,
    week: timebase.Week,
    region: timebase.Region,
) -> Tuple[np.ndarray, np.ndarray]:
    """(workday, weekend) mean per-hour byte profiles for one week.

    ``hourly`` holds the week's 168 hourly byte counts.
    """
    hourly = hourly.astype(np.float64)
    workdays: List[np.ndarray] = []
    weekends: List[np.ndarray] = []
    for i, day in enumerate(week.days()):
        day_values = hourly[i * 24 : (i + 1) * 24]
        if timebase.behaves_like_weekend(day, region):
            weekends.append(day_values)
        else:
            workdays.append(day_values)
    workday = np.mean(workdays, axis=0) if workdays else np.zeros(24)
    weekend = np.mean(weekends, axis=0) if weekends else np.zeros(24)
    return workday, weekend


def port_patterns(
    tables: Sequence[FlowTable],
    weeks: Mapping[str, timebase.Week],
    region: timebase.Region,
    keys: Optional[Sequence[str]] = None,
    top_n: int = DEFAULT_TOP_N,
) -> Dict[str, List[PortWeekPattern]]:
    """Fig 7: per-port hour-of-day patterns for each analysis week.

    ``keys`` defaults to the top ports over all three weeks combined
    (the paper plots "the top ports of all three weeks").  Values are
    normalized jointly per port across weeks, so growth between weeks
    is directly visible.
    """
    if keys is None:
        keys = top_ports(tables, top_n)
    hourly = _hourly_by_label(tables, keys, list(weeks.values()))
    patterns: Dict[str, List[PortWeekPattern]] = {}
    for key in keys:
        per_week: List[PortWeekPattern] = []
        peak = 0.0
        raw: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for (label, week), week_hours in zip(weeks.items(), hourly[key]):
            workday, weekend = _hour_of_day_profile(week_hours, week, region)
            raw.append((label, workday, weekend))
            peak = max(peak, float(workday.max()), float(weekend.max()))
        if peak <= 0:
            peak = 1.0
        for label, workday, weekend in raw:
            per_week.append(
                PortWeekPattern(
                    key=key,
                    week_label=label,
                    workday=workday / peak,
                    weekend=weekend / peak,
                )
            )
        patterns[key] = per_week
    return patterns


@dataclass(frozen=True)
class PortGrowth:
    """Working-hours growth of one port between two weeks."""

    key: str
    workday_growth: float  # (later - base) / base over working hours
    weekend_growth: float
    base_share: float  # port's share of total base-week bytes


def port_growth(
    tables: Sequence[FlowTable],
    base_week: timebase.Week,
    later_week: timebase.Week,
    region: timebase.Region,
    keys: Optional[Sequence[str]] = None,
    working_hours: Tuple[int, int] = (9, 17),
) -> Dict[str, PortGrowth]:
    """Quantified §4 statements (QUIC +30-80%, TCP/993 +60%, ...).

    Growth compares mean per-hour volume inside ``working_hours`` on
    workdays (and the full day on weekends) between the two weeks.
    """
    if keys is None:
        keys = top_ports(tables)
    hourly = _hourly_by_label(tables, keys, [base_week, later_week])
    base_start, base_stop = base_week.hour_range()
    base_total = float(sum(
        int(flows.hourly_bytes(base_start, base_stop).sum())
        for flows in tables
    ))
    results: Dict[str, PortGrowth] = {}
    h0, h1 = working_hours
    for key in keys:
        base_hours, later_hours = hourly[key]
        values = {}
        for label, week, week_hours in (
            ("base", base_week, base_hours),
            ("later", later_week, later_hours),
        ):
            workday, weekend = _hour_of_day_profile(week_hours, week, region)
            values[label] = (
                float(workday[h0:h1].mean()),
                float(weekend.mean()),
            )
        base_wd, base_we = values["base"]
        later_wd, later_we = values["later"]
        share = (
            float(base_hours.sum()) / base_total
            if base_total > 0
            else 0.0
        )
        results[key] = PortGrowth(
            key=key,
            workday_growth=(later_wd / base_wd - 1.0) if base_wd > 0 else 0.0,
            weekend_growth=(later_we / base_we - 1.0) if base_we > 0 else 0.0,
            base_share=share,
        )
    return results
