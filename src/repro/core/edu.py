"""Educational-network analysis (§7, Figs 11, 12, Appendix B).

The EDU flows are captured at the network border; every flow has
exactly one endpoint inside the academic network.  Three analyses:

* **Volume** (Fig 11a): normalized daily totals of three key weeks
  (base / transition / online-lecturing), Thursday-to-Wednesday.
* **Directionality** (Fig 11b): daily ingress/egress byte ratio — bytes
  flowing *into* the network vs. out of it.
* **Connections** (Fig 12): daily connection counts per Appendix B
  traffic class, split into incoming / outgoing / unknown by the side
  holding the well-known service port; growth is reported relative to
  the capture start.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import timebase
from repro.flows.record import PROTO_ESP, PROTO_GRE, PROTO_TCP, PROTO_UDP
from repro.flows.table import FlowTable

#: Ephemeral-port boundary used for connection-direction labeling.
_EPHEMERAL = 49152

#: Appendix B traffic classes: {class: ((proto, port), ...)}.
#: ``proto = 0`` means the bare protocol matches regardless of port
#: (ESP/GRE under VPN).
APPENDIX_B_CLASSES: Mapping[str, Tuple[Tuple[int, int], ...]] = {
    "web": (
        (PROTO_TCP, 80), (PROTO_TCP, 443), (PROTO_UDP, 443),
        (PROTO_TCP, 8000), (PROTO_TCP, 8080),
    ),
    "quic": ((PROTO_UDP, 443),),
    "push": ((PROTO_TCP, 5223), (PROTO_TCP, 5228)),
    "email": tuple(
        (PROTO_TCP, p) for p in (25, 110, 143, 465, 587, 993, 995)
    ),
    "vpn": (
        (PROTO_UDP, 500), (PROTO_ESP, 0), (PROTO_GRE, 0),
        (PROTO_TCP, 1194), (PROTO_UDP, 1194), (PROTO_UDP, 4500),
    ),
    "ssh": ((PROTO_TCP, 22),),
    "remote-desktop": (
        (PROTO_TCP, 1494), (PROTO_UDP, 1494), (PROTO_TCP, 3389),
        (PROTO_TCP, 5938), (PROTO_UDP, 5938),
    ),
    "spotify": ((PROTO_TCP, 4070),),
}

#: Spotify is also matched by AS number (Appendix B: "TCP:4070 or
#: ASN8403").
SPOTIFY_ASN = 8403


def _internal_masks(
    flows: FlowTable, internal_asns: FrozenSet[int]
) -> Tuple[np.ndarray, np.ndarray]:
    wanted = np.asarray(sorted(internal_asns), dtype=np.int64)
    src_internal = np.isin(flows.column("src_asn"), wanted)
    dst_internal = np.isin(flows.column("dst_asn"), wanted)
    return src_internal, dst_internal


def ingress_egress_bytes(
    flows: FlowTable, internal_asns: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-flow byte attribution: (ingress mask, egress mask).

    Ingress bytes flow toward an internal endpoint; egress bytes leave
    it.  Flows with both or neither endpoint internal are ignored (the
    border only sees one internal side).
    """
    src_internal, dst_internal = _internal_masks(
        flows, frozenset(int(a) for a in internal_asns)
    )
    ingress = dst_internal & ~src_internal
    egress = src_internal & ~dst_internal
    return ingress, egress


@dataclass(frozen=True)
class EduWeekVolumes:
    """Fig 11 data for one analysis week (days Thursday..Wednesday)."""

    label: str
    days: Tuple[_dt.date, ...]
    total: np.ndarray  # normalized daily totals
    in_out_ratio: np.ndarray  # raw ingress/egress ratio per day


def weekly_volumes(
    flows: FlowTable,
    weeks: Mapping[str, timebase.Week],
    internal_asns: Sequence[int],
) -> Dict[str, EduWeekVolumes]:
    """Fig 11a + 11b: normalized daily volume and in/out ratio per week.

    Totals are normalized jointly by the maximum daily volume across
    all weeks (so the base week's shape and the lockdown drop are both
    visible on one scale).
    """
    ingress_mask, egress_mask = ingress_egress_bytes(flows, internal_asns)
    hours = flows.column("hour")
    n_bytes = flows.column("n_bytes").astype(np.float64)
    raw: Dict[str, Tuple[np.ndarray, np.ndarray, Tuple[_dt.date, ...]]] = {}
    peak = 0.0
    for label, week in weeks.items():
        days = tuple(week.days())
        totals = np.zeros(7)
        ratios = np.zeros(7)
        for i, day in enumerate(days):
            start = timebase.hour_index(day, 0)
            in_day = (hours >= start) & (hours < start + 24)
            day_in = float(n_bytes[in_day & ingress_mask].sum())
            day_out = float(n_bytes[in_day & egress_mask].sum())
            totals[i] = day_in + day_out
            ratios[i] = day_in / day_out if day_out > 0 else np.inf
        raw[label] = (totals, ratios, days)
        peak = max(peak, float(totals.max()))
    if peak <= 0:
        raise ValueError("EDU flows carry no traffic in the given weeks")
    return {
        label: EduWeekVolumes(
            label=label, days=days, total=totals / peak, in_out_ratio=ratios
        )
        for label, (totals, ratios, days) in raw.items()
    }


def workday_drop(
    volumes: Mapping[str, EduWeekVolumes],
    base_label: str = "base",
    stage_label: str = "online-lecturing",
    region: timebase.Region = timebase.Region.SOUTHERN_EUROPE,
) -> float:
    """Maximum workday volume decrease, stage vs. base (§7: up to 55%).

    Compares same weekdays between the two weeks and returns the largest
    relative drop observed on a workday.
    """
    base = volumes[base_label]
    stage = volumes[stage_label]
    drops = []
    for i, day in enumerate(base.days):
        if timebase.behaves_like_weekend(day, region):
            continue
        if timebase.behaves_like_weekend(stage.days[i], region):
            continue
        if base.total[i] > 0:
            drops.append(1.0 - stage.total[i] / base.total[i])
    if not drops:
        raise ValueError("weeks share no comparable workdays")
    return max(drops)


# ---------------------------------------------------------------------------
# Connection-level analysis (Fig 12).
# ---------------------------------------------------------------------------


def connection_direction(
    flows: FlowTable, internal_asns: Sequence[int]
) -> np.ndarray:
    """Per-flow connection direction label.

    ``1`` incoming (service port inside the EDU network), ``-1``
    outgoing (service port outside), ``0`` unknown (no well-known port
    on either side — P2P-like applications, marginal protocols).
    Port-less protocols (GRE/ESP) direct toward the internal endpoint,
    since the academic network hosts the tunnel concentrators.
    """
    src_internal, dst_internal = _internal_masks(
        flows, frozenset(int(a) for a in internal_asns)
    )
    src_ports = flows.column("src_port")
    dst_ports = flows.column("dst_port")
    protos = flows.column("proto")
    src_known = (src_ports > 0) & (src_ports < _EPHEMERAL)
    dst_known = (dst_ports > 0) & (dst_ports < _EPHEMERAL)
    portless = np.isin(protos, (PROTO_GRE, PROTO_ESP))
    direction = np.zeros(len(flows), dtype=np.int8)
    # Service inside: the known port sits on the internal endpoint.
    service_in = (src_internal & src_known & ~dst_known) | (
        dst_internal & dst_known & ~src_known
    )
    service_out = (src_internal & dst_known & ~src_known) | (
        dst_internal & src_known & ~dst_known
    )
    direction[service_in] = 1
    direction[service_out] = -1
    direction[portless & dst_internal] = 1
    direction[portless & src_internal] = 1
    return direction


def class_mask(flows: FlowTable, class_name: str) -> np.ndarray:
    """Appendix B class membership mask."""
    try:
        pairs = APPENDIX_B_CLASSES[class_name]
    except KeyError:
        raise ValueError(f"unknown traffic class: {class_name!r}") from None
    protos = flows.column("proto")
    service = flows.service_ports()
    mask = np.zeros(len(flows), dtype=bool)
    for proto, port in pairs:
        if proto in (PROTO_GRE, PROTO_ESP):
            mask |= protos == proto
        else:
            mask |= (protos == proto) & (service == port)
    if class_name == "spotify":
        mask |= (flows.column("src_asn") == SPOTIFY_ASN) | (
            flows.column("dst_asn") == SPOTIFY_ASN
        )
    return mask


@dataclass(frozen=True)
class DailyConnections:
    """Daily connection counts for one (class, direction) series."""

    class_name: str
    direction: str  # "in" | "out" | "all"
    days: Tuple[_dt.date, ...]
    counts: np.ndarray

    def relative_to_first(self) -> np.ndarray:
        """Fig 12's y-axis: daily counts relative to the first day."""
        first = self.counts[0]
        if first <= 0:
            raise ValueError("first day has no connections")
        return self.counts / first

    def median_before_after(
        self, split: _dt.date
    ) -> Tuple[float, float]:
        """Median daily connections before vs. from ``split`` on."""
        before = [
            c for d, c in zip(self.days, self.counts) if d < split
        ]
        after = [c for d, c in zip(self.days, self.counts) if d >= split]
        if not before or not after:
            raise ValueError("split date outside the capture period")
        return float(np.median(before)), float(np.median(after))

    def growth_after(self, split: _dt.date) -> float:
        """Ratio of post-split to pre-split median daily connections."""
        before, after = self.median_before_after(split)
        if before <= 0:
            raise ValueError("no connections before the split date")
        return after / before


def _checked_directions(
    flows: FlowTable, directions: np.ndarray
) -> np.ndarray:
    directions = np.asarray(directions)
    if directions.shape != (len(flows),):
        raise ValueError(
            "directions must hold one connection_direction label per flow"
        )
    return directions


def _class_direction_mask(
    flows: FlowTable,
    directions: np.ndarray,
    class_name: str,
    direction: str,
) -> np.ndarray:
    """Flows of one class in one direction (``"all"``: any direction)."""
    if direction not in ("in", "out", "all"):
        raise ValueError("direction must be 'in', 'out', or 'all'")
    directions = _checked_directions(flows, directions)
    mask = class_mask(flows, class_name)
    if direction != "all":
        mask &= directions == (1 if direction == "in" else -1)
    return mask


def daily_connections(
    flows: FlowTable,
    directions: np.ndarray,
    class_name: str,
    direction: str,
    start_day: _dt.date,
    end_day: _dt.date,
) -> DailyConnections:
    """Daily connection counts of one class in one direction.

    ``directions`` holds the flows' :func:`connection_direction`
    labels, computed once per table and shared by every class.
    """
    mask = _class_direction_mask(flows, directions, class_name, direction)
    start = timebase.hour_index(start_day, 0)
    stop = timebase.hour_index(end_day, 23) + 1
    hourly = flows.hourly_connections(start, stop, where=mask)
    daily = hourly.reshape(-1, 24).sum(axis=1).astype(np.float64)
    days = tuple(timebase.iter_days(start_day, end_day))
    return DailyConnections(
        class_name=class_name,
        direction=direction,
        days=days,
        counts=daily,
    )


def hourly_connection_profile(
    flows: FlowTable,
    directions: np.ndarray,
    class_name: str,
    direction: str,
    start_day: _dt.date,
    end_day: _dt.date,
    src_asns: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Mean connections per hour-of-day for one class and direction.

    ``directions`` holds the flows' :func:`connection_direction`
    labels.  ``src_asns`` restricts to connections originating from a
    given set of client ASes — the §7 origin analysis ("Latin American
    users start connecting at 5 pm, presenting a peak from midnight
    until 7 am").
    """
    mask = _class_direction_mask(flows, directions, class_name, direction)
    if src_asns is not None:
        wanted = np.asarray(sorted(int(a) for a in src_asns), dtype=np.int64)
        mask &= np.isin(flows.column("src_asn"), wanted) | np.isin(
            flows.column("dst_asn"), wanted
        )
    start = timebase.hour_index(start_day, 0)
    stop = timebase.hour_index(end_day, 23) + 1
    hourly = flows.hourly_connections(start, stop, where=mask)
    return hourly.astype(np.float64).reshape(-1, 24).mean(axis=0)


def out_of_hours_share(profile: np.ndarray,
                       night_hours: Tuple[int, int] = (21, 7)) -> float:
    """Fraction of connections landing between 9 pm and 7 am.

    §7 reports an 11-24% traffic increase in these hours after the
    lockdown, driven by overseas students in other time zones.
    """
    if profile.shape != (24,):
        raise ValueError("profile must have 24 hourly values")
    h0, h1 = night_hours
    night = np.concatenate([profile[h0:], profile[:h1]])
    total = profile.sum()
    if total <= 0:
        raise ValueError("profile carries no connections")
    return float(night.sum() / total)


@dataclass(frozen=True)
class DirectionalitySummary:
    """§7's headline connection statistics."""

    unknown_fraction: float  # fraction of flows with unknown direction
    incoming_growth: float  # post/pre median daily incoming connections
    outgoing_growth: float  # post/pre median daily outgoing connections
    total_growth: float


def directionality_summary(
    flows: FlowTable,
    directions: np.ndarray,
    start_day: _dt.date,
    end_day: _dt.date,
    split: _dt.date,
) -> DirectionalitySummary:
    """Connection directionality before/after the lockdown (§7).

    ``directions`` holds the flows' :func:`connection_direction`
    labels.  Expectations from the paper: ~39% of flows undeterminable,
    median incoming connections double, outgoing connections nearly
    halve, and the total grows by ~24%.
    """
    labels = _checked_directions(flows, directions)
    unknown_fraction = float(np.mean(labels == 0))
    start = timebase.hour_index(start_day, 0)
    stop = timebase.hour_index(end_day, 23) + 1
    days = tuple(timebase.iter_days(start_day, end_day))
    growths = {}
    for name, mask in (
        ("in", labels == 1),
        ("out", labels == -1),
        ("all", None),
    ):
        hourly = flows.hourly_connections(start, stop, where=mask)
        daily = hourly.reshape(-1, 24).sum(axis=1).astype(np.float64)
        series = DailyConnections(
            class_name="total", direction=name, days=days, counts=daily
        )
        growths[name] = series.growth_after(split)
    return DirectionalitySummary(
        unknown_fraction=unknown_fraction,
        incoming_growth=growths["in"],
        outgoing_growth=growths["out"],
        total_growth=growths["all"],
    )
