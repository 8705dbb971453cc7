"""Application-class traffic classification (§5, Table 1, Figs 8, 9).

A class is defined by a list of :class:`ClassFilter`\\ s, each combining
AS and/or transport-port criteria (Table 1: "filters are based on
transport ports or ASes, either in combination or separately").  A flow
matches a class if any of its filters matches; classes may overlap, as
in the paper (social networks also carry video telephony, etc.).
"""

from __future__ import annotations

import datetime as _dt
import functools
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro import timebase
from repro.flows.record import PROTO_TCP, PROTO_UDP
from repro.flows.table import FlowTable
from repro.netbase import ports as portdb
from repro.series import HourlySeries


@dataclass(frozen=True)
class ClassFilter:
    """One AS/port filter of an application class.

    ``asns`` empty means "any AS"; ``ports`` empty means "any port".
    ``protos`` restricts the transport protocol (empty = any).  A filter
    with both criteria requires both (the Table 1 "in combination"
    case).
    """

    asns: FrozenSet[int] = frozenset()
    ports: FrozenSet[int] = frozenset()
    protos: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if not self.asns and not self.ports:
            raise ValueError("a filter needs AS or port criteria")
        if any(not 0 <= port < _PORT_SLOTS for port in self.ports):
            raise ValueError("filter ports must lie in 0-65535")
        if any(not 0 <= proto < _PROTO_SLOTS for proto in self.protos):
            raise ValueError("filter protocols must lie in 0-255")

    def mask(self, flows: FlowTable) -> np.ndarray:
        """Boolean match mask over ``flows``."""
        return _membership((self,)).mask(flows)


@dataclass(frozen=True)
class AppClass:
    """An application class: a named union of filters."""

    name: str
    filters: Tuple[ClassFilter, ...]

    def __post_init__(self) -> None:
        if not self.filters:
            raise ValueError(f"class {self.name!r} needs filters")

    def mask(self, flows: FlowTable) -> np.ndarray:
        """Union of the class's filter masks."""
        return _membership(self.filters).mask(flows)

    def select(self, flows: FlowTable) -> FlowTable:
        """The sub-table of flows matching the class."""
        return flows.filter(self.mask(flows))

    @property
    def n_filters(self) -> int:
        """Table 1 column: number of filters."""
        return len(self.filters)

    @property
    def distinct_asns(self) -> FrozenSet[int]:
        """Table 1 column: distinct ASNs across the class's filters."""
        asns: set = set()
        for filt in self.filters:
            asns |= set(filt.asns)
        return frozenset(asns)

    @property
    def distinct_ports(self) -> FrozenSet[int]:
        """Table 1 column: distinct transport ports across filters."""
        ports: set = set()
        for filt in self.filters:
            ports |= set(filt.ports)
        return frozenset(ports)


# ---------------------------------------------------------------------------
# Filter membership: one pass per table for a whole filter set.
# ---------------------------------------------------------------------------

#: Service ports and protocol numbers a filter may name.  A table value
#: outside these ranges reads the lookup tables' last slot, which only
#: filters without that criterion match.
_PORT_SLOTS = 65536
_PROTO_SLOTS = 256

#: Filters per membership word.
_WORD_BITS = 64


def _slots(values: np.ndarray, limit: int) -> np.ndarray:
    """``values`` as lookup slots: those outside ``[0, limit)`` read
    slot ``limit``."""
    return np.where((values >= 0) & (values < limit), values, limit)


class _Membership:
    """Which of an ordered filter set's filters each flow matches.

    Filter ``i`` owns bit ``i % 64`` of word ``i // 64``.  Three lookup
    tables, built once per filter set, hold per criterion value the
    bits of the filters it satisfies (a filter without that criterion
    is satisfied by every value): one over service ports, one over
    protocols, and one over the sorted union of the filters' ASNs,
    reached by ``searchsorted`` with a last slot for unlisted ASNs.  A
    row matches a filter when its AS (either side), port and protocol
    entries all carry the filter's bit.
    """

    def __init__(self, filters: Sequence[ClassFilter]):
        n_words = -(-len(filters) // _WORD_BITS)
        self.asns = np.unique(np.fromiter(
            (asn for filt in filters for asn in filt.asns), dtype=np.int64
        ))
        self._asn_bits = np.zeros((n_words, len(self.asns) + 1), np.uint64)
        self._port_bits = np.zeros((n_words, _PORT_SLOTS + 1), np.uint64)
        self._proto_bits = np.zeros((n_words, _PROTO_SLOTS + 1), np.uint64)
        for i, filt in enumerate(filters):
            word, flag = self._bit(i)
            for table, slots in (
                (self._asn_bits,
                 np.searchsorted(self.asns, sorted(filt.asns))),
                (self._port_bits, sorted(filt.ports)),
                (self._proto_bits, sorted(filt.protos)),
            ):
                if len(slots):
                    table[word, slots] |= flag
                else:
                    table[word] |= flag
        self.all = self.select(range(len(filters)))

    @staticmethod
    def _bit(i: int) -> Tuple[int, np.uint64]:
        word, bit = divmod(i, _WORD_BITS)
        return word, np.uint64(1 << bit)

    def select(self, positions: Iterable[int]) -> np.ndarray:
        """Per-word bits of the filters at ``positions``."""
        selected = np.zeros(len(self._port_bits), np.uint64)
        for i in positions:
            word, flag = self._bit(i)
            selected[word] |= flag
        return selected

    def _asn_slots(self, asns: np.ndarray) -> np.ndarray:
        last = len(self.asns)
        if not last:
            return np.zeros(len(asns), dtype=np.intp)
        pos = np.searchsorted(self.asns, asns)
        found = self.asns[np.minimum(pos, last - 1)] == asns
        return np.where(found, pos, last)

    def bits(self, flows: FlowTable) -> np.ndarray:
        """Per row, the bitset of filters it matches:
        ``[n_words, len(flows)]``."""
        bits = (
            self._asn_bits[:, self._asn_slots(flows.column("src_asn"))]
            | self._asn_bits[:, self._asn_slots(flows.column("dst_asn"))]
        )
        bits &= self._port_bits[:, _slots(flows.service_ports(), _PORT_SLOTS)]
        bits &= self._proto_bits[
            :, _slots(flows.column("proto"), _PROTO_SLOTS)
        ]
        return bits

    @staticmethod
    def matching(bits: np.ndarray, selected: np.ndarray) -> np.ndarray:
        """Rows of ``bits`` that match any of the ``selected`` filters."""
        return ((bits & selected[:, None]) != 0).any(axis=0)

    def mask(self, flows: FlowTable) -> np.ndarray:
        """Rows of ``flows`` that match any filter of the set."""
        return self.matching(self.bits(flows), self.all)


@functools.lru_cache(maxsize=16)
def _membership(filters: Tuple[ClassFilter, ...]) -> _Membership:
    """The memoized :class:`_Membership` of one filter sequence."""
    return _Membership(filters)


def _f(
    asns: Sequence[int] = (),
    ports: Sequence[int] = (),
    protos: Sequence[int] = (),
) -> ClassFilter:
    return ClassFilter(
        asns=frozenset(asns), ports=frozenset(ports), protos=frozenset(protos)
    )


def standard_classes() -> Dict[str, AppClass]:
    """The nine application classes of Table 1.

    Filter / ASN / port counts match the table exactly:

    ==================  =======  =====  =====
    class               filters  ASNs   ports
    ==================  =======  =====  =====
    Web conf                  7      1      6
    VoD                       5      5      -
    gaming                    8      5     57
    social media              4      4      1
    messaging                 3      -      5
    email                     1      -     10
    educational               9      9      -
    collaborative work        8      2      9
    CDN                       8      8      -
    ==================  =======  =====  =====
    """
    classes: Dict[str, AppClass] = {}

    def add(name: str, *filters: ClassFilter) -> None:
        classes[name] = AppClass(name=name, filters=tuple(filters))

    add(
        "webconf",
        _f(asns=[8075], ports=[3480], protos=[PROTO_UDP]),
        _f(asns=[8075], ports=[3478], protos=[PROTO_UDP]),
        _f(asns=[8075], ports=[3479], protos=[PROTO_UDP]),
        _f(ports=[5061], protos=[PROTO_TCP]),
        _f(ports=[8801], protos=[PROTO_UDP]),
        _f(ports=[8802], protos=[PROTO_UDP]),
        _f(asns=[8075], ports=[3478, 3479, 3480]),
    )
    add(
        "vod",
        _f(asns=[2906]),
        _f(asns=[40027]),
        _f(asns=[35402]),
        _f(asns=[29990]),
        _f(asns=[8403]),
    )
    add(
        "gaming",
        _f(asns=[32590], ports=portdb.GAMING_PORTS_STEAM),
        _f(asns=[32590]),
        _f(asns=[6507], ports=portdb.GAMING_PORTS_RIOT),
        _f(asns=[57976], ports=portdb.GAMING_PORTS_BLIZZARD),
        _f(asns=[46555], ports=portdb.GAMING_PORTS_EPIC),
        _f(asns=[2639], ports=portdb.GAMING_PORTS_NINTENDO),
        _f(ports=portdb.GAMING_PORTS_XBOX + portdb.GAMING_PORTS_PSN),
        _f(ports=portdb.GAMING_PORTS, protos=[PROTO_UDP]),
    )
    add(
        "social",
        _f(asns=[32934]),
        _f(asns=[13414]),
        _f(asns=[13767]),
        _f(asns=[54113], ports=[443]),
    )
    add(
        "messaging",
        _f(ports=[5222, 5223], protos=[PROTO_TCP]),
        _f(ports=[1863], protos=[PROTO_TCP]),
        _f(ports=[4244, 5242]),
    )
    add("email", _f(ports=portdb.EMAIL_PORTS, protos=[PROTO_TCP]))
    add(
        "educational",
        *[_f(asns=[asn]) for asn in (680, 766, 1103, 2200, 137, 11537, 668, 559, 786)],
    )
    add(
        "collab",
        _f(asns=[14061]),
        _f(asns=[19679]),
        _f(ports=[17500]),
        _f(ports=[1352]),
        _f(ports=[8443, 9443], protos=[PROTO_TCP]),
        _f(ports=[5005]),
        _f(ports=[3220, 3221]),
        _f(ports=[6000, 18080], protos=[PROTO_TCP]),
    )
    add(
        "cdn",
        *[
            _f(asns=[asn])
            for asn in (54994, 60068, 32787, 12989, 3356, 202623, 49544, 136787)
        ],
    )
    return classes


def table1_rows(
    classes: Optional[Mapping[str, AppClass]] = None,
) -> List[Tuple[str, int, int, int]]:
    """Table 1: (class, #filters, #distinct ASNs, #distinct ports)."""
    classes = classes or standard_classes()
    rows = []
    for name in sorted(classes):
        cls = classes[name]
        rows.append(
            (name, cls.n_filters, len(cls.distinct_asns), len(cls.distinct_ports))
        )
    return rows


# ---------------------------------------------------------------------------
# Fig 8: the gaming deep-dive.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassActivity:
    """Hourly activity of one class over a period, plus daily envelopes.

    ``unique_ips``/``volume`` are normalized to their own minimum over
    the period (Fig 8's presentation); the envelopes are per-day
    min/avg/max of the normalized hourly values.
    """

    start_day: _dt.date
    unique_ips: HourlySeries
    volume: HourlySeries
    daily_min: Dict[_dt.date, Tuple[float, float]]  # (ips, volume)
    daily_avg: Dict[_dt.date, Tuple[float, float]]
    daily_max: Dict[_dt.date, Tuple[float, float]]


def class_activity(
    flows: FlowTable,
    app_class: AppClass,
    start_day: _dt.date,
    end_day: _dt.date,
    ip_side: str = "dst",
) -> ClassActivity:
    """Fig 8 metrics for one class: distinct IPs and volume per hour.

    ``ip_side`` selects which endpoint approximates "households"
    (``dst`` for download-style classes where clients receive).
    """
    selected = app_class.select(flows)
    start = timebase.hour_index(start_day, 0)
    stop = timebase.hour_index(end_day, 23) + 1
    ips = selected.unique_ips_per_hour(start, stop, side=ip_side)
    volume = selected.hourly_bytes(start, stop).astype(np.float64)
    ip_floor = float(ips[ips > 0].min()) if np.any(ips > 0) else 1.0
    vol_floor = float(volume[volume > 0].min()) if np.any(volume > 0) else 1.0
    ips_norm = HourlySeries(start, ips / ip_floor)
    vol_norm = HourlySeries(start, volume / vol_floor)
    daily_min: Dict[_dt.date, Tuple[float, float]] = {}
    daily_avg: Dict[_dt.date, Tuple[float, float]] = {}
    daily_max: Dict[_dt.date, Tuple[float, float]] = {}
    for day, ip_vals in ips_norm.iter_days():
        vol_vals = vol_norm.day_values(day)
        daily_min[day] = (float(ip_vals.min()), float(vol_vals.min()))
        daily_avg[day] = (float(ip_vals.mean()), float(vol_vals.mean()))
        daily_max[day] = (float(ip_vals.max()), float(vol_vals.max()))
    return ClassActivity(
        start_day=start_day,
        unique_ips=ips_norm,
        volume=vol_norm,
        daily_min=daily_min,
        daily_avg=daily_avg,
        daily_max=daily_max,
    )


# ---------------------------------------------------------------------------
# Fig 9: application-class heatmaps.
# ---------------------------------------------------------------------------

#: Hours removed from the heatmaps ("we remove the early morning hours
#: (2-7 am)"), as a half-open range.
MORNING_HOURS_REMOVED = (2, 7)

#: Growth clipping bounds in percent ("we cut off any growth above 200%
#: and decrease below 100%").
CLIP_PERCENT = (-100.0, 200.0)


@dataclass(frozen=True)
class ClassHeatmap:
    """One class's Fig 9 row at one vantage point.

    ``base`` holds the base week's normalized hourly volume (0-1);
    ``diffs`` holds, per stage label, the percent difference to the base
    week hour-by-hour, clipped to [-100, +200].  All arrays have
    ``7 * kept_hours`` entries (morning hours removed).
    """

    class_name: str
    hours_kept: Tuple[int, ...]
    base: np.ndarray
    diffs: Dict[str, np.ndarray]


@dataclass(frozen=True)
class ClassVolume:
    """One class's exact int64 byte volume per hour.

    ``values[i]`` holds the class's bytes in hourly bin
    ``start_hour + i``.  The Fig 9 helpers below read week windows of
    it (:meth:`week`).
    """

    start_hour: int
    values: np.ndarray

    def week(self, week: timebase.Week) -> np.ndarray:
        """The 168 int64 hourly byte counts of one analysis week."""
        start, stop = week.hour_range()
        offset = start - self.start_hour
        if offset < 0 or offset + (stop - start) > len(self.values):
            raise ValueError(
                f"week {week.start} lies outside the class volume's hours"
            )
        return self.values[offset : offset + (stop - start)]


def class_volumes(
    tables: Sequence[FlowTable],
    weeks: Iterable[timebase.Week],
    classes: Optional[Mapping[str, AppClass]] = None,
) -> Dict[str, ClassVolume]:
    """Each class's hourly bytes in ``tables`` over the span of ``weeks``.

    ``classes`` defaults to the Table 1 classes.  One membership pass
    per table gives every row the bitset of the classes' filters it
    matches; each class mask is read off those bits and summed through
    the table's hour index (:meth:`FlowTable.hourly_bytes` with
    ``where=``).  The tables' int64 sums are added, so several week
    tables need not be concatenated first.
    """
    classes = classes or standard_classes()
    ranges = [week.hour_range() for week in weeks]
    start = min(lo for lo, _ in ranges)
    stop = max(hi for _, hi in ranges)
    names = sorted(classes)
    filters = tuple(dict.fromkeys(
        filt for name in names for filt in classes[name].filters
    ))
    membership = _membership(filters)
    position = {filt: i for i, filt in enumerate(filters)}
    selected = {
        name: membership.select(
            position[filt] for filt in classes[name].filters
        )
        for name in names
    }
    totals = {name: np.zeros(stop - start, dtype=np.int64) for name in names}
    for flows in tables:
        bits = membership.bits(flows)
        for name in names:
            totals[name] += flows.hourly_bytes(
                start, stop,
                where=membership.matching(bits, selected[name]),
            )
    return {name: ClassVolume(start, totals[name]) for name in names}


def _kept_hour_indices() -> Tuple[int, ...]:
    h0, h1 = MORNING_HOURS_REMOVED
    return tuple(h for h in range(24) if not h0 <= h < h1)


def _week_kept_hours(
    volume: ClassVolume, week: timebase.Week, kept: Sequence[int]
) -> np.ndarray:
    hourly = volume.week(week).astype(np.float64)
    days = hourly.reshape(7, 24)
    return days[:, list(kept)].reshape(-1)


def class_heatmaps(
    volumes: Mapping[str, ClassVolume],
    weeks: Mapping[str, timebase.Week],
) -> Dict[str, ClassHeatmap]:
    """Fig 9: per-class base pattern and stage-difference heatmaps.

    ``volumes`` maps class name to the class's hourly bytes (see
    :func:`class_volumes`).  ``weeks`` must contain ``base`` plus any
    number of stage labels.
    Normalization follows §5: per class, min/max over all three weeks
    jointly (after removing the early-morning hours); differences are
    percentages of that normalized scale, clipped to [-100, +200].
    """
    if "base" not in weeks:
        raise ValueError("weeks must include a 'base' entry")
    kept = _kept_hour_indices()
    heatmaps: Dict[str, ClassHeatmap] = {}
    for name in sorted(volumes):
        raw = {
            label: _week_kept_hours(volumes[name], week, kept)
            for label, week in weeks.items()
        }
        lo = min(float(v.min()) for v in raw.values())
        hi = max(float(v.max()) for v in raw.values())
        span = hi - lo if hi > lo else 1.0
        norm = {label: (v - lo) / span for label, v in raw.items()}
        base = norm["base"]
        diffs = {}
        for label, values in norm.items():
            if label == "base":
                continue
            diffs[label] = np.clip(
                (values - base) * 100.0, CLIP_PERCENT[0], CLIP_PERCENT[1]
            )
        heatmaps[name] = ClassHeatmap(
            class_name=name, hours_kept=kept, base=base, diffs=diffs
        )
    return heatmaps


def weekly_class_growth(
    volume: ClassVolume,
    base_week: timebase.Week,
    stage_week: timebase.Week,
) -> float:
    """Relative growth of a class's *total weekly* volume.

    The §5 statements about overall class volume (VoD "up to 100%" at
    the European IXPs but "about 30%" at the ISP, gaming "about 10%" at
    the ISP, educational "+200%" at the ISP-CE) compare whole weeks,
    unlike the business-hours statements.  ``volume`` holds the class's
    hourly bytes.
    """
    base = float(volume.week(base_week).sum())
    stage = float(volume.week(stage_week).sum())
    if base <= 0:
        raise ValueError("base week has no traffic for the class")
    return stage / base - 1.0


def business_hours_growth(
    volume: ClassVolume,
    base_week: timebase.Week,
    stage_week: timebase.Week,
    region: timebase.Region,
    hours: Tuple[int, int] = (9, 17),
    weekend: bool = False,
) -> float:
    """Relative growth of a class during business hours on workdays
    (or on weekend days when ``weekend`` is set), stage vs. base.

    This is the quantity behind the §5 statements ("Web conferencing
    applications show a dramatic increase of more than 200% during
    business hours").  ``volume`` holds the class's hourly bytes.
    """
    h0, h1 = hours

    def _mean_business(week: timebase.Week) -> float:
        hourly = volume.week(week).astype(np.float64)
        days = hourly.reshape(7, 24)
        keep = np.array([
            timebase.behaves_like_weekend(day, region) == weekend
            for day in week.days()
        ])
        if not keep.any():
            return 0.0
        return float(np.mean(days[keep, h0:h1].mean(axis=1)))

    base = _mean_business(base_week)
    stage = _mean_business(stage_week)
    if base <= 0:
        raise ValueError("base week has no traffic for the class")
    return stage / base - 1.0
