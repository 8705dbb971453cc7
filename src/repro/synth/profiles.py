"""Application traffic profiles and their lockdown responses.

A profile describes one application population's traffic: its diurnal
shape per pandemic phase, its volume multiplier per phase (relative to
the pre-pandemic base), and the flow structure (protocol, ports, source
and destination AS pools) its traffic exhibits.

The multipliers encode the paper's *reported* behavioral shifts (e.g.
web conferencing "more than 200%" during business hours, port-based VPN
flat, domain-based VPN tripling on workdays).  The analysis pipeline
never reads them; it must recover the shifts from generated flows.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.flows.record import PROTO_ESP, PROTO_GRE, PROTO_TCP, PROTO_UDP
from repro.netbase.asdb import ASCategory
from repro.netbase import ports as portdb
from repro.synth import diurnal
from repro.timebase import TIMELINE_CE, LockdownTimeline

#: Ordered pandemic phases (canonically defined in :mod:`repro.timebase`).
from repro.timebase import PHASES  # noqa: F401  (re-export)

#: Days over which a phase change ramps in (behavioral shifts in the
#: paper complete "almost within a week").
RAMP_DAYS = 5

#: Special AS-pool markers resolved by the flow generator.
POOL_EYEBALL_LOCAL = "eyeball-local"  # the vantage's local eyeball ASes
POOL_VPN_GATEWAYS = "vpn-gateways"  # addresses from the DNS corpus
POOL_EDU_INTERNAL = "edu-internal"  # servers inside the EDU network
POOL_EDU_CLIENTS = "edu-clients"  # client hosts inside the EDU network
POOL_ANY = "any"  # any registered AS

ASPool = Union[ASCategory, Sequence[int], str]


@dataclass(frozen=True)
class FlowTemplate:
    """Structure of the flows a profile emits.

    ``dst_ports`` is a sequence of (port, weight) pairs; for port-less
    protocols (GRE/ESP) pass ``((0, 1.0),)``.
    """

    proto: int
    dst_ports: Tuple[Tuple[int, float], ...]
    src_pool: ASPool
    dst_pool: ASPool
    weight: float = 1.0
    mean_flow_kbytes: float = 200.0

    def __post_init__(self) -> None:
        if not self.dst_ports:
            raise ValueError("a flow template needs at least one port")
        if self.weight <= 0:
            raise ValueError("template weight must be positive")
        if self.mean_flow_kbytes <= 0:
            raise ValueError("mean flow size must be positive")


def uniform_ports(ports: Sequence[int]) -> Tuple[Tuple[int, float], ...]:
    """Equal-weight port tuple for :class:`FlowTemplate`."""
    return tuple((int(p), 1.0) for p in ports)


@dataclass(frozen=True)
class LockdownResponse:
    """Per-phase volume multipliers and diurnal shapes.

    ``workday_mult`` / ``weekend_mult`` map phase name to a volume
    multiplier relative to the ``pre`` phase (missing phases default to
    the closest earlier phase's value, then 1.0).  ``workday_shape`` /
    ``weekend_shape`` map phase name to a diurnal shape name (missing
    phases inherit likewise).
    """

    workday_mult: Mapping[str, float] = field(default_factory=dict)
    weekend_mult: Mapping[str, float] = field(default_factory=dict)
    workday_shape: Mapping[str, str] = field(default_factory=dict)
    weekend_shape: Mapping[str, str] = field(default_factory=dict)
    base_workday_shape: str = "workday"
    base_weekend_shape: str = "weekend"

    def _inherited(self, mapping: Mapping[str, float], phase: str,
                   default: float) -> float:
        idx = PHASES.index(phase)
        for earlier in reversed(PHASES[: idx + 1]):
            if earlier in mapping:
                return mapping[earlier]
        return default

    def multiplier(self, phase: str, weekend: bool) -> float:
        """Volume multiplier for ``phase`` on a workday or weekend day."""
        mapping = self.weekend_mult if weekend else self.workday_mult
        return self._inherited(mapping, phase, 1.0)

    def shape_name(self, phase: str, weekend: bool) -> str:
        """Diurnal shape name for ``phase``."""
        mapping = self.weekend_shape if weekend else self.workday_shape
        base = self.base_weekend_shape if weekend else self.base_workday_shape
        idx = PHASES.index(phase)
        for earlier in reversed(PHASES[: idx + 1]):
            if earlier in mapping:
                return mapping[earlier]
        return base


@dataclass(frozen=True)
class VolumeEvent:
    """A dated multiplicative modifier on top of the phase response.

    Models one-off events the paper calls out: the hypergiants' video
    resolution reduction from March 19/20, its lifting around May 12,
    and the two-day gaming-provider outage in the first lockdown week.
    """

    start: _dt.date
    end: _dt.date  # inclusive
    multiplier: float
    label: str = ""

    def applies(self, day: _dt.date) -> bool:
        """Whether the event is active on ``day``."""
        return self.start <= day <= self.end

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("event end precedes start")
        if self.multiplier < 0:
            raise ValueError("event multiplier must be non-negative")


@dataclass(frozen=True)
class AppProfile:
    """One application population's complete traffic description."""

    name: str
    templates: Tuple[FlowTemplate, ...]
    response: LockdownResponse
    events: Tuple[VolumeEvent, ...] = ()
    #: Annualized organic growth applied linearly across the study
    #: period.  ISPs plan for up to ~30%/year (§9) but the paper's
    #: pre-lockdown weeks are flat at the week-3 baseline, so the
    #: visible organic component over four months is small.
    annual_growth: float = 0.06

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError(f"profile {self.name!r} needs flow templates")

    def with_response(self, response: LockdownResponse) -> "AppProfile":
        """Copy of the profile with a different lockdown response."""
        return replace(self, response=response)

    def with_events(self, events: Sequence[VolumeEvent]) -> "AppProfile":
        """Copy of the profile with additional dated events."""
        return replace(self, events=self.events + tuple(events))

    def multipliers(self, days: "DayContext") -> np.ndarray:
        """Combined volume multiplier for every day of ``days``.

        Phase changes ramp in linearly over :data:`RAMP_DAYS`; dated
        events apply on top; organic growth accrues from the study
        start.  The float operations run in the same order for every
        day, so a one-day context gives the same value as a long one.
        """
        table = np.array(
            [[self.response.multiplier(p, w) for p in PHASES]
             for w in (False, True)],
            dtype=np.float64,
        )
        weekend = days.weekend.astype(np.intp)
        target = table[weekend, days.phase]
        # Ramp from the previous phase's multiplier.
        prev = table[weekend, days.prev_phase]
        frac = (days.days_in + 1) / (RAMP_DAYS + 1)
        target = np.where(days.ramping, prev + (target - prev) * frac, target)
        for event in self.events:
            active = (days.ordinals >= event.start.toordinal()) & (
                days.ordinals <= event.end.toordinal()
            )
            target = np.where(active, target * event.multiplier, target)
        growth_days = days.ordinals - _GROWTH_EPOCH.toordinal()
        return target * (1.0 + self.annual_growth * growth_days / 365.0)

    def daily_multiplier(
        self,
        day: _dt.date,
        timeline: LockdownTimeline,
        weekend: bool,
    ) -> float:
        """:meth:`multipliers` for a single ``day``.

        ``timeline`` may be any object exposing the ``ramp_context``
        surface — a plain region timeline or a scenario-event override
        wrapper.
        """
        days = DayContext.build([day], timeline, [weekend])
        return float(self.multipliers(days)[0])

    def day_shapes(self, days: "DayContext") -> np.ndarray:
        """The diurnal shape of every day of ``days``, ``(n_days, 24)``."""
        table = np.stack([
            diurnal.get_shape(self.response.shape_name(p, w))
            for w in (False, True)
            for p in PHASES
        ])
        return table[days.weekend * len(PHASES) + days.phase]


#: Organic growth accrues from this day.
_GROWTH_EPOCH = _dt.date(2020, 1, 1)


@dataclass(frozen=True, eq=False)
class DayContext:
    """Per-day inputs of the intensity model over a run of days.

    A vantage builds one over the study period and shares it with
    every profile it evaluates, so the weekend flags, phase lookups and
    ramp positions are worked out once per day rather than once per
    day and profile.
    Every array has one entry per day of ``days``.
    """

    days: Tuple[_dt.date, ...]
    #: Date ordinals (``date.toordinal()``).
    ordinals: np.ndarray
    #: Whether the day behaves like a weekend.
    weekend: np.ndarray
    #: Index into :data:`PHASES` of the phase in effect.
    phase: np.ndarray
    #: Index into :data:`PHASES` of the phase ramped from.
    prev_phase: np.ndarray
    #: Days since the phase started (0 on its first day).
    days_in: np.ndarray
    #: Whether the day lies inside a phase's ramp-in.
    ramping: np.ndarray
    #: Scenario work-from-home attenuation per day (``None`` outside
    #: a scenario world).
    attenuation: Optional[np.ndarray] = None

    @classmethod
    def build(
        cls,
        days: Sequence[_dt.date],
        timeline: LockdownTimeline,
        weekend: Sequence[bool],
        attenuation: Optional[Sequence[float]] = None,
    ) -> "DayContext":
        """Evaluate ``timeline.ramp_context`` once per day of ``days``."""
        n = len(days)
        phase = np.empty(n, dtype=np.intp)
        prev_phase = np.empty(n, dtype=np.intp)
        days_in = np.zeros(n, dtype=np.int64)
        has_start = np.zeros(n, dtype=bool)
        for i, day in enumerate(days):
            name, start, prev = timeline.ramp_context(day)
            phase[i] = PHASES.index(name)
            prev_phase[i] = PHASES.index(prev)
            if start is not None:
                has_start[i] = True
                days_in[i] = (day - start).days
        return cls(
            days=tuple(days),
            ordinals=np.array([d.toordinal() for d in days], dtype=np.int64),
            weekend=np.array(weekend, dtype=bool),
            phase=phase,
            prev_phase=prev_phase,
            days_in=days_in,
            ramping=has_start & (days_in < RAMP_DAYS),
            attenuation=(
                None if attenuation is None
                else np.array(attenuation, dtype=np.float64)
            ),
        )


# ---------------------------------------------------------------------------
# The standard profile library.
# ---------------------------------------------------------------------------


def _flat_response(**kwargs: object) -> LockdownResponse:
    return LockdownResponse(
        base_workday_shape="flat", base_weekend_shape="flat", **kwargs  # type: ignore[arg-type]
    )


def standard_profiles(
    timeline: LockdownTimeline = TIMELINE_CE,
) -> Dict[str, AppProfile]:
    """The application profile library shared by the ISP/IXP vantages.

    Multipliers encode §3-§6's reported shifts; vantage configurations
    override them where the paper reports vantage-specific behavior
    (e.g. VoD up at European IXPs but down at IXP-US).

    ``timeline`` anchors the library's dated events: the hypergiants'
    video-resolution reduction was announced in the first lockdown week
    (volume effect from one week into the CE lockdown) and lifted about
    a week into the reopening.  Scenarios that move the CE timeline
    move these events with it.
    """
    resolution_cut = (
        timeline.lockdown + _dt.timedelta(days=7),
        timeline.second_relaxation + _dt.timedelta(days=7),
    )
    profiles: Dict[str, AppProfile] = {}

    def add(profile: AppProfile) -> None:
        if profile.name in profiles:
            raise ValueError(f"duplicate profile {profile.name}")
        profiles[profile.name] = profile

    web_ports = ((443, 0.8), (80, 0.2))

    # Hypergiant web/streaming delivery (dominant traffic mass).
    add(
        AppProfile(
            name="web-hypergiant",
            templates=(
                FlowTemplate(
                    PROTO_TCP, web_ports, ASCategory.HYPERGIANT,
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=900.0,
                ),
            ),
            response=LockdownResponse(
                workday_mult={"response": 1.06, "lockdown": 1.22,
                              "relaxation": 1.10, "reopening": 1.05},
                weekend_mult={"response": 1.04, "lockdown": 1.12,
                              "relaxation": 1.06, "reopening": 1.03},
                workday_shape={"lockdown": "lockdown-workday",
                               "relaxation": "lockdown-workday"},
            ),
            events=(
                # Announced March 19/20 but rolled out gradually — the
                # volume effect lands after week 12's weekend (Fig 4's
                # week-13 stabilization/decline).
                VolumeEvent(resolution_cut[0], resolution_cut[1],
                            0.93, "video resolution reduction"),
            ),
        )
    )

    # Non-hypergiant web (enterprises, hosting, clouds) — the "other
    # ASes" whose relative increase exceeds the hypergiants' (Fig 4).
    add(
        AppProfile(
            name="web-other",
            templates=(
                FlowTemplate(
                    PROTO_TCP, web_ports, ASCategory.ENTERPRISE,
                    POOL_EYEBALL_LOCAL, weight=0.4, mean_flow_kbytes=150.0,
                ),
                FlowTemplate(
                    PROTO_TCP, web_ports, ASCategory.HOSTING,
                    POOL_EYEBALL_LOCAL, weight=0.35, mean_flow_kbytes=250.0,
                ),
                FlowTemplate(
                    PROTO_TCP, web_ports, ASCategory.CLOUD,
                    POOL_EYEBALL_LOCAL, weight=0.25, mean_flow_kbytes=200.0,
                ),
            ),
            response=LockdownResponse(
                workday_mult={"response": 1.08, "lockdown": 1.42,
                              "relaxation": 1.32, "reopening": 1.25},
                weekend_mult={"response": 1.05, "lockdown": 1.25,
                              "relaxation": 1.20, "reopening": 1.15},
                workday_shape={"lockdown": "lockdown-workday",
                               "relaxation": "lockdown-workday"},
            ),
        )
    )

    # QUIC (UDP/443): +30-80% at the ISP, ~+50% at the IXP-CE, biggest
    # increase in the morning hours.
    add(
        AppProfile(
            name="quic",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((443, 1.0),),
                    (15169, 20940, 13335),  # Google, Akamai, Cloudflare
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=600.0,
                ),
            ),
            response=LockdownResponse(
                workday_mult={"response": 1.10, "lockdown": 1.60,
                              "relaxation": 1.45, "reopening": 1.35},
                weekend_mult={"lockdown": 1.35, "relaxation": 1.25},
                workday_shape={"lockdown": "lockdown-workday",
                               "relaxation": "lockdown-workday"},
            ),
        )
    )

    # Video on demand (class filter: five ASes, no ports).
    add(
        AppProfile(
            name="vod",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((443, 1.0),),
                    (2906, 40027, 35402, 29990, 8403),
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=1500.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="evening",
                workday_mult={"response": 1.15, "lockdown": 1.95,
                              "relaxation": 1.70, "reopening": 1.55},
                weekend_mult={"lockdown": 1.50, "relaxation": 1.40},
                workday_shape={"lockdown": "weekend"},
            ),
            events=(
                VolumeEvent(resolution_cut[0], resolution_cut[1],
                            0.85, "video resolution reduction"),
            ),
        )
    )

    # Gaming (five ASes x 57 ports; evening-centric pre-pandemic,
    # consumed "at any time" during the lockdown).
    add(
        AppProfile(
            name="gaming",
            templates=(
                FlowTemplate(
                    PROTO_UDP, uniform_ports(portdb.GAMING_PORTS),
                    ASCategory.GAMING, POOL_EYEBALL_LOCAL,
                    mean_flow_kbytes=80.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="evening",
                workday_mult={"response": 1.10, "lockdown": 1.75,
                              "relaxation": 1.55, "reopening": 1.45},
                weekend_mult={"lockdown": 1.45, "relaxation": 1.35},
                workday_shape={"lockdown": "weekend"},
            ),
        )
    )

    # TV streaming over TCP/8200 (IXP-CE only; shifts from evening to
    # all-day, weekend increase in March).
    add(
        AppProfile(
            name="tv-streaming",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((8200, 1.0),), (199995,),
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=1200.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="evening",
                workday_mult={"lockdown": 1.55, "relaxation": 1.40},
                weekend_mult={"lockdown": 1.45, "relaxation": 1.30},
                workday_shape={"lockdown": "flat"},
            ),
        )
    )

    # Web conferencing via Microsoft (Teams/Skype STUN on UDP/3480).
    add(
        AppProfile(
            name="webconf-teams",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((3480, 0.7), (3478, 0.2), (3479, 0.1)),
                    (8075,), POOL_EYEBALL_LOCAL, mean_flow_kbytes=300.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"response": 1.4, "lockdown": 3.4,
                              "relaxation": 2.8, "reopening": 2.3},
                weekend_mult={"lockdown": 2.1, "relaxation": 1.8},
            ),
        )
    )

    # Zoom on-premise connectors (UDP/8801): an order of magnitude at
    # the ISP between February and April.
    add(
        AppProfile(
            name="webconf-zoom",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((8801, 0.85), (8802, 0.15)),
                    (30103,), POOL_EYEBALL_LOCAL, mean_flow_kbytes=300.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"response": 2.0, "lockdown": 7.0,
                              "relaxation": 10.0, "reopening": 9.0},
                weekend_mult={"lockdown": 3.0, "relaxation": 4.0},
            ),
        )
    )

    # IPsec NAT traversal (UDP/4500, UDP/500): up during working hours,
    # negligible change on weekends.
    add(
        AppProfile(
            name="vpn-ipsec",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((4500, 0.8), (500, 0.2)),
                    POOL_EYEBALL_LOCAL, ASCategory.ENTERPRISE,
                    mean_flow_kbytes=400.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"response": 1.3, "lockdown": 2.6,
                              "relaxation": 2.1, "reopening": 1.8},
                weekend_mult={"lockdown": 1.10},
            ),
        )
    )

    # OpenVPN (UDP/1194 and TCP/1194).
    add(
        AppProfile(
            name="vpn-openvpn",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((1194, 1.0),), POOL_EYEBALL_LOCAL,
                    ASCategory.ENTERPRISE, weight=0.7,
                    mean_flow_kbytes=350.0,
                ),
                FlowTemplate(
                    PROTO_TCP, ((1194, 1.0),), POOL_EYEBALL_LOCAL,
                    ASCategory.ENTERPRISE, weight=0.3,
                    mean_flow_kbytes=350.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"response": 1.25, "lockdown": 2.4,
                              "relaxation": 2.0, "reopening": 1.7},
                weekend_mult={"lockdown": 1.08},
            ),
        )
    )

    # Legacy tunnel VPN ports (L2TP/PPTP): essentially flat — the §6
    # observation that *port-based* VPN identification sees no change.
    add(
        AppProfile(
            name="vpn-legacy",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((1701, 0.5), (1723, 0.5)),
                    POOL_EYEBALL_LOCAL, ASCategory.ENTERPRISE,
                    mean_flow_kbytes=300.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business", base_weekend_shape="flat",
                workday_mult={"lockdown": 1.02},
            ),
        )
    )

    # VPN tunneled over TCP/443 toward *vpn* gateways — invisible to the
    # port-based classifier, recovered by the domain-based one (Fig 10).
    add(
        AppProfile(
            name="vpn-tls",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((443, 1.0),), POOL_EYEBALL_LOCAL,
                    POOL_VPN_GATEWAYS, mean_flow_kbytes=500.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"response": 1.4, "lockdown": 3.3,
                              "relaxation": 2.4, "reopening": 2.0},
                weekend_mult={"lockdown": 1.5, "relaxation": 1.3},
            ),
        )
    )

    # Site-to-site tunnels (GRE/ESP): decrease at the IXP-CE after the
    # lockdown (companies idle), slight increase at the ISP.
    add(
        AppProfile(
            name="tunnels-gre-esp",
            templates=(
                FlowTemplate(
                    PROTO_GRE, ((0, 1.0),), ASCategory.ENTERPRISE,
                    ASCategory.ENTERPRISE, weight=0.5,
                    mean_flow_kbytes=800.0,
                ),
                FlowTemplate(
                    PROTO_ESP, ((0, 1.0),), ASCategory.ENTERPRISE,
                    ASCategory.ENTERPRISE, weight=0.5,
                    mean_flow_kbytes=800.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business", base_weekend_shape="flat",
                workday_mult={"lockdown": 0.80, "relaxation": 0.75},
            ),
        )
    )

    # Alternative HTTP (TCP/8080): no major changes.
    add(
        AppProfile(
            name="http-alt",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((8080, 1.0),), ASCategory.HOSTING,
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=300.0,
                ),
            ),
            response=_flat_response(workday_mult={"lockdown": 1.02}),
        )
    )

    # Cloudflare load balancing (UDP/2408): no major changes.
    add(
        AppProfile(
            name="cloudflare-lb",
            templates=(
                FlowTemplate(
                    PROTO_UDP, ((2408, 1.0),), (13335,),
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=100.0,
                ),
            ),
            response=_flat_response(workday_mult={"lockdown": 1.03}),
        )
    )

    # Email (IMAP over TLS dominates; +60% during working hours at the
    # ISP-CE).
    add(
        AppProfile(
            name="email",
            templates=(
                FlowTemplate(
                    PROTO_TCP,
                    ((993, 0.55), (465, 0.12), (587, 0.12), (995, 0.08),
                     (25, 0.05), (143, 0.04), (110, 0.02), (2525, 0.01),
                     (106, 0.005), (4190, 0.005)),
                    POOL_EYEBALL_LOCAL, ASCategory.ENTERPRISE,
                    mean_flow_kbytes=60.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"lockdown": 1.6, "relaxation": 1.45},
                weekend_mult={"lockdown": 1.15},
            ),
        )
    )

    # Messaging (soars in Europe, falls in the US — overridden at
    # IXP-US).
    add(
        AppProfile(
            name="messaging",
            templates=(
                FlowTemplate(
                    PROTO_TCP, uniform_ports(portdb.MESSAGING_PORTS),
                    POOL_EYEBALL_LOCAL, ASCategory.SOCIAL,
                    mean_flow_kbytes=40.0,
                ),
            ),
            response=LockdownResponse(
                workday_mult={"response": 1.4, "lockdown": 3.2,
                              "relaxation": 2.6},
                weekend_mult={"lockdown": 2.4, "relaxation": 2.0},
                workday_shape={"lockdown": "lockdown-workday"},
            ),
        )
    )

    # Social media (strong initial increase flattening in stage 2).
    add(
        AppProfile(
            name="social",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((443, 1.0),),
                    (32934, 13414, 13767, 54113), POOL_EYEBALL_LOCAL,
                    mean_flow_kbytes=350.0,
                ),
            ),
            response=LockdownResponse(
                workday_mult={"response": 1.2, "lockdown": 1.7,
                              "relaxation": 1.25, "reopening": 1.15},
                weekend_mult={"lockdown": 1.5, "relaxation": 1.2},
                workday_shape={"lockdown": "lockdown-workday"},
            ),
        )
    )

    # Collaborative working (cloud docs / file sync; two ASes, nine
    # ports).
    add(
        AppProfile(
            name="collab",
            templates=(
                FlowTemplate(
                    PROTO_TCP, uniform_ports(portdb.COLLAB_PORTS),
                    POOL_EYEBALL_LOCAL, (14061, 19679),
                    mean_flow_kbytes=250.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                base_weekend_shape="flat",
                workday_mult={"response": 1.2, "lockdown": 2.2,
                              "relaxation": 1.9},
                weekend_mult={"lockdown": 1.3},
            ),
        )
    )

    # CDN delivery (eight ASes; up in Europe, flat/down in the US).
    add(
        AppProfile(
            name="cdn",
            templates=(
                FlowTemplate(
                    PROTO_TCP, web_ports, ASCategory.CDN,
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=700.0,
                ),
            ),
            response=LockdownResponse(
                workday_mult={"lockdown": 1.40, "relaxation": 1.30},
                weekend_mult={"lockdown": 1.25},
                workday_shape={"lockdown": "lockdown-workday"},
            ),
        )
    )

    # Educational networks (nine ASes; +200% at the ISP-CE where edu
    # networks host conferencing; stable at IXP-CE; down in the US).
    add(
        AppProfile(
            name="educational",
            templates=(
                FlowTemplate(
                    PROTO_TCP, web_ports, ASCategory.EDUCATIONAL,
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=300.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="business",
                workday_mult={"lockdown": 1.05},
            ),
        )
    )

    # Push notifications / mobile services.
    add(
        AppProfile(
            name="push",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((5223, 0.5), (5228, 0.5)),
                    POOL_EYEBALL_LOCAL, (714, 15169),
                    mean_flow_kbytes=15.0,
                ),
            ),
            response=_flat_response(workday_mult={"lockdown": 1.1}),
        )
    )

    # The unknown TCP/25461 service on hosting prefixes (Fig 7).
    add(
        AppProfile(
            name="unknown-25461",
            templates=(
                FlowTemplate(
                    PROTO_TCP, ((25461, 1.0),), ASCategory.HOSTING,
                    POOL_EYEBALL_LOCAL, mean_flow_kbytes=450.0,
                ),
            ),
            response=LockdownResponse(
                base_workday_shape="evening",
                workday_mult={"lockdown": 1.25},
                weekend_mult={"lockdown": 1.2},
            ),
        )
    )

    return profiles
