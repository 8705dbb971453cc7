"""Composable scenario events.

The generator used to encode exactly one world: the outbreak →
lockdown → relaxation timeline hard-coded across ``timebase``,
``profiles`` and ``build_scenario``.  This module factors that world
into *events* — typed, frozen dataclasses with start/ramp/plateau/decay
envelopes — that compose into a :class:`Timeline` the synthesis layers
evaluate instead of consulting hard-coded phases.

Supported event types (mirroring the related work named in ROADMAP):

* :class:`DemandShift` — broad volume change at selected vantages
  and/or profiles (e.g. a regional demand surge),
* :class:`AppMixShift` — per-profile multipliers (e.g. the campus
  e-learning collapse of Favale et al.: ingress collapses while
  remote-access services surge),
* :class:`VantageOutage` — a vantage's traffic drops to a residual
  fraction (the Elmokashfi et al. outage perspective),
* :class:`FlashCrowd` — a short, sharp surge with decay,
* :class:`Holiday` — extra days that behave like weekends,
* :class:`SecondWave` — a region re-enters a pandemic phase inside a
  dated window,
* :class:`WFHReversal` — pandemic responses gradually attenuate back
  toward pre-pandemic levels (gradual return to the office),
* :class:`CapacityBoost` — extra IXP member port upgrades spread over
  a window.

An empty event list composes into the identity timeline: every modifier
is exactly 1.0 and the region timelines are the shared
:data:`repro.timebase.TIMELINES` objects, so the default scenario is
bit-identical to the pre-DSL world.  Analyses never see events — they
must re-derive each planted shift from generated flows.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import timebase
from repro.timebase import LockdownTimeline, Region


def _parse_date(value) -> _dt.date:
    if isinstance(value, _dt.date):
        return value
    return _dt.date.fromisoformat(str(value))


def _parse_region(value) -> Region:
    if isinstance(value, Region):
        return value
    return Region(str(value))


@dataclass(frozen=True)
class Envelope:
    """Temporal activation profile of an event.

    Weight ramps linearly from 0 to 1 over ``ramp_days`` starting at
    ``start`` (a zero-length ramp is a step), holds at 1.0 for
    ``plateau_days`` (``None`` = forever), then decays linearly back to
    0 over ``decay_days``.  The ramp fractions match the phase-change
    ramp in :mod:`repro.synth.profiles` (day ``i`` of an ``n``-day ramp
    weighs ``(i + 1) / (n + 1)``).
    """

    start: _dt.date
    ramp_days: int = 0
    plateau_days: Optional[int] = None
    decay_days: int = 0

    def __post_init__(self) -> None:
        if self.ramp_days < 0 or self.decay_days < 0:
            raise ValueError("ramp/decay lengths must be non-negative")
        if self.plateau_days is not None and self.plateau_days < 0:
            raise ValueError("plateau length must be non-negative")
        if self.plateau_days is None and self.decay_days:
            raise ValueError("an open-ended plateau cannot decay")

    def weight(self, day: _dt.date) -> float:
        """Activation weight in ``[0, 1]`` on ``day``."""
        offset = (day - self.start).days
        if offset < 0:
            return 0.0
        if offset < self.ramp_days:
            return (offset + 1) / (self.ramp_days + 1)
        offset -= self.ramp_days
        if self.plateau_days is None:
            return 1.0
        if offset < self.plateau_days:
            return 1.0
        offset -= self.plateau_days
        if offset < self.decay_days:
            return 1.0 - (offset + 1) / (self.decay_days + 1)
        return 0.0

    @property
    def end(self) -> Optional[_dt.date]:
        """Last day with non-zero weight (``None`` = open-ended)."""
        if self.plateau_days is None:
            return None
        total = self.ramp_days + self.plateau_days + self.decay_days
        return self.start + _dt.timedelta(days=max(0, total - 1))

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start.isoformat(),
            "ramp_days": self.ramp_days,
            "plateau_days": self.plateau_days,
            "decay_days": self.decay_days,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Envelope":
        return cls(
            start=_parse_date(payload["start"]),
            ramp_days=int(payload.get("ramp_days", 0)),
            plateau_days=(
                None
                if payload.get("plateau_days") is None
                else int(payload["plateau_days"])  # type: ignore[arg-type]
            ),
            decay_days=int(payload.get("decay_days", 0)),
        )


def envelope_for(
    start,
    end=None,
    ramp_days: int = 0,
    decay_days: int = 0,
) -> Envelope:
    """Envelope active from ``start`` through ``end`` (inclusive).

    ``end`` bounds the *plateau*: ramp and decay extend before/after it
    is reached.  ``end=None`` leaves the plateau open-ended.
    """
    start = _parse_date(start)
    if end is None:
        return Envelope(start, ramp_days=ramp_days)
    end = _parse_date(end)
    plateau = (end - start).days + 1 - ramp_days
    if plateau < 0:
        raise ValueError("envelope end precedes the end of the ramp")
    return Envelope(
        start, ramp_days=ramp_days, plateau_days=plateau,
        decay_days=decay_days,
    )


class Event:
    """Base scenario event: every hook defaults to a no-op.

    Subclasses are frozen dataclasses; ``kind`` is the serialization
    tag used by :func:`event_from_dict` and spec fingerprints.
    """

    kind = "event"
    label = ""

    def volume_factor(
        self, day: _dt.date, vantage: str, profile: str
    ) -> float:
        """Multiplicative volume modifier for one (day, vantage, profile)."""
        return 1.0

    def weekend_override(self, day: _dt.date, region: Region) -> bool:
        """Whether the event forces ``day`` to behave like a weekend."""
        return False

    def phase_windows(self, region: Region) -> Sequence["PhaseWindow"]:
        """Phase-override windows the event imposes on ``region``."""
        return ()

    def wfh_attenuation(self, day: _dt.date, vantage: str) -> float:
        """How much of the pandemic response is unwound (0 = none)."""
        return 0.0

    def capacity_boosts(self) -> Sequence["CapacityBoost"]:
        """Extra IXP capacity-upgrade campaigns the event contributes."""
        return ()

    def to_dict(self) -> Dict[str, object]:
        raise NotImplementedError

    def _base_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "label": self.label}


def _scoped(selection: Tuple[str, ...], name: str) -> bool:
    """Whether ``name`` is inside a (possibly empty = all) selection."""
    return not selection or name in selection


@dataclass(frozen=True)
class DemandShift(Event):
    """Volume interpolates toward ``magnitude`` at full envelope weight."""

    envelope: Envelope
    magnitude: float
    vantages: Tuple[str, ...] = ()
    profiles: Tuple[str, ...] = ()
    label: str = "demand shift"
    kind = "demand-shift"

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")

    def volume_factor(
        self, day: _dt.date, vantage: str, profile: str
    ) -> float:
        if not (_scoped(self.vantages, vantage)
                and _scoped(self.profiles, profile)):
            return 1.0
        weight = self.envelope.weight(day)
        if weight == 0.0:
            return 1.0
        return 1.0 + (self.magnitude - 1.0) * weight

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            envelope=self.envelope.to_dict(),
            magnitude=self.magnitude,
            vantages=list(self.vantages),
            profiles=list(self.profiles),
        )
        return payload


@dataclass(frozen=True)
class FlashCrowd(DemandShift):
    """A short, sharp surge — a demand shift with a crowd's shape.

    Semantically identical to :class:`DemandShift`; the distinct type
    documents intent (breaking-news spikes, release-day downloads) and
    keeps grid specs self-describing.
    """

    label: str = "flash crowd"
    kind = "flash-crowd"


@dataclass(frozen=True)
class AppMixShift(Event):
    """Per-profile multipliers (reshaping a vantage's application mix)."""

    envelope: Envelope
    shifts: Tuple[Tuple[str, float], ...]
    vantages: Tuple[str, ...] = ()
    label: str = "app-mix shift"
    kind = "app-mix-shift"

    def __post_init__(self) -> None:
        if not self.shifts:
            raise ValueError("an app-mix shift needs per-profile shifts")
        for _, magnitude in self.shifts:
            if magnitude < 0:
                raise ValueError("shift magnitudes must be non-negative")
        # Canonical order, so equal shifts fingerprint identically no
        # matter how the author listed them.
        object.__setattr__(self, "shifts", tuple(sorted(self.shifts)))

    def volume_factor(
        self, day: _dt.date, vantage: str, profile: str
    ) -> float:
        if not _scoped(self.vantages, vantage):
            return 1.0
        for name, magnitude in self.shifts:
            if name == profile:
                weight = self.envelope.weight(day)
                if weight == 0.0:
                    return 1.0
                return 1.0 + (magnitude - 1.0) * weight
        return 1.0

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            envelope=self.envelope.to_dict(),
            shifts={name: mult for name, mult in self.shifts},
            vantages=list(self.vantages),
        )
        return payload


@dataclass(frozen=True)
class VantageOutage(Event):
    """One vantage's traffic drops to ``residual`` of normal."""

    envelope: Envelope
    vantage: str
    residual: float = 0.0
    label: str = "vantage outage"
    kind = "vantage-outage"

    def __post_init__(self) -> None:
        if not 0.0 <= self.residual <= 1.0:
            raise ValueError("residual must be in [0, 1]")

    def volume_factor(
        self, day: _dt.date, vantage: str, profile: str
    ) -> float:
        if vantage != self.vantage:
            return 1.0
        weight = self.envelope.weight(day)
        if weight == 0.0:
            return 1.0
        return 1.0 + (self.residual - 1.0) * weight

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            envelope=self.envelope.to_dict(),
            vantage=self.vantage,
            residual=self.residual,
        )
        return payload


@dataclass(frozen=True)
class Holiday(Event):
    """Extra days that behave like weekends in selected regions."""

    start: _dt.date
    end: _dt.date
    regions: Tuple[Region, ...] = ()
    label: str = "holiday"
    kind = "holiday"

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("holiday end precedes start")

    def weekend_override(self, day: _dt.date, region: Region) -> bool:
        if self.regions and region not in self.regions:
            return False
        return self.start <= day <= self.end

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            start=self.start.isoformat(),
            end=self.end.isoformat(),
            regions=[r.value for r in self.regions],
        )
        return payload


@dataclass(frozen=True)
class PhaseWindow:
    """A dated window during which a region's phase is overridden."""

    start: _dt.date
    end: _dt.date
    phase: str

    def __post_init__(self) -> None:
        if self.phase not in timebase.PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.end < self.start:
            raise ValueError("phase window end precedes start")

    def contains(self, day: _dt.date) -> bool:
        return self.start <= day <= self.end


@dataclass(frozen=True)
class SecondWave(Event):
    """A region re-enters a pandemic phase inside a dated window."""

    region: Region
    start: _dt.date
    end: _dt.date
    phase: str = "lockdown"
    label: str = "second wave"
    kind = "second-wave"

    def __post_init__(self) -> None:
        # Validation delegated to PhaseWindow.
        PhaseWindow(self.start, self.end, self.phase)

    def phase_windows(self, region: Region) -> Sequence[PhaseWindow]:
        if region is not self.region:
            return ()
        return (PhaseWindow(self.start, self.end, self.phase),)

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            region=self.region.value,
            start=self.start.isoformat(),
            end=self.end.isoformat(),
            phase=self.phase,
        )
        return payload


@dataclass(frozen=True)
class WFHReversal(Event):
    """Pandemic responses unwind gradually (return to the office).

    At weight ``w``, every profile multiplier ``m`` becomes
    ``1 + (m - 1) * (1 - w)`` — the *excess over pre-pandemic* is
    attenuated, leaving organic growth and diurnal structure intact.
    """

    envelope: Envelope
    vantages: Tuple[str, ...] = ()
    label: str = "wfh reversal"
    kind = "wfh-reversal"

    def wfh_attenuation(self, day: _dt.date, vantage: str) -> float:
        if not _scoped(self.vantages, vantage):
            return 0.0
        return self.envelope.weight(day)

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            envelope=self.envelope.to_dict(),
            vantages=list(self.vantages),
        )
        return payload


@dataclass(frozen=True)
class CapacityBoost(Event):
    """Extra member port upgrades at one IXP, spread over a window."""

    ixp: str
    gbps: int
    start: _dt.date
    end: _dt.date
    label: str = "capacity boost"
    kind = "capacity-boost"

    def __post_init__(self) -> None:
        if self.gbps <= 0:
            raise ValueError("capacity boosts must add positive Gbps")
        if self.end < self.start:
            raise ValueError("boost window end precedes start")

    def capacity_boosts(self) -> Sequence["CapacityBoost"]:
        return (self,)

    def to_dict(self) -> Dict[str, object]:
        payload = self._base_dict()
        payload.update(
            ixp=self.ixp,
            gbps=self.gbps,
            start=self.start.isoformat(),
            end=self.end.isoformat(),
        )
        return payload


#: Serialization registry: ``type`` tag → event class.
EVENT_TYPES = {
    cls.kind: cls
    for cls in (
        DemandShift, FlashCrowd, AppMixShift, VantageOutage, Holiday,
        SecondWave, WFHReversal, CapacityBoost,
    )
}


def _envelope_from(payload: Mapping[str, object]) -> Envelope:
    """Envelope from a spec-file event dict.

    Accepts either a nested ``envelope`` dict or the flattened
    ``start``/``end``/``ramp_days``/``decay_days`` shorthand.
    """
    if "envelope" in payload:
        return Envelope.from_dict(payload["envelope"])  # type: ignore[arg-type]
    return envelope_for(
        payload["start"],
        payload.get("end"),
        ramp_days=int(payload.get("ramp_days", 0)),
        decay_days=int(payload.get("decay_days", 0)),
    )


def event_from_dict(payload: Mapping[str, object]) -> Event:
    """Parse one event from its spec-file dict form."""
    tag = str(payload.get("type", ""))
    cls = EVENT_TYPES.get(tag)
    if cls is None:
        raise ValueError(
            f"unknown event type {tag!r}; have {sorted(EVENT_TYPES)}"
        )
    label = str(payload.get("label", cls.label))
    if cls in (DemandShift, FlashCrowd):
        return cls(
            envelope=_envelope_from(payload),
            magnitude=float(payload["magnitude"]),
            vantages=tuple(payload.get("vantages", ())),
            profiles=tuple(payload.get("profiles", ())),
            label=label,
        )
    if cls is AppMixShift:
        shifts = payload["shifts"]
        if isinstance(shifts, Mapping):
            pairs = tuple(sorted(
                (str(k), float(v)) for k, v in shifts.items()
            ))
        else:
            pairs = tuple((str(k), float(v)) for k, v in shifts)
        return AppMixShift(
            envelope=_envelope_from(payload),
            shifts=pairs,
            vantages=tuple(payload.get("vantages", ())),
            label=label,
        )
    if cls is VantageOutage:
        return VantageOutage(
            envelope=_envelope_from(payload),
            vantage=str(payload["vantage"]),
            residual=float(payload.get("residual", 0.0)),
            label=label,
        )
    if cls is Holiday:
        return Holiday(
            start=_parse_date(payload["start"]),
            end=_parse_date(payload["end"]),
            regions=tuple(
                _parse_region(r) for r in payload.get("regions", ())
            ),
            label=label,
        )
    if cls is SecondWave:
        return SecondWave(
            region=_parse_region(payload["region"]),
            start=_parse_date(payload["start"]),
            end=_parse_date(payload["end"]),
            phase=str(payload.get("phase", "lockdown")),
            label=label,
        )
    if cls is WFHReversal:
        return WFHReversal(
            envelope=_envelope_from(payload),
            vantages=tuple(payload.get("vantages", ())),
            label=label,
        )
    return CapacityBoost(
        ixp=str(payload["ixp"]),
        gbps=int(payload["gbps"]),
        start=_parse_date(payload["start"]),
        end=_parse_date(payload["end"]),
        label=label,
    )


@dataclass(frozen=True)
class OverriddenTimeline:
    """A region timeline with phase-override windows applied.

    Duck-types the :class:`~repro.timebase.LockdownTimeline` surface
    the synthesis layers consult (``phase``/``ramp_context``/
    ``phase_start``/``region``); inside an override window the phase is
    forced and responses ramp from whatever phase was in effect just
    before the window opened.
    """

    base: LockdownTimeline
    windows: Tuple[PhaseWindow, ...]

    @property
    def region(self) -> Region:
        return self.base.region

    def __getattr__(self, name: str):
        # Milestone dates (outbreak, lockdown, ...) pass through to the
        # base timeline; only phase evaluation is overridden.
        return getattr(self.base, name)

    def phase(self, day: _dt.date) -> str:
        for window in self.windows:
            if window.contains(day):
                return window.phase
        return self.base.phase(day)

    def phase_start(self, phase: str) -> Optional[_dt.date]:
        return self.base.phase_start(phase)

    def ramp_context(
        self, day: _dt.date
    ) -> Tuple[str, Optional[_dt.date], str]:
        for window in self.windows:
            if window.contains(day):
                before = window.start - _dt.timedelta(days=1)
                return window.phase, window.start, self.phase(before)
        return self.base.ramp_context(day)

    def phase_spans(self, start=None, end=None):
        spans: List[Tuple[str, _dt.date, _dt.date]] = []
        for day in timebase.iter_days(start, end):
            phase = self.phase(day)
            if spans and spans[-1][0] == phase:
                spans[-1] = (phase, spans[-1][1], day)
            else:
                spans.append((phase, day, day))
        return spans


class Timeline:
    """The composed world a scenario's events describe.

    One instance is shared by every vantage of a scenario.  With no
    events and no region-timeline overrides it degrades to the exact
    shared :data:`repro.timebase.TIMELINES` objects and identity
    modifiers — the pre-DSL world, bit for bit.
    """

    def __init__(
        self,
        events: Sequence[Event] = (),
        region_timelines: Optional[
            Mapping[Region, LockdownTimeline]
        ] = None,
    ):
        self.events = tuple(events)
        base: Dict[Region, LockdownTimeline] = dict(timebase.TIMELINES)
        if region_timelines:
            base.update(region_timelines)
        self._timelines: Dict[Region, object] = {}
        for region, tl in base.items():
            windows: List[PhaseWindow] = []
            for event in self.events:
                windows.extend(event.phase_windows(region))
            if windows:
                self._timelines[region] = OverriddenTimeline(
                    tl, tuple(windows)
                )
            else:
                self._timelines[region] = tl
        self._has_volume_events = any(
            not isinstance(e, (Holiday, SecondWave, CapacityBoost))
            for e in self.events
        )

    @property
    def is_default(self) -> bool:
        """True when this timeline is the unmodified pre-DSL world."""
        return not self.events and all(
            self._timelines[r] is timebase.TIMELINES[r]
            for r in timebase.TIMELINES
        )

    @property
    def has_volume_events(self) -> bool:
        """Whether any event can make :meth:`volume_modifier` differ
        from 1.0."""
        return self._has_volume_events

    def timeline_for(self, region: Region):
        """The (possibly overridden) region timeline."""
        return self._timelines[region]

    def behaves_like_weekend(self, day: _dt.date, region: Region) -> bool:
        """Calendar weekend behavior plus any holiday events."""
        for event in self.events:
            if event.weekend_override(day, region):
                return True
        return timebase.behaves_like_weekend(day, region)

    def volume_modifier(
        self, day: _dt.date, vantage: str, profile: str
    ) -> float:
        """Product of all events' volume factors (1.0 = untouched)."""
        if not self._has_volume_events:
            return 1.0
        factor = 1.0
        for event in self.events:
            factor *= event.volume_factor(day, vantage, profile)
        return factor

    def wfh_attenuation(self, day: _dt.date, vantage: str) -> float:
        """Strongest response attenuation any event imposes on ``day``."""
        attenuation = 0.0
        for event in self.events:
            attenuation = max(
                attenuation, event.wfh_attenuation(day, vantage)
            )
        return min(1.0, attenuation)

    def capacity_boosts(self, ixp: str) -> List[CapacityBoost]:
        """Capacity-upgrade campaigns targeting ``ixp``."""
        boosts: List[CapacityBoost] = []
        for event in self.events:
            for boost in event.capacity_boosts():
                if boost.ixp == ixp:
                    boosts.append(boost)
        return boosts

    def outage_free(self, day: _dt.date) -> bool:
        """Whether no outage blacks out any vantage on ``day``."""
        for event in self.events:
            if isinstance(event, VantageOutage):
                if event.envelope.weight(day) > 0.0:
                    return False
        return True


#: The identity timeline (no events, shared region timelines).
DEFAULT_TIMELINE = Timeline()
