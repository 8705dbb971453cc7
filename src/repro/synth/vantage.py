"""Vantage-point traffic model.

A :class:`VantagePoint` combines an application-profile mix with a
region timeline and a flow sampler.  It exposes the two data products
the analyses consume:

* **hourly aggregates** (:meth:`VantagePoint.hourly_traffic`) — the
  intensity model evaluated over a date range, used by the volume
  figures (Figs 1-4), and
* **flow tables** (:meth:`VantagePoint.generate_flows`) — samples
  consistent with those aggregates, used by everything flow-level
  (Figs 5-12).

Determinism: aggregates are exact functions of (seed, mix, timeline);
flow sampling is seeded per (vantage, date range) so repeated calls
with the same arguments return identical tables.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro import timebase
from repro.flows.table import FlowTable
from repro.netbase.asdb import ASRegistry
from repro.netbase.prefixes import PrefixMap
from repro.series import HourlySeries
from repro.synth.flowgen import FlowSampler
from repro.synth.profiles import AppProfile, DayContext


@dataclass(frozen=True)
class ProfileUse:
    """One profile's weight inside a vantage point's traffic mix."""

    profile: AppProfile
    share: float

    def __post_init__(self) -> None:
        if self.share <= 0:
            raise ValueError(
                f"profile share must be positive ({self.profile.name})"
            )


def _stable_hash(*parts: object) -> int:
    digest = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class VantagePoint:
    """A traffic vantage point (ISP, IXP, mobile operator, EDU, ...)."""

    def __init__(
        self,
        name: str,
        kind: str,
        region: timebase.Region,
        mix: Mapping[str, ProfileUse],
        base_daily_volume: float,
        registry: ASRegistry,
        prefix_map: PrefixMap,
        local_eyeball_asns: Sequence[int],
        seed: int,
        vpn_gateway_ips: Sequence[int] = (),
        edu_internal_asns: Sequence[int] = (),
        hour_noise_sigma: float = 0.02,
        day_noise_sigma: float = 0.025,
        world=None,
    ):
        if kind not in ("isp", "ixp", "edu", "mobile", "ipx"):
            raise ValueError(f"unknown vantage kind: {kind!r}")
        if base_daily_volume <= 0:
            raise ValueError("base_daily_volume must be positive")
        if not mix:
            raise ValueError("vantage needs a non-empty profile mix")
        self.name = name
        self.kind = kind
        self.region = region
        #: The scenario's composed event timeline
        #: (:class:`repro.synth.events.Timeline`); ``None`` means the
        #: default world with no events.
        self.world = world
        if world is None:
            self.timeline = timebase.timeline_for(region)
        else:
            self.timeline = world.timeline_for(region)
        self.mix = dict(mix)
        self.base_daily_volume = base_daily_volume
        self.seed = seed
        self._registry = registry
        self._prefix_map = prefix_map
        self._local_eyeballs = tuple(local_eyeball_asns)
        self._vpn_gateway_ips = tuple(vpn_gateway_ips)
        self._edu_internal = tuple(edu_internal_asns)
        self._hour_noise_sigma = hour_noise_sigma
        self._day_noise_sigma = day_noise_sigma
        #: Per-profile study-period volumes (:meth:`_model`).
        self._models: Dict[str, np.ndarray] = {}
        self._study_days: Optional[DayContext] = None
        #: Resolved AS pools shared by this vantage's flow samplers.
        self._pools: Dict[object, object] = {}

    # -- intensity model -------------------------------------------------------

    def profile_names(self) -> List[str]:
        """Names of the profiles in this vantage's mix, sorted."""
        return sorted(self.mix)

    def _noise_for(self, profile_name: str) -> np.ndarray:
        """Multiplicative noise over the full study period.

        Combines hour-level jitter with slower day-level jitter so the
        same calendar hour gets the same noise regardless of the query
        range.
        """
        rng = np.random.default_rng(
            _stable_hash(self.seed, self.name, profile_name)
        )
        hour_noise = rng.lognormal(
            0.0, self._hour_noise_sigma, timebase.STUDY_HOURS
        )
        day_noise = rng.lognormal(
            0.0, self._day_noise_sigma, timebase.STUDY_DAYS
        )
        return hour_noise * np.repeat(day_noise, 24)

    def _use(self, profile_name: str) -> ProfileUse:
        use = self.mix.get(profile_name)
        if use is None:
            raise KeyError(
                f"profile {profile_name!r} not in vantage {self.name}"
            )
        return use

    def _study_context(self) -> DayContext:
        """The intensity model's per-day inputs over the study period."""
        days = self._study_days
        if days is None:
            dates = list(timebase.iter_days())
            world = self.world
            if world is None:
                weekend_of = timebase.behaves_like_weekend
                attenuation = None
            else:
                weekend_of = world.behaves_like_weekend
                attenuation = [
                    world.wfh_attenuation(d, self.name) for d in dates
                ]
            weekend = [weekend_of(d, self.region) for d in dates]
            days = DayContext.build(dates, self.timeline, weekend, attenuation)
            self._study_days = days
        return days

    def _evaluate(self, profile_name: str) -> np.ndarray:
        """Hourly volumes of one profile over the study period, noise
        applied."""
        use = self._use(profile_name)
        profile = use.profile
        days = self._study_context()
        mult = profile.multipliers(days)
        world = self.world
        if world is not None and world.has_volume_events:
            # Scenario events modulate the phase response.
            mult = mult * np.array([
                world.volume_modifier(day, self.name, profile_name)
                for day in days.days
            ])
        if days.attenuation is not None:
            # Exact identity where nothing is attenuated, so the
            # default world stays bit-identical.
            att = days.attenuation
            mult = np.where(att > 0.0, 1.0 + (mult - 1.0) * (1.0 - att), mult)
        daily = self.base_daily_volume * use.share * mult
        values = (daily / 24.0)[:, None] * profile.day_shapes(days)
        return values.reshape(-1) * self._noise_for(profile_name)

    def _model(self, profile_name: str) -> np.ndarray:
        """One profile's study-period volumes, evaluated once (read-only).

        Every operation of the model is elementwise per day, so a slice
        of this array equals the model evaluated over the slice's range.
        Threads that race on a first evaluation keep the first stored
        array.
        """
        volumes = self._models.get(profile_name)
        if volumes is None:
            volumes = self._evaluate(profile_name)
            volumes.flags.writeable = False
            obs.get_registry().counter("vantage.profile-evaluations").inc()
            volumes = self._models.setdefault(profile_name, volumes)
        return volumes

    def _hour_span(
        self, start_day: _dt.date, end_day: _dt.date
    ) -> Tuple[int, int]:
        """The half-open hour range of ``start_day..end_day`` (inclusive),
        which must lie inside the study period."""
        if end_day < start_day:
            raise ValueError("end_day precedes start_day")
        if start_day < timebase.STUDY_START or end_day > timebase.STUDY_END:
            raise ValueError(
                f"range {start_day}..{end_day} is outside the study "
                f"period {timebase.STUDY_START}..{timebase.STUDY_END}"
            )
        return (
            timebase.hour_index(start_day, 0),
            timebase.hour_index(end_day, 0) + 24,
        )

    def profile_volumes(
        self,
        profile_name: str,
        start_day: _dt.date,
        end_day: _dt.date,
    ) -> HourlySeries:
        """Hourly volume (model units) of one profile over a date range.

        ``end_day`` is inclusive and the range must lie inside the
        study period (``ValueError`` otherwise).  One model unit
        corresponds to :data:`repro.synth.flowgen.BYTES_PER_UNIT` bytes
        in sampled flows.  The values are a writable copy.
        """
        self._use(profile_name)
        start, stop = self._hour_span(start_day, end_day)
        return HourlySeries(
            start, self._model(profile_name)[start:stop].copy()
        )

    def hourly_traffic(
        self,
        start_day: _dt.date,
        end_day: _dt.date,
        profiles: Optional[Iterable[str]] = None,
    ) -> HourlySeries:
        """Total hourly volume over a date range (inclusive).

        ``profiles`` restricts to a subset of the mix (default: all);
        the profiles are summed in name order.
        """
        names = sorted(profiles) if profiles is not None else self.profile_names()
        if not names:
            raise ValueError("profiles selection is empty")
        obs.get_registry().counter("vantage.hourly-queries").inc()
        start, stop = self._hour_span(start_day, end_day)
        total = self._model(names[0])[start:stop].copy()
        for name in names[1:]:
            total += self._model(name)[start:stop]
        return HourlySeries(start, total)

    # -- flow sampling -----------------------------------------------------------

    def _sampler(self, stream: int) -> FlowSampler:
        return FlowSampler(
            registry=self._registry,
            prefix_map=self._prefix_map,
            local_eyeball_asns=self._local_eyeballs,
            seed=_stable_hash(self.seed, self.name, "flows", stream),
            vpn_gateway_ips=self._vpn_gateway_ips,
            edu_internal_asns=self._edu_internal,
            pools=self._pools,
        )

    def generate_flows(
        self,
        start_day: _dt.date,
        end_day: _dt.date,
        fidelity: float = 1.0,
        profiles: Optional[Iterable[str]] = None,
    ) -> FlowTable:
        """Sample a flow table over a date range (inclusive).

        Per-hour byte totals match :meth:`hourly_traffic` up to
        integer rounding.  Repeated calls with identical arguments
        return identical tables.
        """
        names = sorted(profiles) if profiles is not None else self.profile_names()
        stream = _stable_hash(
            start_day.toordinal(), end_day.toordinal(), fidelity, *names
        )
        sampler = self._sampler(stream)
        with obs.span(f"vantage/{self.name}/generate-flows") as span:
            start, stop = self._hour_span(start_day, end_day)
            tables = []
            for name in names:
                volumes = HourlySeries(
                    start, self._model(name)[start:stop].copy()
                )
                tables.append(
                    sampler.sample_profile(
                        self.mix[name].profile, volumes, fidelity
                    )
                )
            table = FlowTable.concat(tables).sort_by_hour()
            if obs.enabled():
                span.set_metric("flows", len(table))
                span.set_metric("profiles", len(names))
                span.set_metric("days", (end_day - start_day).days + 1)
                span.set_metric("fidelity", fidelity)
                obs.get_registry().counter(
                    "vantage.flows-generated"
                ).inc(len(table))
        return table

    def generate_week_flows(
        self,
        week: timebase.Week,
        fidelity: float = 1.0,
        profiles: Optional[Iterable[str]] = None,
    ) -> FlowTable:
        """Flows for one named analysis week."""
        return self.generate_flows(week.start, week.end, fidelity, profiles)
