"""Per-AS enterprise traffic at the ISP, including transit (Fig 6).

§3.4 uses the ISP-CE dataset *including transit* to compute, per AS,
the received/transmitted volume and the share exchanged with manually
selected eyeball networks.  Fig 6 then scatters each AS's normalized
volume shift (February vs. March) against its residential-volume shift.

Each enterprise AS gets a persistent behavior type:

* ``remote-work`` — companies that enabled working from home: traffic
  to/from eyeball networks grows, total grows (the diagonal cloud),
* ``transit`` — ASes with (almost) no residential traffic: total shifts
  either way, residential stays ~0 (the x-axis band),
* ``declining-remote`` — businesses whose overall demand falls while
  their residential traffic grows (the paper's top-left quadrant:
  services less popular during lockdown, or no Internet-"internal"
  traffic),
* ``declining`` — businesses that simply wound down.

Flows are emitted as per-(AS, hour, peer-kind) summaries — one record
per aggregation bucket, which is what NetFlow effectively provides once
aggregated for this analysis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import timebase
from repro.flows.record import PROTO_TCP
from repro.flows.table import FlowTable
from repro.netbase.asdb import ASCategory, ASRegistry
from repro.netbase.prefixes import PrefixMap
from repro.synth import diurnal
from repro.synth.flowgen import BYTES_PER_UNIT, EPHEMERAL_START

#: Behavior type shares (must sum to 1).
BEHAVIOR_SHARES: Tuple[Tuple[str, float], ...] = (
    ("remote-work", 0.55),
    ("transit", 0.15),
    ("declining-remote", 0.12),
    ("declining", 0.18),
)


@dataclass(frozen=True)
class EnterpriseBehavior:
    """Persistent traffic behavior of one enterprise AS."""

    asn: int
    kind: str
    base_total: float  # pre-pandemic daily volume, model units
    residential_share: float  # share exchanged with eyeball networks
    lockdown_res_mult: float  # lockdown multiplier on residential part
    lockdown_other_mult: float  # lockdown multiplier on the rest


def _rng_for(seed: int, asn: int) -> np.random.Generator:
    digest = hashlib.blake2b(
        f"remotework|{seed}|{asn}".encode(), digest_size=8
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def assign_behaviors(
    registry: ASRegistry, seed: int
) -> Dict[int, EnterpriseBehavior]:
    """Deterministically assign a behavior to every enterprise AS."""
    behaviors: Dict[int, EnterpriseBehavior] = {}
    kinds = [k for k, _ in BEHAVIOR_SHARES]
    probs = np.array([s for _, s in BEHAVIOR_SHARES])
    for info in registry.by_category(ASCategory.ENTERPRISE):
        rng = _rng_for(seed, info.asn)
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        base_total = float(rng.lognormal(0.0, 0.8)) * info.weight
        if kind == "remote-work":
            res_share = float(rng.uniform(0.3, 0.8))
            res_mult = float(rng.uniform(1.3, 2.3))
            other_mult = float(rng.uniform(1.0, 1.35))
        elif kind == "transit":
            res_share = float(rng.uniform(0.0, 0.03))
            res_mult = 1.0
            other_mult = float(rng.uniform(0.65, 1.40))
        elif kind == "declining-remote":
            res_share = float(rng.uniform(0.15, 0.45))
            res_mult = float(rng.uniform(1.15, 1.7))
            other_mult = float(rng.uniform(0.35, 0.65))
        else:  # declining
            res_share = float(rng.uniform(0.1, 0.5))
            res_mult = float(rng.uniform(0.5, 0.85))
            other_mult = float(rng.uniform(0.45, 0.8))
        behaviors[info.asn] = EnterpriseBehavior(
            asn=info.asn,
            kind=kind,
            base_total=base_total,
            residential_share=res_share,
            lockdown_res_mult=res_mult,
            lockdown_other_mult=other_mult,
        )
    return behaviors


def generate_enterprise_flows(
    registry: ASRegistry,
    prefix_map: PrefixMap,
    behaviors: Dict[int, EnterpriseBehavior],
    eyeball_asns: Sequence[int],
    week: timebase.Week,
    lockdown_active: bool,
    seed: int,
    intensity: float = 1.0,
) -> FlowTable:
    """Per-AS aggregated flow summaries for one analysis week.

    Emits, for every enterprise AS and hour, one record toward the
    eyeball group (residential) and one toward a non-eyeball peer
    (transit/other), with the behavior's multipliers applied when
    ``lockdown_active``.

    ``intensity`` scales how much of the lockdown response is in effect
    (1.0 = full response; scenario WFH-reversal events pass lower
    values as enterprises return to the office).
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0, 1]")
    if not eyeball_asns:
        raise ValueError("eyeball AS list must be non-empty")
    days = week.days()
    weekend = np.array([timebase.is_weekend(day) for day in days])
    # Per-day level before noise, (7, 24): the diurnal shape over 24
    # hours, damped on weekends.
    day_level = np.where(
        weekend[:, None],
        diurnal.get_shape("flat") / 24.0 * 0.45,
        diurnal.get_shape("business") / 24.0,
    )
    base_hours = np.array([timebase.hour_index(day, 0) for day in days])
    hosting = registry.asns_by_category(ASCategory.HOSTING)
    asns = sorted(behaviors)
    # Per-AS endpoints and daily volumes, (n_as, 2) with the
    # residential peer first, plus one lognormal day-noise per day.
    own_ips = np.empty(len(asns), dtype=np.int64)
    peer_asns = np.empty((len(asns), 2), dtype=np.int64)
    peer_ips = np.empty((len(asns), 2), dtype=np.int64)
    daily = np.empty((len(asns), 2), dtype=np.float64)
    day_noise = np.empty((len(asns), len(days)), dtype=np.float64)
    for i, asn in enumerate(asns):
        behavior = behaviors[asn]
        rng = _rng_for(seed + 1, asn)
        own_ips[i] = prefix_map.server_pool(asn, 1)[0]
        eyeball = int(eyeball_asns[asn % len(eyeball_asns)])
        peer = int(hosting[asn % len(hosting)]) if hosting else eyeball
        peer_asns[i] = (eyeball, peer)
        for k, other in enumerate((eyeball, peer)):
            peer_ips[i, k] = prefix_map.addresses_in(other, 1, salt=asn)[0]
        res_mult = behavior.lockdown_res_mult if lockdown_active else 1.0
        other_mult = behavior.lockdown_other_mult if lockdown_active else 1.0
        if lockdown_active and intensity != 1.0:
            # Partial response: interpolate the excess over pre-pandemic.
            res_mult = 1.0 + (res_mult - 1.0) * intensity
            other_mult = 1.0 + (other_mult - 1.0) * intensity
        daily[i, 0] = (
            behavior.base_total * behavior.residential_share * res_mult
        )
        daily[i, 1] = (
            behavior.base_total * (1.0 - behavior.residential_share)
            * other_mult
        )
        day_noise[i] = rng.lognormal(0.0, 0.08, len(days))
    # Rows in (AS, day, hour, peer) order; np.rint rounds half to even
    # like round().
    level = day_level[None, :, :] * day_noise[:, :, None]
    volume = daily[:, None, None, :] * level[:, :, :, None]
    n_bytes = np.rint(volume * BYTES_PER_UNIT).astype(np.int64)
    shape = n_bytes.shape
    keep = (n_bytes > 0).reshape(-1)
    hours = base_hours[:, None] + np.arange(24)

    def column(values: np.ndarray) -> np.ndarray:
        return np.broadcast_to(values, shape).reshape(-1)[keep]

    n_bytes = n_bytes.reshape(-1)[keep]
    n_rows = len(n_bytes)
    return FlowTable.from_arrays(
        hour=column(hours[None, :, :, None]),
        src_ip=column(own_ips[:, None, None, None]),
        dst_ip=column(peer_ips[:, None, None, :]),
        src_asn=column(np.asarray(asns)[:, None, None, None]),
        dst_asn=column(peer_asns[:, None, None, :]),
        proto=np.full(n_rows, PROTO_TCP),
        src_port=np.full(n_rows, 443),
        dst_port=np.full(n_rows, EPHEMERAL_START),
        n_bytes=n_bytes,
        n_packets=np.maximum(1, n_bytes // 900),
        connections=np.ones(n_rows, dtype=np.int64),
    )
