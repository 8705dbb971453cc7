"""Sampling flow tables from hourly traffic intensities.

Given a profile's per-hour volume model, the sampler emits NetFlow-like
records whose byte counters sum (per hour) to the modeled volume, with
addresses, ASes, and ports drawn from the profile's flow templates.

Conventions:

* The record's *byte direction* follows the template: ``src`` is the
  sending side (content servers for downloads, clients for uploads).
* The well-known **service port** sits on the server side of the flow;
  the other side uses an ephemeral port from 49152-65535.  Analyses
  recover the service port with the same boundary (see
  :meth:`repro.flows.table.FlowTable.bytes_by_transport_key`).
* Client addresses are drawn uniformly from the client AS's prefixes,
  so distinct-IP counts grow with flow counts (the Fig 8 proxy for
  "order of households").  Server addresses come from a small stable
  per-AS pool, so DNS resolutions and prefix checks line up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.flows.record import PROTO_ESP, PROTO_GRE, PROTO_ICMP
from repro.flows.table import FlowTable
from repro.netbase.asdb import ASCategory, ASRegistry
from repro.netbase.prefixes import PrefixMap
from repro.series import HourlySeries
from repro.synth.profiles import (
    AppProfile,
    FlowTemplate,
    POOL_ANY,
    POOL_EDU_CLIENTS,
    POOL_EDU_INTERNAL,
    POOL_EYEBALL_LOCAL,
    POOL_VPN_GATEWAYS,
)

#: First ephemeral (client-side) port.
EPHEMERAL_START = 49152

#: Port marker in a :class:`FlowTemplate` requesting a random ephemeral
#: port on the service side as well (P2P-like traffic).
EPHEMERAL_PORT = -1

#: Bytes represented by one model volume unit (1 model unit = 1 MB).
BYTES_PER_UNIT = 1_000_000

#: Approximate bytes per packet used to derive packet counters.
_BYTES_PER_PACKET = 900.0


@dataclass(frozen=True, eq=False)
class _PoolSpec:
    """Resolved AS pool: who sends/receives and how addresses are drawn.

    Built once per pool.  The AS draw picks members (``asns`` entries)
    by their cumulative probabilities ``cdf``.  The address table holds,
    per distinct pool ASN in ascending order (``table_asns``), a slice
    ``values[offsets[g]:offsets[g] + bounds[g]]``: a client AS's prefix
    bases (``high16 << 16``), or a server AS's stable address pool.  A
    bound of 0 marks an AS without prefixes.  ``groups`` maps each
    member to its table slot, in the smallest unsigned dtype so that a
    stable argsort of it is a radix sort.  Gateway pools draw from
    ``values`` directly.
    """

    kind: str  # "client" | "server" | "gateway"
    asns: np.ndarray
    cdf: np.ndarray
    groups: np.ndarray
    table_asns: np.ndarray
    offsets: np.ndarray
    bounds: np.ndarray
    values: np.ndarray


class FlowSampler:
    """Samples flow tables for application profiles.

    One sampler per vantage point and stream; it owns a deterministic
    RNG stream.  Resolved AS pools depend only on the constructor's
    registry, prefix map and AS lists, so samplers of one vantage pass
    the same ``pools`` dict to share them.
    """

    def __init__(
        self,
        registry: ASRegistry,
        prefix_map: PrefixMap,
        local_eyeball_asns: Sequence[int],
        seed: int,
        vpn_gateway_ips: Sequence[int] = (),
        edu_internal_asns: Sequence[int] = (),
        pools: Optional[Dict[object, _PoolSpec]] = None,
    ):
        if not local_eyeball_asns:
            raise ValueError("a vantage needs at least one local eyeball AS")
        self._registry = registry
        self._prefix_map = prefix_map
        self._local_eyeballs = tuple(local_eyeball_asns)
        self._vpn_gateway_ips = tuple(vpn_gateway_ips)
        self._edu_internal = tuple(edu_internal_asns)
        self._rng = np.random.default_rng(seed)
        self._pool_cache = {} if pools is None else pools

    # -- pool resolution ------------------------------------------------------

    def _category_asns(self, category: ASCategory) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        infos = self._registry.by_category(category)
        if not infos:
            raise ValueError(f"no ASes registered in category {category}")
        return (
            tuple(a.asn for a in infos),
            tuple(a.weight for a in infos),
        )

    def _resolve_pool(self, pool: Union[ASCategory, Sequence[int], str]) -> _PoolSpec:
        key = pool if isinstance(pool, (ASCategory, str)) else tuple(pool)
        cached = self._pool_cache.get(key)
        if cached is not None:
            return cached
        if pool == POOL_EYEBALL_LOCAL:
            spec = self._build_pool("client", self._local_eyeballs)
        elif pool == POOL_VPN_GATEWAYS:
            if not self._vpn_gateway_ips:
                raise ValueError(
                    "vantage has no VPN gateway addresses configured"
                )
            spec = self._build_pool(
                "gateway", (), addresses=self._vpn_gateway_ips)
        elif pool in (POOL_EDU_INTERNAL, POOL_EDU_CLIENTS):
            if not self._edu_internal:
                raise ValueError("vantage has no EDU-internal ASes")
            kind = "server" if pool == POOL_EDU_INTERNAL else "client"
            spec = self._build_pool(kind, self._edu_internal)
        elif pool == POOL_ANY:
            spec = self._build_pool("server", self._registry.all_asns())
        elif isinstance(pool, ASCategory):
            asns, weights = self._category_asns(pool)
            kind = "client" if pool in (
                ASCategory.EYEBALL, ASCategory.MOBILE) else "server"
            spec = self._build_pool(kind, asns, weights)
        else:
            asns = tuple(int(a) for a in pool)
            if not asns:
                raise ValueError("explicit AS pool is empty")
            weights = tuple(
                self._registry.get(a).weight if self._registry.get(a) else 1.0
                for a in asns
            )
            spec = self._build_pool("server", asns, weights)
        self._pool_cache[key] = spec
        return spec

    def _build_pool(
        self,
        kind: str,
        asns: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        addresses: Sequence[int] = (),
    ) -> _PoolSpec:
        """Resolve one pool; ``weights`` default to equal."""
        asns = np.asarray(asns, dtype=np.int64)
        table_asns = np.unique(asns)
        slices = [self._address_slice(kind, int(asn)) for asn in table_asns]
        bounds = np.array([len(s) for s in slices], dtype=np.int64)
        weights = (np.ones(len(asns)) if weights is None
                   else np.asarray(weights, dtype=np.float64))
        # The CDF ``Generator.choice(p=weights / weights.sum())`` builds.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1:]
        return _PoolSpec(
            kind=kind,
            asns=asns,
            cdf=cdf,
            groups=np.searchsorted(table_asns, asns).astype(
                np.min_scalar_type(len(table_asns))),
            table_asns=table_asns,
            offsets=np.cumsum(bounds) - bounds,
            bounds=bounds,
            values=np.concatenate(
                [np.asarray(addresses, dtype=np.uint32), *slices]),
        )

    def _address_slice(self, kind: str, asn: int) -> np.ndarray:
        """One AS's address-table slice (empty if it has no prefixes)."""
        prefixes = self._prefix_map.prefixes_of(asn)
        if not prefixes:
            return np.zeros(0, dtype=np.uint32)
        if kind == "client":
            highs = np.array([p.high16 for p in prefixes], dtype=np.uint32)
            return highs << np.uint32(16)
        info = self._registry.get(asn)
        weight = info.weight if info else 1.0
        return self._prefix_map.server_pool(asn, 4 + int(weight * 4))

    # -- address drawing ------------------------------------------------------

    def _draw_members(self, spec: _PoolSpec, count: int) -> np.ndarray:
        """Indices into ``spec.asns`` of ``count`` weighted AS draws.

        Gateway pools have no members and draw nothing here.
        """
        if spec.kind == "gateway":
            return np.zeros(count, dtype=np.intp)
        # What ``choice(len(asns), count, p=probs)`` draws, without
        # re-validating ``probs`` and rebuilding the CDF on every call.
        return spec.cdf.searchsorted(self._rng.random(count), side="right")

    def _draw_addresses(
        self, spec: _PoolSpec, members: np.ndarray
    ) -> np.ndarray:
        """One address per drawn member (``_draw_members``'s indices)."""
        count = len(members)
        if spec.kind == "gateway":
            idx = self._rng.integers(0, len(spec.values), size=count)
            return spec.values[idx]
        # One bounded-integer call draws what a per-AS loop drew: for
        # each AS in ascending ASN order, a client AS's n prefix picks
        # in [0, k) and then n hosts in [1, 0xFFFF), a server AS's n
        # picks in [0, pool size).  numpy draws every bound that fits
        # in 32 bits with ``next_uint32`` plus Lemire rejection, for
        # scalar and array bounds alike (a bound of 1 draws nothing),
        # so the values and the generator state match draw for draw.
        group = spec.groups[members]
        order = np.argsort(group, kind="stable")
        group = group[order]
        sizes = np.bincount(group, minlength=len(spec.table_asns))
        missing = (sizes > 0) & (spec.bounds == 0)
        if missing.any():
            raise ValueError(
                f"AS {int(spec.table_asns[missing][0])} has no "
                "allocated prefixes"
            )
        bound = spec.bounds[group]
        base = spec.offsets[group]
        result = np.empty(count, dtype=np.uint32)
        if spec.kind == "server":
            result[order] = spec.values[base + self._rng.integers(0, bound)]
            return result
        # Sorted row i of an AS whose rows start at s and number n has
        # its prefix pick at s + i and its host at s + n + i.
        pick_at = (np.cumsum(sizes) - sizes)[group] + np.arange(count)
        host_at = pick_at + sizes[group]
        low = np.zeros(2 * count, dtype=np.int64)
        high = np.empty(2 * count, dtype=np.int64)
        high[pick_at] = bound
        low[host_at] = 1
        high[host_at] = 0xFFFF
        draws = self._rng.integers(low, high)
        result[order] = (spec.values[base + draws[pick_at]]
                         | draws[host_at].astype(np.uint32))
        return result

    def _asns_of(self, spec: _PoolSpec, members: np.ndarray,
                 addresses: np.ndarray) -> np.ndarray:
        """The ASN behind each drawn address."""
        if spec.kind == "gateway":
            return self._prefix_map.asn_for_many(addresses).astype(np.int64)
        return spec.asns[members]

    # -- sampling ---------------------------------------------------------------

    def sample_profile(
        self,
        profile: AppProfile,
        volumes: HourlySeries,
        fidelity: float = 1.0,
    ) -> FlowTable:
        """Sample flows for one profile over an hourly volume series.

        ``fidelity`` scales flow *counts* (not bytes): higher fidelity
        means the same volume split over more, smaller flows — use it to
        trade generation cost for statistical resolution.
        """
        if fidelity <= 0:
            raise ValueError("fidelity must be positive")
        with obs.span(f"flowgen/{profile.name}") as span:
            tables = [
                self._sample_template(template, profile, volumes, fidelity)
                for template in profile.templates
            ]
            table = FlowTable.concat(tables)
            if obs.enabled():
                registry = obs.get_registry()
                registry.counter("flowgen.flows").inc(len(table))
                registry.counter("flowgen.bytes").inc(table.total_bytes())
                span.set_metric("flows", len(table))
                span.set_metric("templates", len(profile.templates))
                span.set_metric("fidelity", fidelity)
        return table

    def _sample_template(
        self,
        template: FlowTemplate,
        profile: AppProfile,
        volumes: HourlySeries,
        fidelity: float,
    ) -> FlowTable:
        total_weight = sum(t.weight for t in profile.templates)
        share = template.weight / total_weight
        hourly = volumes.values * share
        n_hours = hourly.shape[0]
        # Flow counts per hour: volume / mean flow size, at least one
        # flow for any hour with volume.
        raw = fidelity * hourly * BYTES_PER_UNIT / (
            template.mean_flow_kbytes * 1000.0
        )
        counts = np.maximum((hourly > 0).astype(np.int64), np.round(raw).astype(np.int64))
        total = int(counts.sum())
        if total == 0:
            return FlowTable.empty()
        rel_hours = np.repeat(np.arange(n_hours), counts)
        # Lognormal flow-size weights, normalized per hour so bytes sum
        # to the modeled volume.
        weights = self._rng.lognormal(mean=0.0, sigma=1.0, size=total)
        hour_sums = np.bincount(rel_hours, weights=weights, minlength=n_hours)
        per_flow_volume = (
            weights / hour_sums[rel_hours] * hourly[rel_hours]
        )
        n_bytes = np.maximum(
            1, np.round(per_flow_volume * BYTES_PER_UNIT)
        ).astype(np.int64)
        n_packets = np.maximum(
            1, np.round(n_bytes / _BYTES_PER_PACKET)
        ).astype(np.int64)

        src_spec = self._resolve_pool(template.src_pool)
        dst_spec = self._resolve_pool(template.dst_pool)
        src_members = self._draw_members(src_spec, total)
        dst_members = self._draw_members(dst_spec, total)
        src_ips = self._draw_addresses(src_spec, src_members)
        dst_ips = self._draw_addresses(dst_spec, dst_members)
        src_asns = self._asns_of(src_spec, src_members, src_ips)
        dst_asns = self._asns_of(dst_spec, dst_members, dst_ips)

        ports = np.asarray([p for p, _ in template.dst_ports], dtype=np.int32)
        port_weights = np.asarray(
            [w for _, w in template.dst_ports], dtype=np.float64
        )
        port_probs = port_weights / port_weights.sum()
        service_ports = ports[
            self._rng.choice(len(ports), size=total, p=port_probs)
        ]
        # The EPHEMERAL_PORT marker (-1) asks for a random high port on
        # the service side too — P2P-like traffic with no well-known
        # port on either end (the EDU network's unknown-direction share).
        # Whether any row can carry the marker is a property of the
        # template's port list, so the common no-marker case skips both
        # the full-length scan and the full-size ephemeral re-draw.
        has_marker = bool((ports < 0).any())
        if has_marker:
            service_ports = np.where(
                service_ports < 0,
                self._rng.integers(
                    EPHEMERAL_START, 65536, size=total, dtype=np.int32
                ),
                service_ports,
            ).astype(np.int32)
        ephemeral = self._rng.integers(
            EPHEMERAL_START, 65536, size=total, dtype=np.int32
        )
        if template.proto in (PROTO_GRE, PROTO_ESP, PROTO_ICMP):
            src_ports = np.zeros(total, dtype=np.int32)
            dst_ports = np.zeros(total, dtype=np.int32)
        elif dst_spec.kind in ("server", "gateway"):
            # Byte flow toward the server: service port on the dst side.
            src_ports = ephemeral
            dst_ports = service_ports
        else:
            # Byte flow from the server toward clients.
            src_ports = service_ports
            dst_ports = ephemeral

        if obs.enabled():
            # RNG accounting: one lognormal weight, one service-port
            # and one ephemeral-port draw per flow, plus AS + address
            # draws per side (gateway pools draw addresses only).
            draws = total * 3
            draws += total * (1 if src_spec.kind == "gateway" else 2)
            draws += total * (1 if dst_spec.kind == "gateway" else 2)
            if has_marker:
                draws += total
            obs.get_registry().counter("flowgen.rng-draws").inc(draws)

        return FlowTable.from_arrays(
            hour=volumes.start_hour + rel_hours,
            src_ip=src_ips,
            dst_ip=dst_ips,
            src_asn=src_asns,
            dst_asn=dst_asns,
            proto=np.full(total, template.proto, dtype=np.int16),
            src_port=src_ports,
            dst_port=dst_ports,
            n_bytes=n_bytes,
            n_packets=n_packets,
            connections=np.ones(total, dtype=np.int64),
        )
