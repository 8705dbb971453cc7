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
from typing import Dict, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.flows.record import PROTO_ESP, PROTO_GRE, PROTO_ICMP
from repro.flows.table import FlowTable
from repro.netbase.asdb import ASCategory, ASRegistry
from repro.netbase.prefixes import PrefixMap, random_addresses_in
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


@dataclass(frozen=True)
class _PoolSpec:
    """Resolved AS pool: who sends/receives and how addresses are drawn."""

    kind: str  # "client" | "server" | "gateway"
    asns: Tuple[int, ...]
    weights: Tuple[float, ...]
    # gateway pools carry explicit addresses instead
    addresses: Tuple[int, ...] = ()


class FlowSampler:
    """Samples flow tables for application profiles.

    One sampler per vantage point; it owns the resolved AS pools and a
    deterministic RNG stream.
    """

    def __init__(
        self,
        registry: ASRegistry,
        prefix_map: PrefixMap,
        local_eyeball_asns: Sequence[int],
        seed: int,
        vpn_gateway_ips: Sequence[int] = (),
        edu_internal_asns: Sequence[int] = (),
    ):
        if not local_eyeball_asns:
            raise ValueError("a vantage needs at least one local eyeball AS")
        self._registry = registry
        self._prefix_map = prefix_map
        self._local_eyeballs = tuple(local_eyeball_asns)
        self._vpn_gateway_ips = tuple(vpn_gateway_ips)
        self._edu_internal = tuple(edu_internal_asns)
        self._rng = np.random.default_rng(seed)
        self._pool_cache: Dict[object, _PoolSpec] = {}

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
            spec = _PoolSpec(
                "client",
                self._local_eyeballs,
                tuple(1.0 for _ in self._local_eyeballs),
            )
        elif pool == POOL_VPN_GATEWAYS:
            if not self._vpn_gateway_ips:
                raise ValueError(
                    "vantage has no VPN gateway addresses configured"
                )
            spec = _PoolSpec("gateway", (), (), self._vpn_gateway_ips)
        elif pool == POOL_EDU_INTERNAL:
            if not self._edu_internal:
                raise ValueError("vantage has no EDU-internal ASes")
            spec = _PoolSpec(
                "server",
                self._edu_internal,
                tuple(1.0 for _ in self._edu_internal),
            )
        elif pool == POOL_EDU_CLIENTS:
            if not self._edu_internal:
                raise ValueError("vantage has no EDU-internal ASes")
            spec = _PoolSpec(
                "client",
                self._edu_internal,
                tuple(1.0 for _ in self._edu_internal),
            )
        elif pool == POOL_ANY:
            asns = tuple(self._registry.all_asns())
            spec = _PoolSpec("server", asns, tuple(1.0 for _ in asns))
        elif isinstance(pool, ASCategory):
            asns, weights = self._category_asns(pool)
            kind = "client" if pool in (
                ASCategory.EYEBALL, ASCategory.MOBILE) else "server"
            spec = _PoolSpec(kind, asns, weights)
        else:
            asns = tuple(int(a) for a in pool)
            if not asns:
                raise ValueError("explicit AS pool is empty")
            weights = tuple(
                self._registry.get(a).weight if self._registry.get(a) else 1.0
                for a in asns
            )
            spec = _PoolSpec("server", asns, weights)
        self._pool_cache[key] = spec
        return spec

    def _server_pool_for(self, asn: int) -> np.ndarray:
        info = self._registry.get(asn)
        weight = info.weight if info else 1.0
        return self._prefix_map.server_pool(asn, 4 + int(weight * 4))

    # -- address drawing ------------------------------------------------------

    def _draw_asns(self, spec: _PoolSpec, count: int) -> np.ndarray:
        weights = np.asarray(spec.weights, dtype=np.float64)
        probs = weights / weights.sum()
        idx = self._rng.choice(len(spec.asns), size=count, p=probs)
        return np.asarray(spec.asns, dtype=np.int64)[idx]

    def _draw_addresses(
        self, spec: _PoolSpec, asns: np.ndarray, count: int
    ) -> np.ndarray:
        if spec.kind == "gateway":
            addresses = np.asarray(spec.addresses, dtype=np.uint32)
            idx = self._rng.integers(0, len(addresses), size=count)
            return addresses[idx]
        result = np.empty(count, dtype=np.uint32)
        if count == 0:
            return result
        # One argsort groups the rows by AS; each AS's rows are then a
        # contiguous segment of ``order``, replacing the per-AS
        # full-length boolean masks (O(ASes × rows)) with a single
        # grouped pass.  Segments ascend by ASN, exactly like the
        # ``np.unique`` iteration this replaces, so the RNG stream —
        # and therefore every generated table — is unchanged.
        order = np.argsort(asns, kind="stable")
        sorted_asns = asns[order]
        boundaries = np.flatnonzero(sorted_asns[1:] != sorted_asns[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [count]))
        for start, stop in zip(starts, stops):
            asn = int(sorted_asns[start])
            rows = order[start:stop]
            n = stop - start
            if spec.kind == "client":
                prefixes = self._prefix_map.prefixes_of(asn)
                result[rows] = random_addresses_in(prefixes, n, self._rng)
            else:
                pool = self._server_pool_for(asn)
                result[rows] = pool[self._rng.integers(0, len(pool), size=n)]
        return result

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
        src_asns = (
            np.zeros(total, dtype=np.int64)
            if src_spec.kind == "gateway"
            else self._draw_asns(src_spec, total)
        )
        dst_asns = (
            np.zeros(total, dtype=np.int64)
            if dst_spec.kind == "gateway"
            else self._draw_asns(dst_spec, total)
        )
        src_ips = self._draw_addresses(src_spec, src_asns, total)
        dst_ips = self._draw_addresses(dst_spec, dst_asns, total)
        if src_spec.kind == "gateway":
            src_asns = self._prefix_map.asn_for_many(src_ips).astype(np.int64)
        if dst_spec.kind == "gateway":
            dst_asns = self._prefix_map.asn_for_many(dst_ips).astype(np.int64)

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
