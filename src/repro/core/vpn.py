"""VPN traffic classification (§6, Fig 10).

Two classifiers:

* **Port-based** — flows on the well-known VPN ports (IPsec 500/4500,
  OpenVPN 1194, L2TP 1701, PPTP 1723, on both TCP and UDP).
* **Domain-based** — TCP/443 flows to addresses of ``*vpn*`` domains
  mined from the domain corpus, after eliminating candidates whose
  addresses match their zone's ``www`` host (shared-IP web servers).

The paper's finding: the port-based view barely moves, the domain-based
view grows by more than 200% during working hours — port-based VPN
identification vastly undercounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Sequence, Set, Tuple

import numpy as np

from repro import timebase
from repro.dns.corpus import DNSCorpus
from repro.dns.names import has_vpn_label, www_variant
from repro.flows.record import PROTO_TCP, PROTO_UDP
from repro.flows.table import FlowTable

#: §6's well-known VPN ports.
VPN_PORTS: FrozenSet[int] = frozenset({500, 1194, 1701, 1723, 4500})


def port_based_mask(flows: FlowTable) -> np.ndarray:
    """Flows classified as VPN by well-known port (TCP and UDP)."""
    ports = flows.service_ports()
    protos = flows.column("proto")
    on_port = np.isin(ports, np.asarray(sorted(VPN_PORTS)))
    transport = np.isin(protos, (PROTO_TCP, PROTO_UDP))
    return on_port & transport


@dataclass(frozen=True)
class VPNCandidates:
    """Result of the domain-mining step."""

    candidate_domains: Tuple[str, ...]
    candidate_ips: FrozenSet[int]
    eliminated_shared: FrozenSet[int]  # dropped by the www check

    @property
    def n_candidates(self) -> int:
        """Number of surviving candidate addresses."""
        return len(self.candidate_ips)


def mine_vpn_candidates(
    corpus: DNSCorpus, eliminate_www_shared: bool = True
) -> VPNCandidates:
    """§6 candidate mining over the domain corpus.

    1. collect domains with a ``*vpn*`` label left of the public suffix,
    2. resolve them to addresses,
    3. resolve each zone's ``www`` sibling and drop candidate addresses
       that match it (skippable via ``eliminate_www_shared`` for the
       ablation).
    """
    domains = [d for d in corpus.all_domains() if has_vpn_label(d)]
    candidate_ips: Set[int] = set()
    eliminated: Set[int] = set()
    for domain in domains:
        addresses = set(corpus.resolve(domain))
        if not addresses:
            continue
        if eliminate_www_shared:
            www_addresses = set(corpus.resolve(www_variant(domain)))
            shared = addresses & www_addresses
            eliminated |= shared
            addresses -= shared
        candidate_ips |= addresses
    return VPNCandidates(
        candidate_domains=tuple(domains),
        candidate_ips=frozenset(candidate_ips),
        eliminated_shared=frozenset(eliminated),
    )


def domain_based_mask(
    flows: FlowTable, candidates: VPNCandidates
) -> np.ndarray:
    """TCP/443 flows to/from a candidate VPN address."""
    if not candidates.candidate_ips:
        return np.zeros(len(flows), dtype=bool)
    wanted = np.asarray(sorted(candidates.candidate_ips), dtype=np.uint32)
    # Only the TCP/443 rows need the address test.
    rows = np.flatnonzero(
        (flows.service_ports() == 443) & (flows.column("proto") == PROTO_TCP)
    )
    mask = np.zeros(len(flows), dtype=bool)
    mask[rows] = np.isin(flows.column("src_ip")[rows], wanted) | np.isin(
        flows.column("dst_ip")[rows], wanted
    )
    return mask


@dataclass(frozen=True)
class VPNWeekPattern:
    """Fig 10's per-week data: hourly workday/weekend traffic for both
    identification methods, jointly normalized."""

    week_label: str
    port_workday: np.ndarray
    port_weekend: np.ndarray
    domain_workday: np.ndarray
    domain_weekend: np.ndarray


def _mean_profiles(
    hourly: np.ndarray,
    week: timebase.Week,
    region: timebase.Region,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean hourly bytes on the week's workdays and weekend days.

    ``hourly`` holds the week's 168 hourly byte counts.
    """
    days = hourly.astype(np.float64).reshape(7, 24)
    workdays, weekends = [], []
    for i, day in enumerate(week.days()):
        if timebase.behaves_like_weekend(day, region):
            weekends.append(days[i])
        else:
            workdays.append(days[i])
    workday = np.mean(workdays, axis=0) if workdays else np.zeros(24)
    weekend = np.mean(weekends, axis=0) if weekends else np.zeros(24)
    return workday, weekend


def vpn_week_patterns(
    tables: Sequence[FlowTable],
    weeks: Mapping[str, timebase.Week],
    region: timebase.Region,
    candidates: VPNCandidates,
) -> Dict[str, VPNWeekPattern]:
    """Fig 10: per-week hourly VPN traffic in ``tables``, both methods.

    Each table's port- and domain-based rows are summed over the weeks'
    span through its hour index, and the tables' int64 sums are added.
    All series are normalized by the joint maximum, preserving relative
    levels between methods and weeks.
    """
    ranges = [week.hour_range() for week in weeks.values()]
    lo = min(start for start, _ in ranges)
    hi = max(stop for _, stop in ranges)
    port_hours = np.zeros(hi - lo, dtype=np.int64)
    domain_hours = np.zeros(hi - lo, dtype=np.int64)
    for flows in tables:
        port_hours += flows.hourly_bytes(
            lo, hi, where=port_based_mask(flows)
        )
        domain_hours += flows.hourly_bytes(
            lo, hi, where=domain_based_mask(flows, candidates)
        )
    raw: Dict[str, Tuple[np.ndarray, ...]] = {}
    peak = 0.0
    for (label, week), (start, stop) in zip(weeks.items(), ranges):
        window = slice(start - lo, stop - lo)
        p_wd, p_we = _mean_profiles(port_hours[window], week, region)
        d_wd, d_we = _mean_profiles(domain_hours[window], week, region)
        raw[label] = (p_wd, p_we, d_wd, d_we)
        peak = max(
            peak, p_wd.max(), p_we.max(), d_wd.max(), d_we.max()
        )
    if peak <= 0:
        peak = 1.0
    return {
        label: VPNWeekPattern(
            week_label=label,
            port_workday=arrays[0] / peak,
            port_weekend=arrays[1] / peak,
            domain_workday=arrays[2] / peak,
            domain_weekend=arrays[3] / peak,
        )
        for label, arrays in raw.items()
    }


@dataclass(frozen=True)
class VPNGrowth:
    """Working-hours growth between the base week and a later week."""

    port_based: float
    domain_based: float
    port_based_weekend: float
    domain_based_weekend: float


def vpn_growth(
    patterns: Mapping[str, VPNWeekPattern],
    base_label: str,
    stage_label: str,
    working_hours: Tuple[int, int] = (9, 17),
) -> VPNGrowth:
    """§6's quantified claims from the Fig 10 patterns."""
    base = patterns[base_label]
    stage = patterns[stage_label]
    h0, h1 = working_hours

    def _growth(before: np.ndarray, after: np.ndarray, clip: slice) -> float:
        b = float(before[clip].mean())
        a = float(after[clip].mean())
        return (a / b - 1.0) if b > 0 else 0.0

    hours = slice(h0, h1)
    full = slice(0, 24)
    return VPNGrowth(
        port_based=_growth(base.port_workday, stage.port_workday, hours),
        domain_based=_growth(base.domain_workday, stage.domain_workday, hours),
        port_based_weekend=_growth(base.port_weekend, stage.port_weekend, full),
        domain_based_weekend=_growth(
            base.domain_weekend, stage.domain_weekend, full
        ),
    )
