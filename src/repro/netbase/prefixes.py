"""Deterministic IPv4 prefix allocation and address-to-AS lookup.

The synthetic traces must be self-consistent: a flow's ``src_asn`` must
be the AS that "announces" the prefix containing ``src_ip``, because
several analyses cross-check addresses against prefix ownership (§4
verifies that UDP/2408 traffic originates from Cloudflare prefixes and
UDP/3480 from Microsoft ones; §6 resolves VPN domains to addresses and
attributes traffic to them).

Allocation model: each AS receives one or more /16 blocks, proportional
to its registry weight, assigned deterministically in ascending-ASN
order from an allocation cursor.  A flat 65 536-entry table then gives
O(1) address-to-AS lookup.
"""

from __future__ import annotations

import ipaddress
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.netbase.asdb import ASRegistry

#: First /16 block handed out (16.0.0.0/16), leaving low space unused.
_FIRST_BLOCK = 16 * 256
#: One past the last allocatable /16 block (223.255.0.0/16), keeping
#: multicast and reserved space out of the pool.
_LAST_BLOCK = 224 * 256


@dataclass(frozen=True)
class Prefix:
    """An allocated /16 prefix."""

    high16: int  # upper 16 bits of the network address

    @property
    def network(self) -> ipaddress.IPv4Network:
        """The prefix as an :class:`ipaddress.IPv4Network`."""
        return ipaddress.IPv4Network((self.high16 << 16, 16))

    def __str__(self) -> str:
        return str(self.network)

    def contains(self, address: int) -> bool:
        """Whether a 32-bit address falls inside this prefix."""
        return (address >> 16) == self.high16


class PrefixMap:
    """O(1) address-to-AS lookup over /16 allocations.

    Also the home of the deterministic address pools drawn inside an
    AS's prefixes (:meth:`addresses_in`, :meth:`server_pool`): they
    depend only on the allocation and a salt, so every flow sampler and
    enterprise generator of a scenario shares one copy.
    """

    def __init__(self, table: np.ndarray, owners: Dict[int, List[Prefix]]):
        if table.shape != (65536,):
            raise ValueError("lookup table must have 65536 entries")
        self._table = table
        self._owners = owners
        self._pools: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._pools_lock = threading.Lock()

    def asn_for(self, address: int) -> int:
        """Origin AS of ``address``; -1 if the space is unallocated."""
        if not 0 <= address <= 0xFFFFFFFF:
            raise ValueError(f"address out of range: {address}")
        return int(self._table[address >> 16])

    def asn_for_many(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`asn_for` over an address array."""
        return self._table[np.asarray(addresses, dtype=np.uint32) >> 16]

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """Prefixes allocated to ``asn`` (empty if none)."""
        return list(self._owners.get(asn, ()))

    def server_pool(self, asn: int, size: int) -> np.ndarray:
        """``asn``'s ``size`` stable server addresses (read-only).

        :meth:`addresses_in` with the AS as its own salt.  Raises
        ``ValueError`` for an AS without prefixes.
        """
        return self.addresses_in(asn, size, salt=asn)

    def addresses_in(self, owner: int, size: int, salt: int) -> np.ndarray:
        """``size`` stable addresses inside ``owner``'s prefixes (read-only).

        Equal to ``deterministic_addresses_in(prefixes_of(owner), size,
        salt)``, built once per ``(owner, size, salt)`` and shared by
        every caller, so the array is frozen.  Raises ``ValueError`` for
        an owner without prefixes.
        """
        key = (int(owner), int(size), int(salt))
        pool = self._pools.get(key)
        if pool is not None:
            return pool
        with self._pools_lock:
            pool = self._pools.get(key)
            if pool is None:
                prefixes = self._owners.get(key[0])
                if not prefixes:
                    raise ValueError(f"AS {owner} has no allocated prefixes")
                pool = deterministic_addresses_in(prefixes, size, salt=salt)
                pool.flags.writeable = False
                self._pools[key] = pool
        return pool

    def owns(self, asn: int, address: int) -> bool:
        """Whether ``address`` lies inside a prefix of ``asn``."""
        return self.asn_for(address) == asn

    @property
    def allocated_asns(self) -> List[int]:
        """ASNs holding at least one prefix, ascending."""
        return sorted(self._owners)


class PrefixAllocator:
    """Deterministically allocates /16 blocks to every registered AS."""

    def __init__(self, registry: ASRegistry, blocks_per_weight: float = 1.0):
        self._registry = registry
        if blocks_per_weight <= 0:
            raise ValueError("blocks_per_weight must be positive")
        self._blocks_per_weight = blocks_per_weight

    def allocate(self) -> PrefixMap:
        """Perform the allocation and return the lookup map.

        Every AS receives ``ceil(weight * blocks_per_weight)`` /16
        blocks, at least one, in ascending ASN order.  Raises if the
        pool is exhausted, which indicates the registry is too large for
        the configured density.
        """
        table = np.full(65536, -1, dtype=np.int64)
        owners: Dict[int, List[Prefix]] = {}
        cursor = _FIRST_BLOCK
        for asn in self._registry.all_asns():
            info = self._registry.get(asn)
            assert info is not None
            n_blocks = max(1, math.ceil(info.weight * self._blocks_per_weight))
            prefixes = []
            for _ in range(n_blocks):
                if cursor >= _LAST_BLOCK:
                    raise RuntimeError(
                        "IPv4 /16 pool exhausted; reduce registry size or "
                        "blocks_per_weight"
                    )
                table[cursor] = asn
                prefixes.append(Prefix(cursor))
                cursor += 1
            owners[asn] = prefixes
        return PrefixMap(table, owners)


def deterministic_addresses_in(
    prefixes: Sequence[Prefix], count: int, salt: int
) -> np.ndarray:
    """``count`` reproducible addresses inside the union of ``prefixes``.

    Used for *server* addresses that must be stable across generator
    runs (web front-ends, VPN gateways the DNS corpus points at).  The
    sequence depends only on the prefixes and ``salt``.
    """
    if not prefixes:
        raise ValueError("at least one prefix is required")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(
        int(salt) * 1_000_003 + prefixes[0].high16
    )
    return random_addresses_in(prefixes, count, rng)


def random_addresses_in(
    prefixes: Sequence[Prefix], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` addresses uniformly from the union of ``prefixes``.

    Used by the flow generator to stamp flows with addresses consistent
    with their AS.  Host bits 0 and 0xFFFF are avoided so the result is
    never a network or broadcast address of the /16.
    """
    if not prefixes:
        raise ValueError("at least one prefix is required")
    highs = np.array([p.high16 for p in prefixes], dtype=np.uint32)
    chosen = rng.integers(0, len(highs), size=count)
    hosts = rng.integers(1, 0xFFFF, size=count, dtype=np.uint32)
    return (highs[chosen].astype(np.uint32) << np.uint32(16)) | hosts
