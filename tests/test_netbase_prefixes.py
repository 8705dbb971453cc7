"""Unit tests for prefix allocation and address lookup."""

import numpy as np
import pytest

from repro.netbase.asdb import ASCategory, ASInfo, ASRegistry
from repro.netbase.prefixes import (
    Prefix,
    PrefixAllocator,
    deterministic_addresses_in,
    random_addresses_in,
)


def small_registry():
    registry = ASRegistry()
    registry.add(ASInfo(100, "big", ASCategory.HYPERGIANT, weight=3.0))
    registry.add(ASInfo(200, "small", ASCategory.ENTERPRISE, weight=0.5))
    return registry


@pytest.fixture
def prefix_map():
    return PrefixAllocator(small_registry()).allocate()


class TestAllocation:
    def test_every_as_gets_prefixes(self, prefix_map):
        assert prefix_map.prefixes_of(100)
        assert prefix_map.prefixes_of(200)

    def test_blocks_proportional_to_weight(self, prefix_map):
        assert len(prefix_map.prefixes_of(100)) == 3
        assert len(prefix_map.prefixes_of(200)) == 1

    def test_unregistered_as_has_none(self, prefix_map):
        assert prefix_map.prefixes_of(300) == []

    def test_allocated_asns(self, prefix_map):
        assert prefix_map.allocated_asns == [100, 200]

    def test_deterministic(self):
        a = PrefixAllocator(small_registry()).allocate()
        b = PrefixAllocator(small_registry()).allocate()
        assert [str(p) for p in a.prefixes_of(100)] == [
            str(p) for p in b.prefixes_of(100)
        ]

    def test_bad_density_rejected(self):
        with pytest.raises(ValueError):
            PrefixAllocator(small_registry(), blocks_per_weight=0)

    def test_pool_exhaustion_detected(self):
        registry = ASRegistry()
        registry.add(ASInfo(1, "huge", ASCategory.CLOUD, weight=1.0))
        with pytest.raises(RuntimeError):
            PrefixAllocator(registry, blocks_per_weight=1e9).allocate()


class TestLookup:
    def test_owned_address_maps_back(self, prefix_map):
        prefix = prefix_map.prefixes_of(100)[0]
        address = (prefix.high16 << 16) | 0x1234
        assert prefix_map.asn_for(address) == 100
        assert prefix_map.owns(100, address)
        assert not prefix_map.owns(200, address)

    def test_unallocated_space(self, prefix_map):
        assert prefix_map.asn_for(0) == -1

    def test_out_of_range_rejected(self, prefix_map):
        with pytest.raises(ValueError):
            prefix_map.asn_for(2**32)

    def test_vectorized_lookup(self, prefix_map):
        prefix = prefix_map.prefixes_of(200)[0]
        addresses = np.array(
            [(prefix.high16 << 16) | i for i in range(1, 4)], dtype=np.uint32
        )
        assert prefix_map.asn_for_many(addresses).tolist() == [200, 200, 200]

    def test_prefix_str(self, prefix_map):
        prefix = prefix_map.prefixes_of(100)[0]
        assert str(prefix).endswith("/16")

    def test_prefix_contains(self):
        prefix = Prefix(16 * 256)
        assert prefix.contains(16 * 256 * 65536 + 1)
        assert not prefix.contains(1)


class TestAddressDrawing:
    def test_random_addresses_inside_prefixes(self, prefix_map):
        prefixes = prefix_map.prefixes_of(100)
        rng = np.random.default_rng(0)
        addresses = random_addresses_in(prefixes, 500, rng)
        assert np.all(prefix_map.asn_for_many(addresses) == 100)

    def test_random_addresses_avoid_network_broadcast(self, prefix_map):
        prefixes = prefix_map.prefixes_of(200)
        rng = np.random.default_rng(0)
        hosts = random_addresses_in(prefixes, 1000, rng) & 0xFFFF
        assert hosts.min() >= 1
        assert hosts.max() <= 0xFFFE

    def test_random_requires_prefixes(self):
        with pytest.raises(ValueError):
            random_addresses_in([], 1, np.random.default_rng(0))

    def test_deterministic_addresses_stable(self, prefix_map):
        prefixes = prefix_map.prefixes_of(100)
        a = deterministic_addresses_in(prefixes, 8, salt=7)
        b = deterministic_addresses_in(prefixes, 8, salt=7)
        assert np.array_equal(a, b)

    def test_deterministic_addresses_salt_sensitivity(self, prefix_map):
        prefixes = prefix_map.prefixes_of(100)
        a = deterministic_addresses_in(prefixes, 8, salt=1)
        b = deterministic_addresses_in(prefixes, 8, salt=2)
        assert not np.array_equal(a, b)

    def test_deterministic_rejects_negative_count(self, prefix_map):
        with pytest.raises(ValueError):
            deterministic_addresses_in(
                prefix_map.prefixes_of(100), -1, salt=0
            )


class TestServerPools:
    def test_pool_equals_deterministic_addresses(self, prefix_map):
        for asn, size in ((100, 16), (200, 6), (100, 1)):
            expected = deterministic_addresses_in(
                prefix_map.prefixes_of(asn), size, salt=asn
            )
            assert np.array_equal(prefix_map.server_pool(asn, size), expected)

    def test_salted_pool_equals_deterministic_addresses(self, prefix_map):
        for owner, size, salt in ((100, 1, 200), (200, 1, 100), (100, 4, 7)):
            expected = deterministic_addresses_in(
                prefix_map.prefixes_of(owner), size, salt=salt
            )
            pool = prefix_map.addresses_in(owner, size, salt=salt)
            assert np.array_equal(pool, expected)
            assert prefix_map.addresses_in(owner, size, salt=salt) is pool
        assert prefix_map.addresses_in(100, 8, salt=100) is (
            prefix_map.server_pool(100, 8)
        )

    def test_pool_is_shared_and_read_only(self, prefix_map):
        pool = prefix_map.server_pool(100, 8)
        assert prefix_map.server_pool(100, 8) is pool
        assert prefix_map.server_pool(100, 9) is not pool
        assert not pool.flags.writeable
        with pytest.raises(ValueError):
            pool[0] = 0

    def test_pool_needs_prefixes(self, prefix_map):
        with pytest.raises(ValueError, match="no allocated prefixes"):
            prefix_map.server_pool(999, 4)
