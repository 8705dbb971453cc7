"""Unit tests for the flow sampler."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
from repro.flows.record import PROTO_GRE, PROTO_TCP, PROTO_UDP
from repro.netbase.asdb import ASCategory, build_default_registry
from repro.netbase.prefixes import PrefixAllocator, random_addresses_in
from repro.series import HourlySeries
from repro.synth.flowgen import (
    BYTES_PER_UNIT,
    EPHEMERAL_PORT,
    EPHEMERAL_START,
    FlowSampler,
)
from repro.synth.profiles import (
    AppProfile,
    FlowTemplate,
    LockdownResponse,
    POOL_EDU_CLIENTS,
    POOL_EDU_INTERNAL,
    POOL_EYEBALL_LOCAL,
    POOL_VPN_GATEWAYS,
)


@pytest.fixture(scope="module")
def world():
    registry = build_default_registry(n_enterprise=30, n_hosting=10)
    prefix_map = PrefixAllocator(registry).allocate()
    return registry, prefix_map


def make_sampler(world, gateways=(), seed=1):
    registry, prefix_map = world
    return FlowSampler(
        registry=registry,
        prefix_map=prefix_map,
        local_eyeball_asns=[3320],
        seed=seed,
        vpn_gateway_ips=gateways,
    )


def profile_with(template):
    return AppProfile(
        name="test", templates=(template,), response=LockdownResponse()
    )


def volumes(hours=24, level=5.0):
    start = timebase.hour_index(dt.date(2020, 2, 19), 0)
    return HourlySeries(start, np.full(hours, level))


class TestSampling:
    def test_bytes_match_model(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=100.0)
        )
        vols = volumes(level=10.0)
        table = sampler.sample_profile(profile, vols)
        expected = vols.total() * BYTES_PER_UNIT
        assert table.total_bytes() == pytest.approx(expected, rel=0.001)

    def test_per_hour_bytes_match(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=50.0)
        )
        vols = volumes(hours=6, level=3.0)
        table = sampler.sample_profile(profile, vols)
        hourly = table.hourly_bytes(vols.start_hour, vols.stop_hour)
        assert np.allclose(
            hourly, vols.values * BYTES_PER_UNIT, rtol=0.001
        )

    def test_fidelity_scales_counts_not_bytes(self, world):
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=100.0)
        )
        low = make_sampler(world).sample_profile(profile, volumes(), 0.5)
        high = make_sampler(world).sample_profile(profile, volumes(), 2.0)
        assert len(high) > len(low) * 2
        assert high.total_bytes() == pytest.approx(
            low.total_bytes(), rel=0.01
        )

    def test_every_hour_with_volume_has_a_flow(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=1e6)
        )
        vols = volumes(level=0.001)  # tiny volume
        table = sampler.sample_profile(profile, vols)
        hourly = table.hourly_connections(vols.start_hour, vols.stop_hour)
        assert np.all(hourly >= 1)

    def test_rejects_nonpositive_fidelity(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        with pytest.raises(ValueError):
            sampler.sample_profile(profile, volumes(), fidelity=0)


class TestAddressing:
    def test_addresses_consistent_with_asn(self, world):
        registry, prefix_map = world
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        table = sampler.sample_profile(profile, volumes())
        src_owner = prefix_map.asn_for_many(table.column("src_ip"))
        assert np.array_equal(src_owner, table.column("src_asn"))
        dst_owner = prefix_map.asn_for_many(table.column("dst_ip"))
        assert np.array_equal(dst_owner, table.column("dst_asn"))

    def test_service_port_on_server_side(self, world):
        sampler = make_sampler(world)
        # Download: src is the server pool, so src_port carries 443.
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("src_port") == 443)
        assert np.all(table.column("dst_port") >= EPHEMERAL_START)

    def test_upload_direction_port_placement(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_UDP, ((4500, 1.0),), POOL_EYEBALL_LOCAL,
                         ASCategory.ENTERPRISE)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("dst_port") == 4500)
        assert np.all(table.column("src_port") >= EPHEMERAL_START)

    def test_portless_protocol_has_zero_ports(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_GRE, ((0, 1.0),), ASCategory.ENTERPRISE,
                         ASCategory.ENTERPRISE)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("src_port") == 0)
        assert np.all(table.column("dst_port") == 0)

    def test_ephemeral_marker_gives_high_ports(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((EPHEMERAL_PORT, 1.0),),
                         POOL_EYEBALL_LOCAL, ASCategory.HOSTING)
        )
        table = sampler.sample_profile(profile, volumes())
        assert np.all(table.column("dst_port") >= EPHEMERAL_START)
        assert np.all(table.column("src_port") >= EPHEMERAL_START)

    def test_gateway_pool_uses_exact_addresses(self, world):
        registry, prefix_map = world
        gateways = tuple(
            int(a)
            for a in prefix_map.prefixes_of(210001)[0].network.hosts()
        )[:3]
        sampler = make_sampler(world, gateways=gateways)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), POOL_EYEBALL_LOCAL,
                         POOL_VPN_GATEWAYS)
        )
        table = sampler.sample_profile(profile, volumes())
        assert set(np.unique(table.column("dst_ip"))) <= set(gateways)
        # Gateway ASNs resolved through the prefix map.
        assert np.all(table.column("dst_asn") == 210001)

    def test_gateway_pool_requires_addresses(self, world):
        sampler = make_sampler(world, gateways=())
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), POOL_EYEBALL_LOCAL,
                         POOL_VPN_GATEWAYS)
        )
        with pytest.raises(ValueError):
            sampler.sample_profile(profile, volumes())

    def test_client_side_has_many_unique_ips(self, world):
        sampler = make_sampler(world)
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL, mean_flow_kbytes=20.0)
        )
        table = sampler.sample_profile(profile, volumes(level=20.0))
        # Clients are drawn uniformly: nearly all distinct.
        assert table.unique_ips("dst") > len(table) * 0.8
        # Servers come from small stable per-AS pools (15 hypergiants
        # at 4 + 4*weight addresses each).
        assert table.unique_ips("src") < 500


class TestVantagePointSampler:
    def test_requires_eyeballs(self, world):
        registry, prefix_map = world
        with pytest.raises(ValueError):
            FlowSampler(registry, prefix_map, [], seed=0)

    def test_deterministic_given_seed(self, world):
        profile = profile_with(
            FlowTemplate(PROTO_TCP, ((443, 1.0),), ASCategory.HYPERGIANT,
                         POOL_EYEBALL_LOCAL)
        )
        a = make_sampler(world, seed=9).sample_profile(profile, volumes())
        b = make_sampler(world, seed=9).sample_profile(profile, volumes())
        assert a == b


#: EDU-internal ASes mixing single-prefix ASes (210002, 210010) with
#: multi-prefix ones, drawn as clients (POOL_EDU_CLIENTS) or servers
#: (POOL_EDU_INTERNAL).
MIXED_ASNS = (210002, 3320, 210010, 230001)

#: Pools covering every address-draw shape: clients (with single-prefix
#: ASes, whose bound of 1 draws nothing), servers, an explicit pool
#: with repeated ASNs, and VPN gateways.
DRAW_POOLS = (
    POOL_EDU_CLIENTS,
    ASCategory.EYEBALL,
    POOL_EDU_INTERNAL,
    ASCategory.HYPERGIANT,
    (210002, 15169, 210002, 3320, 15169),
    POOL_VPN_GATEWAYS,
)


def loop_draw_addresses(registry, prefix_map, spec, asns, count, rng):
    """Reference: the per-AS address loop the batched draw replaced."""
    if spec.kind == "gateway":
        return spec.values[rng.integers(0, len(spec.values), size=count)]
    result = np.empty(count, dtype=np.uint32)
    if count == 0:
        return result
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
            prefixes = prefix_map.prefixes_of(asn)
            result[rows] = random_addresses_in(prefixes, n, rng)
        else:
            info = registry.get(asn)
            weight = info.weight if info else 1.0
            pool = prefix_map.server_pool(asn, 4 + int(weight * 4))
            result[rows] = pool[rng.integers(0, len(pool), size=n)]
    return result


class TestBatchedAddressDraws:
    """One bounded-integer call per side draws what the per-AS loop drew."""

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.sampled_from(DRAW_POOLS),
        count=st.one_of(st.sampled_from((0, 1)), st.integers(0, 400)),
        seed=st.integers(0, 2**32 - 1),
        lead=st.integers(0, 3),
    )
    def test_matches_per_as_loop(self, world, pool, count, seed, lead):
        registry, prefix_map = world
        gateways = tuple(
            int(a)
            for a in prefix_map.prefixes_of(210001)[0].network.hosts()
        )[:5]
        batched, looped = (
            FlowSampler(registry, prefix_map, [3320], seed=seed,
                        vpn_gateway_ips=gateways,
                        edu_internal_asns=MIXED_ASNS)
            for _ in range(2)
        )
        spec = batched._resolve_pool(pool)
        if spec.kind == "gateway":
            members = asns = np.zeros(count, dtype=np.intp)
        else:
            members = np.random.default_rng(seed).integers(
                0, len(spec.asns), size=count)
            asns = spec.asns[members]
        # Odd 32-bit draws first leave PCG64 holding half a word.
        for sampler in (batched, looped):
            sampler._rng.integers(0, 1000, size=lead, dtype=np.uint32)
        got = batched._draw_addresses(spec, members)
        want = loop_draw_addresses(
            registry, prefix_map, spec, asns, count, looped._rng)
        assert got.dtype == want.dtype == np.uint32
        np.testing.assert_array_equal(got, want)
        assert (batched._rng.bit_generator.state
                == looped._rng.bit_generator.state)

    @settings(max_examples=30, deadline=None)
    @given(
        pool=st.sampled_from(DRAW_POOLS[:-1]),
        count=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_member_draw_matches_weighted_choice(
        self, world, pool, count, seed
    ):
        registry, prefix_map = world
        sampler = FlowSampler(registry, prefix_map, [3320], seed=seed,
                              edu_internal_asns=MIXED_ASNS)
        spec = sampler._resolve_pool(pool)
        if pool in (POOL_EDU_CLIENTS, POOL_EDU_INTERNAL):
            weights = np.ones(len(MIXED_ASNS))
        else:
            weights = np.array([registry.get(int(a)).weight
                                for a in spec.asns])
        rng = np.random.default_rng(seed)
        want = rng.choice(len(spec.asns), size=count,
                          p=weights / weights.sum())
        np.testing.assert_array_equal(
            sampler._draw_members(spec, count), want)
        assert sampler._rng.bit_generator.state == rng.bit_generator.state

    def test_as_without_prefixes_raises(self, world):
        registry, prefix_map = world
        sampler = make_sampler(world)
        spec = sampler._resolve_pool((15169, 4_000_000_000))
        sampler._draw_addresses(spec, np.array([0, 0]))
        with pytest.raises(ValueError, match="AS 4000000000 has no"):
            sampler._draw_addresses(spec, np.array([0, 1]))
