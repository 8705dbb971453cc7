"""Property-based tests (hypothesis) for core data structures.

These pin down invariants rather than examples: normalization algebra
on series, mask/filter laws on flow tables, anonymization injectivity,
public-suffix handling, ECDF monotonicity, and the diurnal shape
contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linkutil import ECDF
from repro.dns import names as dns_names
from repro.flows.anonymize import hash_ip
from repro.flows.record import PROTO_TCP
from repro.flows.table import FlowTable
from repro.series import HourlySeries
from repro.synth import diurnal

# -- strategies --------------------------------------------------------------

positive_values = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
    min_size=1, max_size=200,
)


@st.composite
def flow_tables(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    hours = draw(
        st.lists(st.integers(0, 500), min_size=n, max_size=n)
    )
    n_bytes = draw(
        st.lists(st.integers(1, 10**9), min_size=n, max_size=n)
    )
    asns = draw(st.lists(st.integers(1, 10**5), min_size=n, max_size=n))
    ports = draw(st.lists(st.integers(1, 65535), min_size=n, max_size=n))
    return FlowTable.from_arrays(
        hour=np.asarray(hours, dtype=np.int64),
        src_ip=np.arange(n, dtype=np.uint32),
        dst_ip=np.arange(n, dtype=np.uint32) + 1000,
        src_asn=np.asarray(asns, dtype=np.int64),
        dst_asn=np.asarray(asns, dtype=np.int64) + 1,
        proto=np.full(n, PROTO_TCP, dtype=np.int16),
        src_port=np.full(n, 55000, dtype=np.int32),
        dst_port=np.asarray(ports, dtype=np.int32),
        n_bytes=np.asarray(n_bytes, dtype=np.int64),
        n_packets=np.ones(n, dtype=np.int64),
    )


# -- series -------------------------------------------------------------------


class TestSeriesProperties:
    @given(positive_values)
    def test_normalize_by_min_floor_is_one(self, values):
        series = HourlySeries(0, np.asarray(values))
        assert series.normalize_by_min().values.min() == 1.0

    @given(positive_values)
    def test_normalize_by_max_ceiling_is_one(self, values):
        series = HourlySeries(0, np.asarray(values))
        normalized = series.normalize_by_max()
        assert np.isclose(normalized.values.max(), 1.0)
        assert np.all(normalized.values <= 1.0 + 1e-12)

    @given(positive_values, st.floats(min_value=0.01, max_value=100))
    def test_scaling_preserves_shape(self, values, factor):
        series = HourlySeries(0, np.asarray(values))
        scaled = series.scale(factor)
        assert np.allclose(
            scaled.values / factor, series.values, rtol=1e-9
        )

    @given(st.integers(min_value=1, max_value=20))
    def test_rebin_preserves_total(self, days):
        rng = np.random.default_rng(days)
        values = rng.uniform(0.1, 10.0, days * 24)
        series = HourlySeries(0, values)
        assert np.isclose(series.rebin(6).sum(), series.total())


# -- flow tables ----------------------------------------------------------------


class TestFlowTableProperties:
    @settings(max_examples=30)
    @given(flow_tables())
    def test_filter_partition_preserves_bytes(self, table):
        if len(table) == 0:
            return
        mask = table.column("n_bytes") % 2 == 0
        kept = table.filter(mask).total_bytes()
        dropped = table.filter(~mask).total_bytes()
        assert kept + dropped == table.total_bytes()

    @settings(max_examples=30)
    @given(flow_tables())
    def test_hourly_bytes_sums_to_total(self, table):
        hourly = table.hourly_bytes(0, 501)
        assert hourly.sum() == table.total_bytes()

    @settings(max_examples=30)
    @given(flow_tables())
    def test_bytes_by_asn_sums_to_total(self, table):
        by_asn = table.bytes_by("src_asn")
        assert sum(by_asn.values()) == table.total_bytes()

    @settings(max_examples=30)
    @given(flow_tables())
    def test_sort_preserves_multiset(self, table):
        sorted_table = table.sort_by_hour()
        assert sorted_table.total_bytes() == table.total_bytes()
        assert len(sorted_table) == len(table)
        assert np.array_equal(
            np.sort(sorted_table.column("n_bytes")),
            np.sort(table.column("n_bytes")),
        )

    @settings(max_examples=30)
    @given(flow_tables())
    def test_concat_length_additive(self, table):
        doubled = FlowTable.concat([table, table])
        assert len(doubled) == 2 * len(table)

    @settings(max_examples=30)
    @given(flow_tables())
    def test_transport_key_bytes_sum_to_total(self, table):
        by_key = table.bytes_by_transport_key()
        assert sum(by_key.values()) == table.total_bytes()


# -- anonymization ---------------------------------------------------------------


class TestAnonymizationProperties:
    @given(st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=32))
    def test_hash_stays_in_address_space(self, address, key):
        assert 0 <= hash_ip(address, key) <= 2**32 - 1

    @given(
        st.sets(st.integers(0, 2**32 - 1), min_size=2, max_size=50),
        st.binary(min_size=1, max_size=16),
    )
    def test_distinct_count_mostly_preserved(self, addresses, key):
        hashed = {hash_ip(a, key) for a in addresses}
        # 32-bit truncation allows rare collisions, never inflation.
        assert len(hashed) <= len(addresses)
        assert len(hashed) >= len(addresses) - 1


# -- DNS names --------------------------------------------------------------------

_labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
    min_size=1, max_size=12,
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))


class TestDNSProperties:
    @given(_labels, _labels)
    def test_registrable_domain_idempotent(self, host, zone):
        domain = f"{host}.{zone}.com"
        registrable = dns_names.registrable_domain(domain)
        assert dns_names.registrable_domain(registrable) == registrable

    @given(_labels, _labels)
    def test_www_variant_shares_zone(self, host, zone):
        domain = f"{host}.{zone}.com"
        www = dns_names.www_variant(domain)
        assert dns_names.registrable_domain(
            www
        ) == dns_names.registrable_domain(domain)

    @given(_labels, _labels)
    def test_vpn_label_detection_consistent(self, host, zone):
        domain = f"{host}.{zone}.com"
        has_vpn_text = any(
            "vpn" in label
            for label in dns_names.labels_left_of_public_suffix(domain)
        )
        if host != "www" or "vpn" in zone:
            assert dns_names.has_vpn_label(domain) == has_vpn_text


# -- ECDF ----------------------------------------------------------------------------


class TestECDFProperties:
    @given(positive_values)
    def test_cdf_monotone(self, values):
        ecdf = ECDF.from_values(values)
        grid = np.linspace(min(values) - 1, max(values) + 1, 30)
        evaluated = ecdf.evaluate(grid)
        assert np.all(np.diff(evaluated) >= 0)

    @given(positive_values)
    def test_cdf_range(self, values):
        ecdf = ECDF.from_values(values)
        assert ecdf.fraction_at_or_below(max(values)) == 1.0
        assert ecdf.fraction_at_or_below(min(values) - 1e-9) == 0.0

    @given(positive_values, st.floats(min_value=0, max_value=1))
    def test_quantile_inside_sample_range(self, values, q):
        ecdf = ECDF.from_values(values)
        assert min(values) <= ecdf.quantile(q) <= max(values)


# -- diurnal shapes ---------------------------------------------------------------------


class TestDiurnalProperties:
    @given(
        st.sampled_from(
            ["workday", "weekend", "business", "evening", "flat"]
        ),
        st.integers(min_value=-48, max_value=48),
    )
    def test_shift_preserves_mass(self, name, hours):
        shape = diurnal.get_shape(name)
        shifted = diurnal.shifted(shape, hours)
        assert np.isclose(shifted.sum(), shape.sum())

    @given(
        st.sampled_from(["workday", "weekend"]),
        st.sampled_from(["business", "evening"]),
        st.floats(min_value=0, max_value=1),
    )
    def test_blend_stays_normalized(self, a, b, t):
        blended = diurnal.blend(
            diurnal.get_shape(a), diurnal.get_shape(b), t
        )
        assert np.isclose(blended.mean(), 1.0)
        assert np.all(blended >= 0)


# -- flow export codecs -----------------------------------------------------------


@st.composite
def codec_records(draw):
    from repro.flows.record import FlowRecord

    n = draw(st.integers(min_value=1, max_value=40))
    records = []
    for i in range(n):
        records.append(
            FlowRecord(
                hour=draw(st.integers(0, 3000)),
                src_ip=draw(st.integers(0, 2**32 - 1)),
                dst_ip=draw(st.integers(0, 2**32 - 1)),
                src_asn=draw(st.integers(1, 2**31 - 1)),
                dst_asn=draw(st.integers(1, 2**31 - 1)),
                proto=draw(st.sampled_from([6, 17, 47, 50])),
                src_port=draw(st.integers(0, 65535)),
                dst_port=draw(st.integers(0, 65535)),
                n_bytes=draw(st.integers(1, 2**40)),
                n_packets=draw(st.integers(1, 2**20)),
                connections=draw(st.integers(1, 1000)),
            )
        )
    return FlowTable.from_records(records)


class TestCodecProperties:
    @settings(max_examples=25, deadline=None)
    @given(codec_records())
    def test_ipfix_round_trip_lossless(self, table):
        from repro.flows import ipfix

        decoded = ipfix.decode_messages(ipfix.encode_messages(table))
        assert decoded == table

    @settings(max_examples=25, deadline=None)
    @given(codec_records())
    def test_netflow5_preserves_what_fits(self, table):
        from repro.flows import netflow5

        decoded = netflow5.decode_packets(netflow5.encode_packets(table))
        assert len(decoded) == len(table)
        assert np.array_equal(
            decoded.column("src_ip"), table.column("src_ip")
        )
        assert np.array_equal(
            decoded.column("src_port"), table.column("src_port")
        )
        # Counters survive modulo the 32-bit field width.
        assert np.array_equal(
            decoded.column("n_packets"),
            np.minimum(table.column("n_packets"), 2**32 - 1),
        )
