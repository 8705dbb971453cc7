"""Group-index engine: invariants, equivalence, and integer exactness.

Every group-index-backed aggregation must match (a) a naive Python
dict-loop over the records and (b) the ``REPRO_NO_GROUP_INDEX``
fallback path, bit for bit, on randomized tables including the edge
cases (empty table, single hour, port-less protocols).  The precision
tests pin the satellite fix: byte totals above 2**53 must not round,
as the old float64 ``np.bincount`` weights silently did.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows import groupby
from repro.flows.groupby import GroupIndex
from repro.flows.record import (
    PROTO_ESP,
    PROTO_GRE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.flows.table import FlowTable

PROTOS = (PROTO_TCP, PROTO_UDP, PROTO_GRE, PROTO_ESP, PROTO_ICMP)


def random_table(seed: int, n: int, n_hours: int = 12) -> FlowTable:
    """A small random table covering every protocol family."""
    rng = np.random.default_rng(seed)
    return FlowTable.from_arrays(
        hour=rng.integers(0, n_hours, n),
        src_ip=rng.integers(0, 50, n).astype(np.uint32),
        dst_ip=rng.integers(0, 50, n).astype(np.uint32),
        src_asn=rng.integers(1, 8, n),
        dst_asn=rng.integers(1, 8, n),
        proto=rng.choice(PROTOS, n).astype(np.int16),
        src_port=rng.integers(0, 65536, n).astype(np.int32),
        dst_port=rng.choice([80, 443, 4500, 50000, 60000], n).astype(
            np.int32
        ),
        n_bytes=rng.integers(1, 10**6, n),
        n_packets=rng.integers(1, 100, n),
        connections=rng.integers(1, 5, n),
    )


def dict_sums(table: FlowTable, key: str, value: str) -> dict:
    """Naive per-record reference aggregation."""
    keys = table.key_array(key)
    values = table.column(value)
    out: dict = {}
    for k, v in zip(keys.tolist(), values.tolist()):
        out[k] = out.get(k, 0) + v
    return out


class TestGroupIndexInvariants:
    def test_empty(self):
        index = GroupIndex.from_values(np.array([], dtype=np.int64))
        assert index.n_rows == 0
        assert index.n_groups == 0
        assert len(index) == 0
        assert index.sum(np.array([], dtype=np.int64)).shape == (0,)
        assert index.counts().shape == (0,)

    @pytest.mark.parametrize("seed", range(4))
    def test_factorization_reconstructs_keys(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-5, 5, 200)
        index = GroupIndex.from_values(keys)
        np.testing.assert_array_equal(index.values[index.codes], keys)
        np.testing.assert_array_equal(index.values, np.unique(keys))
        # order groups rows: keys[order] is sorted, starts mark segments
        sorted_keys = keys[index.order]
        assert (np.diff(sorted_keys) >= 0).all()
        np.testing.assert_array_equal(
            sorted_keys[index.starts], index.values
        )
        assert int(index.counts().sum()) == 200

    def test_arrays_are_read_only(self):
        index = GroupIndex.from_values(np.array([3, 1, 3]))
        for arr in (index.values, index.codes, index.order, index.starts):
            assert not arr.flags.writeable

    def test_sum_matches_dict_loop(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 9, 300)
        values = rng.integers(0, 10**9, 300)
        index = GroupIndex.from_values(keys)
        sums = index.sum(values)
        reference = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            reference[k] = reference.get(k, 0) + v
        assert {
            int(k): int(s) for k, s in zip(index.values, sums)
        } == reference
        assert sums.dtype == values.dtype

    def test_sum_rejects_length_mismatch(self):
        index = GroupIndex.from_values(np.array([1, 2]))
        with pytest.raises(ValueError, match="does not match"):
            index.sum(np.array([1, 2, 3]))

    def test_compose_matches_pair_unique(self):
        rng = np.random.default_rng(11)
        left = rng.integers(0, 5, 150)
        right = rng.integers(0, 7, 150)
        pair, radix = GroupIndex.from_values(left).compose(
            GroupIndex.from_values(right)
        )
        got = set()
        left_index = GroupIndex.from_values(left)
        right_index = GroupIndex.from_values(right)
        for value in pair.values.tolist():
            got.add(
                (
                    int(left_index.values[value // radix]),
                    int(right_index.values[value % radix]),
                )
            )
        assert got == set(zip(left.tolist(), right.tolist()))

    def test_compose_rejects_row_mismatch(self):
        a = GroupIndex.from_values(np.array([1, 2]))
        b = GroupIndex.from_values(np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="different tables"):
            a.compose(b)

    def test_reference_group_sums_match_index(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 6, 100)
        values = rng.integers(0, 10**6, 100)
        index = GroupIndex.from_values(keys)
        uniq, sums = groupby.group_sums(keys, values)
        np.testing.assert_array_equal(uniq, index.values)
        np.testing.assert_array_equal(sums, index.sum(values))


def table_cases():
    yield "empty", FlowTable.empty()
    yield "single-hour", random_table(1, 50, n_hours=1)
    for seed in (2, 3, 4):
        yield f"random-{seed}", random_table(seed, 250)
    # port-less protocols only (GRE/ESP/ICMP carry no service port)
    rng = np.random.default_rng(5)
    n = 80
    yield "portless", FlowTable.from_arrays(
        hour=rng.integers(0, 6, n),
        src_ip=rng.integers(0, 20, n).astype(np.uint32),
        dst_ip=rng.integers(0, 20, n).astype(np.uint32),
        src_asn=rng.integers(1, 4, n),
        dst_asn=rng.integers(1, 4, n),
        proto=rng.choice([PROTO_GRE, PROTO_ESP, PROTO_ICMP], n).astype(
            np.int16
        ),
        src_port=np.zeros(n, dtype=np.int32),
        dst_port=np.zeros(n, dtype=np.int32),
        n_bytes=rng.integers(1, 10**6, n),
        n_packets=rng.integers(1, 50, n),
    )


CASES = dict(table_cases())


@pytest.fixture(params=sorted(CASES))
def any_table(request):
    return CASES[request.param]


def aggregate_all(table: FlowTable) -> dict:
    """Every group-index-backed aggregation, in one comparable dict."""
    return {
        "bytes-by-asn": table.bytes_by("src_asn"),
        "bytes-by-port": table.bytes_by("dst_port"),
        "connections-by-asn": table.connections_by("dst_asn"),
        "hourly-bytes": table.hourly_bytes(0, 12).tolist(),
        "hourly-connections": table.hourly_connections(0, 12).tolist(),
        "bytes-by-transport": table.bytes_by_transport_key(),
        "top-transport": table.top_transport_keys(5),
        "unique-src-per-hour": table.unique_ips_per_hour(0, 12).tolist(),
        "unique-dst-per-hour": table.unique_ips_per_hour(
            2, 7, side="dst"
        ).tolist(),
        "transport-labels": table.transport_keys().tolist(),
    }


class TestEngineEquivalence:
    """Engine-on, fallback, and dict-loop reference must agree exactly."""

    def test_engine_matches_naive_reference(self, any_table):
        table = any_table
        assert table.bytes_by("src_asn") == dict_sums(
            table, "src_asn", "n_bytes"
        )
        assert table.connections_by("dst_asn") == dict_sums(
            table, "dst_asn", "connections"
        )
        hourly = dict_sums(table, "hour", "n_bytes")
        np.testing.assert_array_equal(
            table.hourly_bytes(0, 12),
            [hourly.get(h, 0) for h in range(12)],
        )
        pairs = set(
            zip(
                table.column("hour").tolist(),
                table.column("src_ip").tolist(),
            )
        )
        np.testing.assert_array_equal(
            table.unique_ips_per_hour(0, 12),
            [sum(1 for h, _ in pairs if h == hour) for hour in range(12)],
        )

    def test_fallback_path_is_bit_identical(self, any_table, monkeypatch):
        with_engine = aggregate_all(any_table)
        monkeypatch.setenv(groupby.DISABLE_ENV, "1")
        assert not groupby.engine_enabled()
        without_engine = aggregate_all(any_table)
        assert with_engine == without_engine

    def test_index_memoized_across_aggregations(self):
        table = random_table(9, 120)
        table.bytes_by("src_asn")
        index = table.group_index("src_asn")
        table.connections_by("src_asn")
        assert table.group_index("src_asn") is index

    def test_derived_keys_memoized(self):
        table = random_table(10, 60)
        assert table.key_array("service_port") is table.key_array(
            "service_port"
        )
        assert table.key_array("transport") is table.key_array("transport")

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="unknown group key"):
            random_table(0, 5).key_array("nope")


class TestIntegerExactness:
    """Regression: totals above 2**53 must survive aggregation.

    ``np.bincount(..., weights=...)`` accumulates in float64, where
    2**53 + 1 is unrepresentable — summing three such rows loses the
    ``+3``.  The segment-sum engine and the fallback both accumulate
    in int64.
    """

    HUGE = 2**53 + 1

    def huge_table(self) -> FlowTable:
        n = 3
        return FlowTable.from_arrays(
            hour=np.zeros(n, dtype=np.int64),
            src_ip=np.arange(n, dtype=np.uint32),
            dst_ip=np.arange(n, dtype=np.uint32),
            src_asn=np.full(n, 7),
            dst_asn=np.full(n, 8),
            proto=np.full(n, PROTO_TCP, dtype=np.int16),
            src_port=np.full(n, 55000, dtype=np.int32),
            dst_port=np.full(n, 443, dtype=np.int32),
            n_bytes=np.full(n, self.HUGE),
            n_packets=np.ones(n, dtype=np.int64),
        )

    def test_float64_would_round(self):
        # The defect this guards against: float64 accumulation.
        rounded = np.bincount(
            np.zeros(3, dtype=np.intp), weights=np.full(3, self.HUGE)
        )
        assert int(rounded[0]) != 3 * self.HUGE

    @pytest.mark.parametrize("engine", [True, False])
    def test_exact_above_2_53(self, engine, monkeypatch):
        if not engine:
            monkeypatch.setenv(groupby.DISABLE_ENV, "1")
        table = self.huge_table()
        exact = 3 * self.HUGE
        assert table.bytes_by("src_asn") == {7: exact}
        assert table.bytes_by_transport_key() == {"TCP/443": exact}
        assert int(table.hourly_bytes(0, 1)[0]) == exact
        assert table.total_bytes() == exact


INT_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)

#: Spans at the radix kernel's one-pass / two-pass / fallback edges.
EDGE_SPANS = (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1)


def reference_index(keys: np.ndarray):
    """``GroupIndex`` arrays built from a plain stable argsort."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.ones(len(keys), dtype=bool)
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(new_group)
    codes = np.empty(len(keys), dtype=np.int64)
    codes[order] = np.cumsum(new_group) - 1
    return sorted_keys[starts], codes, order, starts


@st.composite
def integer_keys(draw):
    """Integer keys of any width: edge spans, extremes, heavy ties."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    full = int(info.max) - int(info.min)
    span = min(draw(st.sampled_from(EDGE_SPANS) | st.integers(0, full)), full)
    low = draw(
        st.sampled_from([int(info.min), int(info.max) - span])
        | st.integers(int(info.min), int(info.max) - span)
    )
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(900, 2500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(
        0, span, size=draw(st.integers(1, 64)), endpoint=True,
        dtype=np.uint64,
    )
    offsets = pool[rng.integers(0, pool.size, n)]
    if n >= 2:
        # Pin both ends of the span somewhere in the array.
        ends = rng.choice(n, 2, replace=False)
        offsets[ends] = (0, span)
    # uint64 addition wraps, so low + offset lands exactly in ``dtype``.
    return (offsets + np.uint64(low % 2**64)).astype(dtype)


class TestStableOrder:
    """The radix ordering is exactly a stable argsort's permutation."""

    @settings(max_examples=150, deadline=None)
    @given(keys=integer_keys())
    def test_index_matches_stable_argsort(self, keys):
        values, codes, order, starts = reference_index(keys)
        assert np.array_equal(groupby.stable_order(keys), order)
        index = GroupIndex.from_values(keys)
        assert index.values.dtype == keys.dtype
        assert np.array_equal(index.values, values)
        assert np.array_equal(index.codes, codes)
        assert np.array_equal(index.order, order)
        assert np.array_equal(index.starts, starts)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_dtype_extremes(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(7)
        keys = rng.choice(
            np.array([info.min, info.max, info.min + 1, info.max - 1],
                     dtype=dtype),
            4096,
        )
        assert np.array_equal(
            groupby.stable_order(keys), np.argsort(keys, kind="stable")
        )

    @pytest.mark.parametrize("low", [-(2**63), 2**63 - 2**32])
    @pytest.mark.parametrize("span", [2**16 - 1, 2**16 + 1, 2**32 - 1])
    def test_int64_offsets_do_not_overflow(self, low, span):
        rng = np.random.default_rng(span)
        offsets = rng.integers(0, span, 5000, endpoint=True, dtype=np.uint64)
        offsets[:2] = (0, span)
        keys = (offsets + np.uint64(low % 2**64)).astype(np.int64)
        assert np.array_equal(
            groupby.stable_order(keys), np.argsort(keys, kind="stable")
        )

    def test_float_keys_take_comparison_sort(self):
        keys = np.random.default_rng(3).integers(0, 5, 3000) / 2.0
        assert np.array_equal(
            groupby.stable_order(keys), np.argsort(keys, kind="stable")
        )


class TestMetricsCounters:
    def test_builds_and_reuses_counted(self):
        import repro.obs as obs

        registry = obs.MetricsRegistry()
        obs.set_registry(registry)
        try:
            table = random_table(12, 40)
            table.bytes_by("src_asn")
            table.connections_by("src_asn")
            counters = registry.snapshot()["counters"]
            assert counters["groupby.index-builds"] == 1
            assert counters["groupby.index-reuses"] >= 1
        finally:
            obs.reset()

    def test_fallbacks_counted(self, monkeypatch):
        import repro.obs as obs

        monkeypatch.setenv(groupby.DISABLE_ENV, "1")
        registry = obs.MetricsRegistry()
        obs.set_registry(registry)
        try:
            random_table(13, 40).bytes_by("src_asn")
            counters = registry.snapshot()["counters"]
            assert counters["groupby.fallbacks"] == 1
            assert "groupby.index-builds" not in counters
        finally:
            obs.reset()
