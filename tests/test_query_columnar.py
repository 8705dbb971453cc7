"""Tests for columnar partial aggregates and the columnar query result.

Covers the sparse grouped HyperLogLog registers against one dense
:class:`HyperLogLog` per group (hypothesis differential tests), the
shared rank kernel against a bit-by-bit reference, the exact int64 sum
merge near 2**63, the one-pickle shard payload, shard-granular failure
on a dead worker, read-only cached result arrays, and ``query --json``
output against a golden file recorded from the per-group sketch
engine (:mod:`tests.query_fixture`).
"""

import datetime as dt
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
import repro.flows.hll as hll
from repro.flows.hll import (
    GroupedRegisters,
    HyperLogLog,
    register_ranks,
    relative_error,
)
from repro.query import QueryService, QuerySpec, ScanPool, execute_query
from repro.query import engine, procpool
from tests import query_fixture as fx


@pytest.fixture(scope="module")
def fixture_store(tmp_path_factory):
    return fx.write_fixture_store(
        tmp_path_factory.mktemp("columnar") / "fixture"
    )


def _spec(**kwargs):
    return QuerySpec.build("fixture", fx.START, fx.END, **kwargs)


# --- grouped registers vs. one dense sketch per group ---------------------


def _dense_per_group(values, groups, n_groups, p, salt=0):
    sketches = []
    for group in range(n_groups):
        sketch = HyperLogLog(p=p, salt=salt)
        sketch.add_many(values[groups == group])
        sketches.append(sketch)
    return sketches


def _dense(grouped, group):
    """One group's full register array, rebuilt from its entries."""
    registers = np.zeros(1 << grouped.p, dtype=np.uint8)
    mine = grouped.groups == group
    registers[grouped.registers[mine]] = grouped.ranks[mine]
    return registers


def _assert_matches_dense(grouped, sketches):
    counts = grouped.counts(len(sketches))
    for group, sketch in enumerate(sketches):
        assert np.array_equal(_dense(grouped, group), sketch._registers)
        assert counts[group] == sketch.count()


#: Per group: a handful of distinct addresses, each repeated, so groups
#: range from empty (no values) through single-valued to duplicate-heavy.
_groups = st.lists(
    st.tuples(
        st.lists(st.integers(0, 2**32 - 1), max_size=12),
        st.integers(1, 8),
    ),
    min_size=1, max_size=8,
)


class TestGroupedRegisters:
    @pytest.mark.parametrize("p", [4, 12, 18])
    @settings(max_examples=30, deadline=None)
    @given(groups=_groups, data=st.data())
    def test_registers_and_counts_match_dense(self, p, groups, data):
        values, ids = [], []
        for group, (distinct, repeats) in enumerate(groups):
            values.extend(distinct * repeats)
            ids.extend([group] * (len(distinct) * repeats))
        order = data.draw(st.permutations(range(len(values))), label="order")
        values = np.asarray(values, dtype=np.uint64)[list(order)]
        ids = np.asarray(ids, dtype=np.int64)[list(order)]
        grouped = GroupedRegisters.from_values(values, ids, p=p)
        _assert_matches_dense(
            grouped, _dense_per_group(values, ids, len(groups), p)
        )

    @pytest.mark.parametrize("p", [4, 12, 18])
    @settings(max_examples=30, deadline=None)
    @given(left=_groups, right=_groups)
    def test_merge_matches_dense_union(self, p, left, right):
        """Renumbered merge == union of the per-group dense sketches."""
        def build(groups):
            values, ids = [], []
            for group, (distinct, repeats) in enumerate(groups):
                values.extend(distinct * repeats)
                ids.extend([group] * (len(distinct) * repeats))
            return (np.asarray(values, dtype=np.uint64),
                    np.asarray(ids, dtype=np.int64))

        (lv, lg), (rv, rg) = build(left), build(right)
        # Right's groups interleave with left's in the merged numbering.
        n_groups = max(len(left), 2 * len(right))
        right_map = 2 * np.arange(len(right))
        merged = GroupedRegisters.merge(
            [GroupedRegisters.from_values(lv, lg, p=p),
             GroupedRegisters.from_values(rv, rg, p=p)],
            [np.arange(len(left)), right_map],
        )
        values = np.concatenate([lv, rv])
        ids = np.concatenate([lg, right_map[rg]])
        _assert_matches_dense(
            merged, _dense_per_group(values, ids, n_groups, p)
        )

    def test_empty_input_has_no_entries(self):
        grouped = GroupedRegisters.from_values(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
        )
        assert grouped.entries.size == 0
        assert grouped.counts(2).tolist() == [0.0, 0.0]
        assert grouped.counts(0).size == 0

    def test_salt_mismatch_rejected(self):
        values = np.arange(10, dtype=np.uint64)
        ids = np.zeros(10, dtype=np.int64)
        parts = [GroupedRegisters.from_values(values, ids, salt=salt)
                 for salt in (1, 2)]
        with pytest.raises(ValueError, match="salt"):
            GroupedRegisters.merge(parts, [np.arange(1), np.arange(1)])

    def test_precision_mismatch_rejected(self):
        values = np.arange(10, dtype=np.uint64)
        ids = np.zeros(10, dtype=np.int64)
        parts = [GroupedRegisters.from_values(values, ids, p=p)
                 for p in (10, 12)]
        with pytest.raises(ValueError, match="precisions"):
            GroupedRegisters.merge(parts, [np.arange(1), np.arange(1)])

    def test_relative_error_is_module_level(self):
        assert relative_error(12) == HyperLogLog(p=12).relative_error()
        with pytest.raises(ValueError):
            relative_error(3)


def _reference_rank(hashed: int, p: int):
    """Bit-by-bit register index and rank of one 64-bit hash."""
    register = hashed >> (64 - p)
    remainder = (hashed << p) & (2**64 - 1)
    rank = 1
    for bit in range(63, -1, -1):
        if remainder >> bit & 1:
            break
        rank += 1
    return register, min(rank, 64 - p + 1)


class TestRankKernel:
    @pytest.mark.parametrize("p", [4, 12, 18])
    def test_matches_bitwise_reference(self, p):
        rng = np.random.default_rng(p)
        values = rng.integers(0, 2**63, 2000, dtype=np.uint64)
        registers, ranks = register_ranks(values, p, salt=5)
        for value, register, rank in zip(
            hll._hash64(values, 5).tolist(), registers, ranks
        ):
            assert (register, rank) == _reference_rank(value, p)

    @pytest.mark.parametrize("p", [4, 12, 18])
    def test_extreme_remainders(self, p, monkeypatch):
        """All-zero, single-bit and all-one remainders rank exactly."""
        hashes = [0, 1, 2**32, 2**32 - 1, 2**(63 - p), 2**64 - 1,
                  (2**64 - 1) ^ ((1 << (64 - p)) - 1)]
        monkeypatch.setattr(
            hll, "_hash64",
            lambda values, salt: np.asarray(hashes, dtype=np.uint64),
        )
        registers, ranks = register_ranks(
            np.zeros(len(hashes), dtype=np.uint64), p, salt=0
        )
        assert list(zip(registers.tolist(), ranks.tolist())) == [
            _reference_rank(h, p) for h in hashes
        ]


# --- exact int64 sums --------------------------------------------------


class TestInt64Merge:
    def test_sum_near_int64_max_is_exact(self):
        values = np.array([2**62, 2**62 - 1, 5], dtype=np.int64)
        inverse = np.array([0, 0, 1])
        totals = engine._sum_int64(inverse, values, 2, "bytes")
        assert totals.tolist() == [2**63 - 1, 5]

    def test_overflowing_sum_raises_instead_of_wrapping(self):
        values = np.array([2**62, 2**62], dtype=np.int64)
        with pytest.raises(OverflowError, match="bytes"):
            engine._sum_int64(np.zeros(2, dtype=np.int64), values, 1,
                              "bytes")

    def test_partials_past_int64_raise(self):
        spec = _spec(aggregates=["bytes"])

        def partial(total):
            return engine.Partial(
                1, (), {"bytes": np.array([total], dtype=np.int64)}, {}
            )

        merged = engine._merge_partials(
            spec, [partial(2**62), partial(2**62 - 1)]
        )
        assert merged.sums["bytes"].tolist() == [2**63 - 1]
        with pytest.raises(OverflowError):
            engine._merge_partials(spec, [partial(2**62), partial(2**62)])

    def test_negative_extremes_are_exact(self):
        values = np.array([-(2**62), -(2**62), 7, -7], dtype=np.int64)
        inverse = np.array([0, 0, 1, 1])
        totals = engine._sum_int64(inverse, values, 2, "bytes")
        assert totals.tolist() == [-(2**63), 0]


# --- columnar results ----------------------------------------------------


class TestColumnarResult:
    def test_rows_built_per_access_from_arrays(self, fixture_store):
        result = execute_query(
            fixture_store,
            _spec(group_by=["proto"], aggregates=["bytes", "flows"],
                  bucket="day"),
        )
        first, second = result.rows, result.rows
        assert first == second and first is not second
        assert result.n_rows == len(first) == fx.DAYS * 2
        assert result.column("day")[0] == fx.START.isoformat()
        assert result.column("bytes") == [row["bytes"] for row in first]
        assert all(type(row["bytes"]) is int for row in first)

    def test_arrays_are_read_only(self, fixture_store):
        result = execute_query(
            fixture_store,
            _spec(group_by=["transport"],
                  aggregates=["bytes", "distinct_dst_ips"]),
        )
        for values in result.arrays.values():
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[:1] = 0

    def test_cached_results_share_read_only_arrays(self, fixture_store):
        spec = _spec(group_by=["proto"],
                     aggregates=["bytes", "distinct_src_ips"])
        with QueryService({"fixture": fixture_store}, workers=1) as service:
            first = service.run(spec)
            hit = service.run(spec)
        assert hit.from_cache and not first.from_cache
        for name, values in first.arrays.items():
            assert hit.arrays[name] is values
            assert not values.flags.writeable
        assert hit.rows == first.rows

    def test_hourly_reads_arrays(self, fixture_store):
        result = execute_query(
            fixture_store, _spec(aggregates=["bytes"], bucket="hour")
        )
        start = timebase.hour_index(fx.START, 0)
        series = result.hourly("bytes", start, start + 24 * fx.DAYS)
        expected = np.zeros(24 * fx.DAYS, dtype=np.int64)
        for row in result.rows:
            expected[row["hour"] - start] = row["bytes"]
        assert np.array_equal(series, expected)

    def test_empty_result(self, fixture_store):
        result = execute_query(
            fixture_store,
            _spec(where={"proto": 1}, group_by=["transport"],
                  aggregates=["bytes", "distinct_dst_ips"]),
        )
        assert result.rows == [] and result.n_rows == 0


# --- the shard payload ---------------------------------------------------


class TestShardPayload:
    def test_payload_is_the_only_pickle(self, fixture_store):
        spec = _spec(group_by=["transport"],
                     aggregates=["bytes", "distinct_dst_ips"], bucket="day")
        isos = [day.isoformat() for day in fixture_store.days()]
        outcome = procpool.scan_shard(str(fixture_store.root), isos, spec)
        assert outcome.ipc_bytes == len(outcome.payload) > 0
        merged = outcome.partial()
        serial = engine._merge_partials(spec, [
            engine.scan_partition(fixture_store, day, spec)[0]
            for day in fixture_store.days()
        ])
        for a, b in zip(merged.keys, serial.keys):
            assert np.array_equal(a, b)
        assert np.array_equal(merged.sums["bytes"], serial.sums["bytes"])
        assert np.array_equal(
            merged.registers["distinct_dst_ips"].entries,
            serial.registers["distinct_dst_ips"].entries,
        )

    def test_thread_and_process_pools_return_identical_partials(
        self, fixture_store
    ):
        spec = _spec(group_by=["proto"], aggregates=["distinct_src_ips"])
        kinds = ["thread"]
        if procpool.processes_supported():
            kinds.append("process")
        payloads = []
        for kind in kinds:
            with ScanPool(1, kind=kind) as pool:
                payloads.append(pool.submit_shard(
                    fixture_store, fixture_store.days(), spec
                ).result(timeout=60))
        partials = [outcome.partial() for outcome in payloads]
        for other in partials[1:]:
            assert np.array_equal(
                other.registers["distinct_src_ips"].entries,
                partials[0].registers["distinct_src_ips"].entries,
            )


# --- failures stay shard-granular ---------------------------------------

_REAL_SCAN_SHARD = procpool.scan_shard
_VICTIM = (fx.START + dt.timedelta(days=1)).isoformat()


def _raising_scan_shard(root, day_isos, spec):
    if _VICTIM in day_isos:
        raise RuntimeError("worker died")
    return _REAL_SCAN_SHARD(root, day_isos, spec)


def _dying_scan_shard(root, day_isos, spec):
    if _VICTIM in day_isos:
        os._exit(1)
    return _REAL_SCAN_SHARD(root, day_isos, spec)


def _by_day(result):
    return {row["day"]: row for row in result.rows}


class TestShardFailures:
    SPEC = dict(group_by=["proto"], aggregates=["bytes"], bucket="day")

    def test_failed_shard_fails_only_its_days(
        self, fixture_store, monkeypatch
    ):
        monkeypatch.setattr(procpool, "scan_shard", _raising_scan_shard)
        serial = execute_query(fixture_store, _spec(**self.SPEC))
        with ScanPool(3, kind="thread") as pool:
            sharded = execute_query(
                fixture_store, _spec(**self.SPEC), pool=pool
            )
        assert [f.day for f in sharded.partitions_failed] == [_VICTIM]
        assert "worker died" in sharded.partitions_failed[0].error
        expected = [row for row in serial.rows if row["day"] != _VICTIM]
        assert sharded.rows == expected

    @pytest.mark.skipif(
        not procpool.processes_supported(),
        reason="no fork/forkserver start method on this platform",
    )
    def test_dead_worker_fails_whole_shards_only(
        self, fixture_store, monkeypatch
    ):
        monkeypatch.setattr(procpool, "scan_shard", _dying_scan_shard)
        serial = _by_day(execute_query(fixture_store, _spec(**self.SPEC)))
        with ScanPool(2, kind="process") as pool:
            result = execute_query(
                fixture_store, _spec(**self.SPEC), pool=pool
            )
        failed = {f.day for f in result.partitions_failed}
        assert _VICTIM in failed
        days = [day.isoformat() for day in fixture_store.days()]
        shards = procpool.shard_days(fixture_store.days(), 2)
        for shard in shards:
            isos = {day.isoformat() for day in shard}
            assert isos <= failed or not isos & failed
        assert result.partitions_scanned + len(failed) == len(days)
        for day, row in _by_day(result).items():
            assert day not in failed
            assert row == serial[day]


# --- query --json against the recorded per-group sketch engine ----------


class TestQueryJsonGolden:
    @pytest.mark.parametrize("name", sorted(fx.GOLDEN_QUERIES))
    def test_output_matches_golden(self, name, fixture_store):
        golden = json.loads(fx.GOLDEN.read_text())[name]
        payload = fx.run_query_json(
            fixture_store.root, fx.GOLDEN_QUERIES[name]
        )
        assert json.dumps(payload, indent=2, sort_keys=True) == json.dumps(
            golden, indent=2, sort_keys=True
        )
