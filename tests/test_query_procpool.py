"""Tests for process-based scatter-gather shard execution.

Covers the :mod:`repro.query.procpool` pool itself (sharding, fork
fallback, zombie-free shutdown), bit-identical parity across the
serial / thread / process execution modes, the picklable v2 partition
handles that make fan-out cheap, the per-process verified-open store
cache, and — via hypothesis — that the partial merge is order- and
grouping-insensitive.
"""

import datetime as dt
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
from repro.flows.colstore import ColumnarPartition
from repro.flows.hll import GroupedRegisters
from repro.flows.store import FlowStore, open_cached
from repro.query import (
    QueryCancelled,
    QuerySpec,
    QueryTimeout,
    ScanPool,
    execute_query,
    make_scan_pool,
    shard_days,
)
from repro.query import engine, procpool

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)

needs_fork = pytest.mark.skipif(
    not procpool.processes_supported(),
    reason="no fork/forkserver start method on this platform",
)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["base"], fidelity=0.3
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory, week_flows):
    store = FlowStore(tmp_path_factory.mktemp("procpool") / "isp-ce")
    store.write_range(week_flows, START, END)
    return store


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


#: Query shapes that exercise grouping, bucketing, sketches, and
#: predicates — the parity sweep runs each through every mode.
SHAPES = (
    dict(aggregates=["bytes", "packets", "flows"]),
    dict(group_by=["transport"], aggregates=["bytes", "flows"]),
    dict(bucket="hour", aggregates=["bytes", "connections"]),
    dict(bucket="day", aggregates=["distinct_dst_ips"]),
    dict(where={"proto": 17}, group_by=["service_port"],
         aggregates=["bytes"]),
)


class TestShardDays:
    def test_empty_days(self):
        assert shard_days([], 4) == []

    def test_covers_every_day_once_in_order(self):
        days = [START + dt.timedelta(days=i) for i in range(7)]
        shards = shard_days(days, 2)
        flattened = [day for shard in shards for day in shard]
        assert flattened == days

    def test_shard_count_bounded(self):
        days = [START + dt.timedelta(days=i) for i in range(7)]
        assert len(shard_days(days, 2)) <= 4
        assert len(shard_days(days, 16)) == 7  # never more than days
        assert len(shard_days(days[:1], 8)) == 1

    def test_shards_are_contiguous_runs(self):
        days = [START + dt.timedelta(days=i) for i in range(11)]
        for shard in shard_days(days, 3):
            deltas = {
                (b - a).days for a, b in zip(shard, shard[1:])
            }
            assert deltas <= {1}


class TestModeParity:
    """Serial, thread-shard, and process-shard runs are bit-identical."""

    @needs_fork
    def test_process_pool_matches_serial(self, store):
        with ScanPool(2) as pool:
            assert pool.kind == "process"
            for shape in SHAPES:
                serial = execute_query(store, _spec(**shape))
                sharded = execute_query(store, _spec(**shape), pool=pool)
                assert sharded.rows == serial.rows
                assert sharded.rows_scanned == serial.rows_scanned
                assert sharded.bytes_read == serial.bytes_read
                assert sharded.n_failed == 0

    def test_thread_shard_pool_matches_serial(self, store):
        with ScanPool(2, kind="thread") as pool:
            for shape in SHAPES:
                serial = execute_query(store, _spec(**shape))
                sharded = execute_query(store, _spec(**shape), pool=pool)
                assert sharded.rows == serial.rows
                assert sharded.rows_scanned == serial.rows_scanned

    def test_legacy_thread_executor_still_works(self, store):
        with ThreadPoolExecutor(max_workers=2) as pool:
            serial = execute_query(store, _spec(group_by=["transport"]))
            threaded = execute_query(
                store, _spec(group_by=["transport"]), pool=pool
            )
            assert threaded.rows == serial.rows

    @needs_fork
    def test_corrupt_partition_fails_identically(
        self, tmp_path, week_flows
    ):
        broken = FlowStore(tmp_path / "broken")
        broken.write_range(week_flows, START, END)
        day_dir = tmp_path / "broken" / "2020-02-21"
        # v2 stores column .npy segments, v3 one segments.bin blob.
        for segment in (*day_dir.glob("*.npy"), *day_dir.glob("*.bin")):
            segment.write_bytes(b"corrupt")
        # A predicate forces a real segment scan — the sidecar
        # pre-aggregates would otherwise answer and hide the damage.
        shape = dict(where={"proto": 6}, aggregates=["bytes"])
        serial = execute_query(broken, _spec(**shape))
        assert serial.n_failed == 1
        with ScanPool(2) as pool:
            sharded = execute_query(broken, _spec(**shape), pool=pool)
        assert sharded.rows == serial.rows
        assert sharded.n_failed == 1
        assert [f.day for f in sharded.partitions_failed] == [
            f.day for f in serial.partitions_failed
        ]

    def test_escape_hatch_falls_back_to_threads(self, store, monkeypatch):
        monkeypatch.setenv(procpool.DISABLE_ENV, "1")
        assert not procpool.processes_supported()
        with ScanPool(2, kind="process") as pool:
            assert pool.kind == "thread"
            serial = execute_query(store, _spec(group_by=["transport"]))
            sharded = execute_query(
                store, _spec(group_by=["transport"]), pool=pool
            )
            assert sharded.rows == serial.rows

    def test_start_method_override_honored(self, monkeypatch):
        monkeypatch.setenv(procpool.START_ENV, "forkserver")
        if "forkserver" in __import__("multiprocessing").get_all_start_methods():
            assert procpool.start_method() == "forkserver"
        monkeypatch.setenv(procpool.START_ENV, "bogus")
        assert procpool.start_method() in (None, "fork", "forkserver")


class TestLifecycle:
    @needs_fork
    def test_close_terminates_sleeping_workers(self):
        pool = ScanPool(2)
        pids = {pool.submit(os.getpid).result() for _ in range(8)}
        pool.submit(time.sleep, 60.0)
        t0 = time.monotonic()
        pool.close(grace=0.5)
        assert time.monotonic() - t0 < 10.0
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

    @needs_fork
    def test_pending_futures_cancelled_on_close(self):
        pool = ScanPool(1)
        pool.submit(os.getpid).result()  # spawn the worker
        futures = [pool.submit(time.sleep, 60.0) for _ in range(4)]
        pool.close(grace=0.2)
        # No future may be left dangling: each is cancelled outright or
        # finished abnormally when its worker was terminated.
        assert all(f.cancelled() or f.done() for f in futures)
        assert any(f.cancelled() for f in futures)

    def test_closed_pool_rejects_submits(self):
        pool = ScanPool(1, kind="thread")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.submit(os.getpid)

    def test_make_scan_pool_zero_is_none(self):
        assert make_scan_pool(0) is None
        assert make_scan_pool(-3) is None
        with make_scan_pool(1) as pool:
            assert isinstance(pool, ScanPool)


class TestTimeoutDrill:
    """A worker sleeping past the deadline must not wedge the query.

    The drill uses a thread-backed shard pool so the monkeypatched
    ``scan_partition`` is visible to the workers (they share this
    process), with sleeps short enough for the non-daemon threads to
    drain at teardown.
    """

    def test_timeout_leaves_pool_usable(self, store, monkeypatch):
        real_scan = engine.scan_partition

        def slow_scan(store_, day, spec):
            time.sleep(1.5)
            return real_scan(store_, day, spec)

        monkeypatch.setattr(engine, "scan_partition", slow_scan)
        with ScanPool(2, kind="thread") as pool:
            t0 = time.monotonic()
            with pytest.raises(QueryTimeout):
                execute_query(
                    store, _spec(), pool=pool,
                    deadline=time.monotonic() + 0.3,
                )
            assert time.monotonic() - t0 < 1.4  # did not wait for sleeps
            monkeypatch.setattr(engine, "scan_partition", real_scan)
            # Abandoned shard tasks drain; the pool takes new work.
            deadline = time.monotonic() + 10.0
            while pool.outstanding() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.outstanding() == 0
            result = execute_query(store, _spec(), pool=pool)
            assert result.n_failed == 0

    def test_cancel_aborts_sharded_run(self, store):
        cancel = threading.Event()
        cancel.set()
        with ScanPool(2, kind="thread") as pool:
            with pytest.raises(QueryCancelled):
                execute_query(store, _spec(), pool=pool, cancel=cancel)


class TestPicklableHandles:
    def test_partition_handle_round_trips(self, store):
        partition = store.open_partition(START)
        clone = pickle.loads(pickle.dumps(partition))
        assert isinstance(clone, ColumnarPartition)
        bundle, _ = clone.load(("n_bytes", "proto"))
        original, _ = partition.load(("n_bytes", "proto"))
        assert np.array_equal(
            bundle.column("n_bytes"), original.column("n_bytes")
        )

    def test_bundle_pickles_by_source_not_bytes(self, store):
        partition = store.open_partition(START)
        bundle, _ = partition.load(("n_bytes", "proto"))
        payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        data_bytes = sum(
            bundle.column(name).nbytes for name in ("n_bytes", "proto")
        )
        # The payload is sidecar metadata (v3 carries per-part offsets
        # and checksums), never the mapped column bytes.
        assert len(payload) < max(4096, data_bytes // 4)
        clone = pickle.loads(payload)
        assert np.array_equal(
            clone.column("proto"), bundle.column("proto")
        )

    def test_sourceless_bundle_ships_arrays(self, store):
        partition = store.open_partition(START)
        bundle, _ = partition.load(("proto",))
        bundle._source = None  # as if assembled by hand
        clone = pickle.loads(pickle.dumps(bundle))
        assert np.array_equal(
            clone.column("proto"), bundle.column("proto")
        )

    def test_open_cached_identity_and_invalidation(self, store):
        root = str(store.root)
        first = open_cached(root)
        assert open_cached(root) is first
        manifest = store.root / "manifest.json"
        stat = manifest.stat()
        os.utime(
            manifest,
            ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000),
        )
        assert open_cached(root) is not first


class TestShardMetrics:
    @needs_fork
    def test_ipc_and_shard_counters_recorded(self, store):
        import repro.obs as obs
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        prior = obs.get_registry()
        obs.set_registry(registry)
        try:
            with ScanPool(2) as pool:
                execute_query(store, _spec(), pool=pool)
                described = pool.describe()
        finally:
            obs.set_registry(prior)
        counters = registry.snapshot()["counters"]
        assert counters["query.proc.shards"] > 0
        assert counters["query.proc.ipc-bytes"] > 0
        assert described["kind"] == "process"
        assert described["worker_scan_s"]  # per-worker attribution


# --- merge-order property (hypothesis) --------------------------------

#: Group keys drawn from a small universe so partials overlap, values
#: past 2**53 so any float roundtrip would be caught.  Sums are int64:
#: six partials of at most 2**60 stay below 2**63.
_group = st.tuples(st.integers(0, 3), st.integers(0, 3))
_partial = st.dictionaries(
    _group,
    st.tuples(
        st.integers(min_value=2**53, max_value=2**60),
        st.lists(st.integers(0, 2**32 - 1), max_size=6),
    ),
    max_size=4,
)


#: Two key columns, one exact and one distinct-count aggregate.
_MERGE_SPEC = QuerySpec.build(
    "isp-ce", START, END, group_by=["proto", "dst_port"],
    aggregates=["bytes", "distinct_dst_ips"], hll_p=8,
)


def _materialize(description):
    """One columnar partial from ``{group: (bytes total, addresses)}``."""
    groups = sorted(description)
    ids, addresses = [], []
    for gid, group in enumerate(groups):
        values = description[group][1] or [gid]
        ids.extend([gid] * len(values))
        addresses.extend(values)
    return engine.Partial(
        n_groups=len(groups),
        keys=tuple(
            np.array([group[k] for group in groups], dtype=np.int64)
            for k in range(2)
        ),
        sums={"bytes": np.array(
            [description[group][0] for group in groups], dtype=np.int64
        )},
        registers={"distinct_dst_ips": GroupedRegisters.from_values(
            np.asarray(addresses, dtype=np.uint64),
            np.asarray(ids, dtype=np.int64), p=8,
        )} if groups else {},
    )


def _fold(descriptions, order):
    return engine._merge_partials(
        _MERGE_SPEC, [_materialize(descriptions[i]) for i in order]
    )


def _assert_identical(left, right):
    assert left.n_groups == right.n_groups
    for a, b in zip(left.keys, right.keys):
        assert np.array_equal(a, b)
    assert left.sums.keys() == right.sums.keys()
    for name, values in left.sums.items():
        assert values.dtype == np.int64
        assert np.array_equal(values, right.sums[name])
    assert left.registers.keys() == right.registers.keys()
    for name, registers in left.registers.items():
        assert np.array_equal(
            registers.entries, right.registers[name].entries
        )


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        descriptions=st.lists(_partial, min_size=1, max_size=6),
        data=st.data(),
    )
    def test_merge_is_order_insensitive(self, descriptions, data):
        order = data.draw(
            st.permutations(range(len(descriptions))), label="order"
        )
        baseline = _fold(descriptions, range(len(descriptions)))
        shuffled = _fold(descriptions, order)
        _assert_identical(baseline, shuffled)

    @settings(max_examples=50, deadline=None)
    @given(
        descriptions=st.lists(_partial, min_size=2, max_size=6),
        data=st.data(),
    )
    def test_merge_is_grouping_insensitive(self, descriptions, data):
        """Pre-merging shards worker-side changes nothing (associativity)."""
        split = data.draw(
            st.integers(1, len(descriptions) - 1), label="split"
        )
        baseline = _fold(descriptions, range(len(descriptions)))
        left = _fold(descriptions, range(split))
        right = _fold(descriptions, range(split, len(descriptions)))
        combined = engine._merge_partials(_MERGE_SPEC, [left, right])
        _assert_identical(baseline, combined)
