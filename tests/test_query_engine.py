"""Unit tests for query planning and partitioned execution."""

import datetime as dt
import threading
import time

import numpy as np
import pytest

from repro import timebase
from repro.flows.store import FlowStore
from repro.flows.table import FlowTable
from repro.query import (
    QueryCancelled,
    QuerySpec,
    QueryTimeout,
    ScanPool,
    execute_plan,
    execute_query,
    plan_query,
)

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["base"], fidelity=0.3
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory, week_flows):
    store = FlowStore(tmp_path_factory.mktemp("engine") / "isp-ce")
    store.write_range(week_flows, START, END)
    return store


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


class TestPlanning:
    def test_full_range_scans_everything(self, store):
        plan = plan_query(store, _spec())
        assert len(plan.days) == 7
        assert plan.n_pruned == 0
        assert plan.missing_days == ()

    def test_out_of_range_partitions_pruned(self, store):
        plan = plan_query(
            store, _spec(start=dt.date(2020, 2, 20), end=dt.date(2020, 2, 21))
        )
        assert len(plan.days) == 2
        assert plan.pruned_out_of_range == 5

    def test_hour_window_prunes_disjoint_days(self, store):
        # One day's 24 bins: every other partition cannot contribute.
        day_start = timebase.hour_index(dt.date(2020, 2, 21), 0)
        plan = plan_query(
            store,
            _spec(where={"hour": {"min": day_start, "max": day_start + 23}}),
        )
        assert [d.isoformat() for d in plan.days] == ["2020-02-21"]
        assert plan.pruned_by_hour == 6

    def test_empty_partitions_pruned(self, tmp_path, week_flows):
        store = FlowStore(tmp_path / "sparse")
        store.write_day(START, FlowTable.empty())
        day = dt.date(2020, 2, 20)
        start = timebase.hour_index(day, 0)
        store.write_day(day, week_flows.between_hours(start, start + 24))
        plan = plan_query(store, _spec())
        assert plan.days == (day,)
        assert plan.pruned_empty == 1

    def test_missing_days_reported(self, store):
        plan = plan_query(store, _spec(end=dt.date(2020, 2, 27)))
        assert plan.missing_days == (
            dt.date(2020, 2, 26), dt.date(2020, 2, 27),
        )


class TestBatchParity:
    def test_ungrouped_totals_exact(self, store, week_flows):
        result = execute_query(
            store, _spec(aggregates=["bytes", "packets", "flows"])
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["bytes"] == week_flows.total_bytes()
        assert row["packets"] == int(week_flows.column("n_packets").sum())
        assert row["flows"] == len(week_flows)
        assert result.rows_scanned == len(week_flows)

    def test_transport_grouping_matches_batch(self, store, week_flows):
        from repro.flows.table import transport_label

        result = execute_query(
            store, _spec(group_by=["transport"], aggregates=["bytes"])
        )
        mix = {
            transport_label(int(row["transport"])): int(row["bytes"])
            for row in result.rows
        }
        assert mix == week_flows.bytes_by_transport_key()

    def test_hour_bucket_matches_hourly_bytes(self, store, week_flows):
        start, stop = timebase.MACRO_WEEKS["base"].hour_range()
        result = execute_query(store, _spec(bucket="hour"))
        assert np.array_equal(
            result.hourly("bytes", start, stop),
            week_flows.hourly_bytes(start, stop),
        )

    def test_day_bucket_sums_to_days(self, store, week_flows):
        result = execute_query(store, _spec(bucket="day"))
        assert [row["day"] for row in result.rows] == [
            d.isoformat() for d in store.days()
        ]
        hours = week_flows.column("hour")
        n_bytes = week_flows.column("n_bytes")
        for row in result.rows:
            day = dt.date.fromisoformat(row["day"])
            day_start = timebase.hour_index(day, 0)
            mask = (hours >= day_start) & (hours < day_start + 24)
            assert row["bytes"] == int(n_bytes[mask].sum())

    def test_predicates_match_mask(self, store, week_flows):
        result = execute_query(
            store,
            _spec(where={"proto": 17, "service_port": {"min": 0, "max": 1023}},
                  aggregates=["bytes", "flows"]),
        )
        mask = (week_flows.key_array("proto") == 17) & (
            week_flows.key_array("service_port") <= 1023
        )
        expected = week_flows.filter(mask)
        assert result.rows_matched == len(expected)
        total = sum(row["bytes"] for row in result.rows)
        assert total == expected.total_bytes()

    def test_multi_key_grouping_matches_batch(self, store, week_flows):
        result = execute_query(
            store,
            _spec(group_by=["proto", "service_port"], aggregates=["bytes"]),
        )
        protos = week_flows.key_array("proto")
        ports = week_flows.key_array("service_port")
        n_bytes = week_flows.column("n_bytes")
        expected = {}
        for proto, port, value in zip(protos, ports, n_bytes):
            key = (int(proto), int(port))
            expected[key] = expected.get(key, 0) + int(value)
        got = {
            (row["proto"], row["service_port"]): row["bytes"]
            for row in result.rows
        }
        assert got == expected

    def test_distinct_ips_within_hll_error(self, store, week_flows):
        result = execute_query(store, _spec(aggregates=["distinct_dst_ips"]))
        exact = len(np.unique(week_flows.column("dst_ip")))
        assert result.hll_error > 0
        assert result.rows[0]["distinct_dst_ips"] == pytest.approx(
            exact, rel=0.05
        )

    def test_pool_matches_serial(self, store):
        spec = _spec(group_by=["transport"], aggregates=["bytes", "flows"])
        serial = execute_query(store, spec)
        with ScanPool(4, kind="thread") as pool:
            parallel = execute_query(store, spec, pool=pool)
        assert parallel.rows == serial.rows
        assert parallel.partitions_scanned == serial.partitions_scanned

    def test_empty_result(self, store):
        result = execute_query(store, _spec(where={"proto": 999}))
        assert result.rows == []
        assert result.rows_matched == 0


class TestFailureHandling:
    @pytest.fixture
    def flaky_store(self, tmp_path, week_flows):
        store = FlowStore(tmp_path / "flaky")
        store.write_range(week_flows, START, END)
        victim = store.root / "2020-02-21" / "sidecar.json"
        payload = bytearray(victim.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        victim.write_bytes(bytes(payload))
        return store

    def test_corrupt_partition_is_reported_not_raised(
        self, flaky_store, store
    ):
        spec = _spec(aggregates=["bytes"])
        result = execute_query(flaky_store, spec)
        assert result.n_failed == 1
        assert result.partitions_failed[0].day == "2020-02-21"
        assert "corrupt" in result.partitions_failed[0].error
        assert result.partitions_scanned == 6
        # The healthy partitions still aggregate: total bytes equals the
        # intact store's total minus the victim day.
        intact = execute_query(store, spec).rows[0]["bytes"]
        victim = execute_query(
            store,
            _spec(start=dt.date(2020, 2, 21), end=dt.date(2020, 2, 21)),
        ).rows[0]["bytes"]
        assert result.rows[0]["bytes"] == intact - victim

    def test_corrupt_partition_reported_with_pool(self, flaky_store):
        with ScanPool(4, kind="thread") as pool:
            result = execute_query(
                flaky_store, _spec(aggregates=["bytes"]), pool=pool
            )
        assert result.n_failed == 1
        assert result.partitions_scanned == 6


class TestInterrupts:
    def test_expired_deadline_times_out(self, store):
        with pytest.raises(QueryTimeout):
            execute_query(
                store, _spec(), deadline=time.monotonic() - 1.0
            )

    def test_cancel_event_aborts(self, store):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(QueryCancelled):
            execute_query(store, _spec(), cancel=cancel)

    def test_plan_execute_split(self, store):
        plan = plan_query(store, _spec(aggregates=["flows"]))
        result = execute_plan(store, plan)
        assert result.partitions_planned == len(plan.days)
        assert result.rows[0]["flows"] == store.total_flows()
