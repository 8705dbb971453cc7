"""Unit tests for the concurrent query service."""

import datetime as dt
import threading
import time
from concurrent.futures import CancelledError

import pytest

import repro.obs as obs
from repro import timebase
from repro.flows.store import FlowStore
from repro.query import (
    QueryCancelled,
    QueryError,
    QueryRejected,
    QueryService,
    QuerySpec,
    QueryTimeout,
)
from repro.query import engine
from repro.query import service as service_mod

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["base"], fidelity=0.3
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, week_flows):
    root = tmp_path_factory.mktemp("service") / "isp-ce"
    FlowStore(root).write_range(week_flows, START, END)
    return root


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


@pytest.fixture
def blocked_service(store_dir, monkeypatch):
    """A one-worker service whose engine blocks until released.

    Lets tests fill the admission queue deterministically.
    """
    gate = threading.Event()
    real_execute = service_mod.engine.execute_query

    def gated_execute(store, spec, **kwargs):
        gate.wait(timeout=10.0)
        return real_execute(store, spec, **kwargs)

    monkeypatch.setattr(
        service_mod.engine, "execute_query", gated_execute
    )
    service = QueryService(
        {"isp-ce": store_dir}, workers=1, queue_capacity=1,
        default_timeout=30.0,
    )
    try:
        yield service, gate
    finally:
        gate.set()
        service.close()


def _occupy_worker(service) -> object:
    """Submit one query and wait until the worker has dequeued it."""
    ticket = service.submit(_spec(aggregates=["flows"]))
    for _ in range(100):
        if service._queue.qsize() == 0:
            break
        threading.Event().wait(0.01)
    return ticket


class TestExecution:
    def test_run_round_trips(self, store_dir, week_flows):
        with QueryService({"isp-ce": store_dir}, workers=2) as service:
            result = service.run(_spec(aggregates=["bytes", "flows"]))
        assert result.rows[0]["bytes"] == week_flows.total_bytes()
        assert result.rows[0]["flows"] == len(week_flows)
        assert not result.from_cache

    def test_many_queries_all_served(self, store_dir):
        specs = [
            _spec(where={"service_port": port}, aggregates=["bytes"])
            for port in range(1, 41)
        ]
        with QueryService(
            {"isp-ce": store_dir}, workers=4, queue_capacity=64
        ) as service:
            tickets = [service.submit(s) for s in specs]
            results = [t.result(timeout=60.0) for t in tickets]
            stats = service.stats
        assert stats.served == len(specs)
        assert stats.failed == 0
        assert all(r.n_failed == 0 for r in results)

    def test_unknown_vantage_rejected(self, store_dir):
        with QueryService({"isp-ce": store_dir}) as service:
            with pytest.raises(QueryError, match="unknown vantage"):
                service.submit(_spec(vantage="edu"))

    def test_closed_service_rejects(self, store_dir):
        service = QueryService({"isp-ce": store_dir}, workers=1)
        service.close()
        with pytest.raises(QueryError, match="closed"):
            service.submit(_spec())
        service.close()  # idempotent

    def test_describe_is_manifest_ready(self, store_dir):
        with QueryService({"isp-ce": store_dir}, workers=2) as service:
            service.run(_spec())
            described = service.describe()
        assert described["name"] == "query-service"
        assert described["workers"] == 2
        assert described["vantages"] == ["isp-ce"]
        assert described["stats"]["served"] == 1
        assert described["scan_pool"] == {"kind": "inline", "width": 2}


class TestCache:
    def test_repeat_query_hits_cache(self, store_dir):
        with QueryService({"isp-ce": store_dir}) as service:
            first = service.run(_spec(group_by=["transport"]))
            second = service.run(_spec(group_by=["transport"]))
            stats = service.stats
        assert not first.from_cache
        assert second.from_cache
        assert second.rows == first.rows
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_equivalent_spellings_share_cache(self, store_dir):
        with QueryService({"isp-ce": store_dir}) as service:
            service.run(_spec(where={"proto": [17, 6]}))
            result = service.run(_spec(where={"proto": (6, 17)}))
        assert result.from_cache

    def test_store_write_invalidates(self, tmp_path, week_flows):
        root = tmp_path / "isp-ce"
        store = FlowStore(root)
        store.write_range(week_flows, START, END)
        with QueryService({"isp-ce": store}) as service:
            first = service.run(_spec(aggregates=["flows"]))
            day_start = timebase.hour_index(END, 0)
            truncated = week_flows.between_hours(
                day_start, day_start + 24
            ).head(10)
            store.write_day(END, truncated)
            result = service.run(_spec(aggregates=["flows"]))
            stats = service.stats
        assert not result.from_cache
        assert result.rows[0]["flows"] < first.rows[0]["flows"]
        assert stats.cache_misses == 2

    def test_lru_eviction(self, store_dir):
        with QueryService(
            {"isp-ce": store_dir}, cache_entries=2
        ) as service:
            for port in (80, 443, 8080):
                service.run(_spec(where={"service_port": port}))
            assert service.cache_size == 2
            # The oldest entry (port 80) was evicted; re-running misses.
            service.run(_spec(where={"service_port": 80}))
            stats = service.stats
        assert stats.cache_hits == 0
        assert stats.cache_misses == 4


class TestAdmission:
    def test_saturated_queue_sheds_load(self, blocked_service):
        service, gate = blocked_service
        running = _occupy_worker(service)
        queued = service.submit(_spec(aggregates=["bytes"]))
        with pytest.raises(QueryRejected, match="admission queue full"):
            service.submit(_spec(aggregates=["packets"]))
        assert service.stats.rejected == 1
        gate.set()
        assert running.result(timeout=30.0).rows
        assert queued.result(timeout=30.0).rows

    def test_queue_wait_counts_against_deadline(self, blocked_service):
        service, gate = blocked_service
        running = _occupy_worker(service)
        starved = service.submit(_spec(aggregates=["bytes"]), timeout=0.05)
        threading.Event().wait(0.2)
        gate.set()
        running.result(timeout=30.0)
        with pytest.raises(QueryTimeout, match="admission queue"):
            starved.result(timeout=30.0)
        assert service.stats.timeouts == 1
        assert service.stats.failed == 1

    def test_cancel_queued_query(self, blocked_service):
        service, gate = blocked_service
        running = _occupy_worker(service)
        queued = service.submit(_spec(aggregates=["bytes"]))
        assert queued.cancel()
        gate.set()
        running.result(timeout=30.0)
        with pytest.raises(CancelledError):
            queued.result(timeout=30.0)
        for _ in range(100):
            if service.stats.cancelled:
                break
            threading.Event().wait(0.01)
        assert service.stats.cancelled == 1


class TestTelemetry:
    def test_query_counters_recorded(self, store_dir):
        obs.configure(telemetry=True)
        try:
            with QueryService({"isp-ce": store_dir}) as service:
                service.run(_spec())
                service.run(_spec())
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert counters["query.submitted"] == 2
        assert counters["query.served"] == 2
        assert counters["query.cache-hits"] == 1
        assert counters["query.partitions-scanned"] == 7


class TestInterruptDrill:
    """Workers scan inline; deadlines and cancels land between partitions."""

    @pytest.fixture
    def slow_scans(self, monkeypatch):
        """Every partition scan sleeps 0.2 s; yields a 'scan began' event."""
        real_scan = engine.scan_partition
        began = threading.Event()

        def slow_scan(store, day, spec):
            began.set()
            time.sleep(0.2)
            return real_scan(store, day, spec)

        monkeypatch.setattr(engine, "scan_partition", slow_scan)
        return began

    def test_deadline_hits_at_partition_boundary(
        self, store_dir, slow_scans, monkeypatch
    ):
        with QueryService({"isp-ce": store_dir}, workers=1) as service:
            t0 = time.monotonic()
            ticket = service.submit(
                _spec(aggregates=["flows"], where={"proto": 6}), timeout=0.3
            )
            with pytest.raises(QueryTimeout, match=r"after \d/7 partitions"):
                ticket.result(timeout=10.0)
            # Raised at the first boundary past the deadline, not after
            # all seven 0.2 s scans.
            assert time.monotonic() - t0 < 1.2
            monkeypatch.undo()
            # The same (only) worker serves the next query.
            result = service.run(_spec(aggregates=["flows"]))
            assert result.n_failed == 0
            assert result.partitions_scanned == 7
            stats = service.stats
        assert stats.timeouts == 1
        assert stats.served == 1

    def test_cancel_aborts_running_query(self, store_dir, slow_scans):
        with QueryService({"isp-ce": store_dir}, workers=1) as service:
            ticket = service.submit(
                _spec(aggregates=["bytes"], where={"proto": 17})
            )
            assert slow_scans.wait(timeout=10.0)
            assert ticket.cancel()
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=10.0)
            assert service.stats.failed == 1
