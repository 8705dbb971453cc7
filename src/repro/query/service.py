"""The in-process query service: admission, workers, cache, telemetry.

:class:`QueryService` fronts one or more partitioned
:class:`~repro.flows.store.FlowStore`\\ s (one per vantage point) with
the machinery a shared analytics endpoint needs:

* a **bounded admission queue** — :meth:`submit` enqueues or raises
  :class:`~repro.query.errors.QueryRejected` immediately when the queue
  is full, so a saturated service sheds load instead of growing without
  bound;
* a pool of **worker threads** draining the queue, each scanning its
  query's partitions inline (or, with ``scan_procs``, sharding them
  across a shared process scan pool);
* per-query **deadlines and cancellation** — a query carries its
  deadline from submission, so time spent queued counts against it, and
  :meth:`QueryTicket.cancel` aborts between partitions;
* an **LRU result cache** keyed by ``(spec fingerprint, store state
  token)`` — equal queries served from memory until the underlying
  store changes;
* full :mod:`repro.obs` integration — ``query.*`` counters
  (submitted/served/failed/rejected/timeouts, cache hits/misses,
  partition and row traffic), a ``query.queue-depth`` gauge kept
  accurate on enqueue *and* drain, latency / queue-wait / per-stage
  timers, and one span per executed query;
* a per-query **stage breakdown** — queue wait, planning, partition
  scans, merges, and result-cache store stamped onto every result's
  ``stages`` dict — feeding an optional
  :class:`~repro.obs.slowlog.SlowQueryLog` that captures the spec,
  the plan, and the full breakdown for queries over a latency budget.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import repro.obs as obs
from repro.flows.store import FlowStore
from repro.obs.slowlog import SlowQueryLog
from repro.query import engine, procpool
from repro.query.errors import QueryError, QueryRejected, QueryTimeout
from repro.query.spec import QuerySpec

PathLike = Union[str, Path]

#: Cache key: (spec fingerprint, store state token).
CacheKey = Tuple[str, str]


class QueryTicket:
    """A handle on one submitted query.

    Wraps the future resolved by the worker pool plus the cancellation
    event the engine polls between partitions.
    """

    __slots__ = ("spec", "_future", "_cancel")

    def __init__(self, spec: QuerySpec, future: Future,
                 cancel: threading.Event):
        self.spec = spec
        self._future = future
        self._cancel = cancel

    def result(self, timeout: Optional[float] = None) -> engine.QueryResult:
        """Block for the outcome (raises what the query raised)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel the query; True if it will not produce a result.

        A queued query is dropped outright; a running one is signalled
        and aborts between partitions with
        :class:`~repro.query.errors.QueryCancelled`.
        """
        self._cancel.set()
        return self._future.cancel() or not self._future.done()


@dataclass
class _Job:
    """One queued query with its admission-time context."""

    spec: QuerySpec
    future: Future
    cancel: threading.Event
    deadline: float
    enqueued_at: float = field(default_factory=time.monotonic)


@dataclass
class ServiceStats:
    """Lifetime counters of one service (mirrored into ``query.*``)."""

    submitted: int = 0
    served: int = 0
    failed: int = 0
    rejected: int = 0
    timeouts: int = 0
    cancelled: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    max_queue_depth: int = 0
    slow: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "failed": self.failed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "max_queue_depth": self.max_queue_depth,
            "slow": self.slow,
        }


class QueryService:
    """A concurrent analytics endpoint over per-vantage flow stores."""

    def __init__(
        self,
        stores: Mapping[str, Union[FlowStore, PathLike]],
        workers: int = 4,
        queue_capacity: int = 64,
        default_timeout: float = 30.0,
        cache_entries: int = 128,
        slow_log: Optional[SlowQueryLog] = None,
        scan_procs: int = 0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if scan_procs < 0:
            raise ValueError("scan_procs must be >= 0")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not stores:
            raise ValueError("the service needs at least one store")
        self._stores: Dict[str, FlowStore] = {
            name: store if isinstance(store, FlowStore) else FlowStore(store)
            for name, store in stores.items()
        }
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.default_timeout = default_timeout
        self._queue: "_queue.Queue[Optional[_Job]]" = _queue.Queue(
            maxsize=queue_capacity
        )
        self._cache: "OrderedDict[CacheKey, engine.QueryResult]" = \
            OrderedDict()
        self._cache_entries = cache_entries
        self.slow_log = slow_log
        self._lock = threading.Lock()
        self.stats = ServiceStats()
        self._closed = False
        # With scan_procs > 0, partition scans scatter-gather across a
        # persistent shard pool (processes when the platform allows,
        # threads otherwise) shared by every worker; without one, each
        # worker scans its query's partitions on its own thread.
        self._shard_pool = (
            procpool.make_scan_pool(scan_procs) if scan_procs else None
        )
        self.scan_procs = scan_procs
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"query-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Drain the queue, stop the workers, release the shard pool.

        Queries already queued still execute; new submissions raise.
        The shard pool (if any) is closed without waiting on scans
        abandoned by timed-out or cancelled queries — its close
        terminates worker processes that outlive the grace period, so
        a scan sleeping past its deadline cannot leave zombies.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join()
        if self._shard_pool is not None:
            self._shard_pool.close()

    # -- stores -------------------------------------------------------------

    def store(self, vantage: str) -> FlowStore:
        """The store serving ``vantage`` (KeyError if unknown)."""
        return self._stores[vantage]

    @property
    def vantages(self) -> Tuple[str, ...]:
        return tuple(sorted(self._stores))

    # -- submission ---------------------------------------------------------

    def submit(
        self, spec: QuerySpec, timeout: Optional[float] = None
    ) -> QueryTicket:
        """Enqueue one query; returns a ticket or raises.

        Raises :class:`QueryError` for unknown vantages and
        :class:`QueryRejected` when the admission queue is full.  The
        deadline starts now — queue wait counts against it.
        """
        if self._closed:
            raise QueryError("the query service is closed")
        if spec.vantage not in self._stores:
            raise QueryError(
                f"unknown vantage {spec.vantage!r}; the service has "
                f"{list(self.vantages)}"
            )
        registry = obs.get_registry()
        job = _Job(
            spec=spec,
            future=Future(),
            cancel=threading.Event(),
            deadline=time.monotonic() + (
                timeout if timeout is not None else self.default_timeout
            ),
        )
        try:
            self._queue.put_nowait(job)
        except _queue.Full:
            with self._lock:
                self.stats.rejected += 1
            registry.counter("query.rejected").inc()
            raise QueryRejected(
                f"admission queue full ({self.queue_capacity} queries "
                f"queued); retry later or raise queue_capacity"
            ) from None
        depth = self._queue.qsize()
        with self._lock:
            self.stats.submitted += 1
            self.stats.max_queue_depth = max(
                self.stats.max_queue_depth, depth
            )
        registry.counter("query.submitted").inc()
        # inc/dec (not .set(qsize())) keeps the gauge consistent under
        # concurrent submitters and drainers: every successful enqueue
        # adds one, every dequeue in _worker_loop subtracts one.
        registry.gauge("query.queue-depth").inc()
        return QueryTicket(spec, job.future, job.cancel)

    def run(
        self, spec: QuerySpec, timeout: Optional[float] = None
    ) -> engine.QueryResult:
        """Submit and block for the result (one-shot convenience)."""
        return self.submit(spec, timeout=timeout).result()

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        registry = obs.get_registry()
        while True:
            job = self._queue.get()
            if job is None:
                return
            registry.gauge("query.queue-depth").dec()
            if not job.future.set_running_or_notify_cancel():
                with self._lock:
                    self.stats.cancelled += 1
                registry.counter("query.cancelled").inc()
                continue
            wait_s = time.monotonic() - job.enqueued_at
            registry.histogram("query.queue-wait").record(wait_s)
            try:
                result = self._execute(job)
            except QueryTimeout as exc:
                with self._lock:
                    self.stats.timeouts += 1
                    self.stats.failed += 1
                registry.counter("query.timeouts").inc()
                registry.counter("query.failed").inc()
                total_s = time.monotonic() - job.enqueued_at
                self._log_slow(
                    job, total_s, wait_s, stages=None, result=None,
                    status="timeout", error=str(exc),
                )
                job.future.set_exception(exc)
            except BaseException as exc:  # noqa: BLE001 — relayed
                with self._lock:
                    self.stats.failed += 1
                registry.counter("query.failed").inc()
                job.future.set_exception(exc)
            else:
                with self._lock:
                    self.stats.served += 1
                registry.counter("query.served").inc()
                total_s = time.monotonic() - job.enqueued_at
                registry.timer("query.latency").record(total_s)
                stages = self._stamp_stages(result, wait_s, total_s)
                self._log_slow(
                    job, total_s, wait_s, stages=stages, result=result,
                    status="ok",
                )
                job.future.set_result(result)

    @staticmethod
    def _stamp_stages(
        result: engine.QueryResult, wait_s: float, total_s: float
    ) -> Dict[str, float]:
        """Complete the result's stage breakdown with service timings.

        The engine fills plan/scan/merge (zeroed here for cache hits,
        whose copies start with empty stages); the service owns queue
        wait, the cache-store wall, and the end-to-end total.
        """
        stages = {
            "plan": 0.0, "scan": 0.0, "merge": 0.0, "cache_store": 0.0,
        }
        stages.update(getattr(result, "stages", None) or {})
        stages["queue"] = wait_s
        stages["total"] = total_s
        result.stages = stages
        return stages

    def _log_slow(
        self,
        job: _Job,
        total_s: float,
        wait_s: float,
        stages: Optional[Dict[str, float]],
        result: Optional[engine.QueryResult],
        status: str,
        error: Optional[str] = None,
    ) -> None:
        """Write one slow-log entry when the query is over budget."""
        log = self.slow_log
        if log is None or not log.should_log(total_s):
            return
        if stages is None:
            stages = {
                "plan": 0.0, "scan": 0.0, "merge": 0.0,
                "cache_store": 0.0, "queue": wait_s, "total": total_s,
            }
        entry: Dict[str, object] = {
            "status": status,
            "fingerprint": job.spec.fingerprint(),
            "vantage": job.spec.vantage,
            "query": job.spec.describe(),
            "spec": job.spec.to_dict(),
            "stages": {k: round(v, 6) for k, v in sorted(stages.items())},
        }
        if result is not None:
            entry["plan"] = result.plan_summary
            entry["rows"] = result.n_rows
            entry["rows_scanned"] = result.rows_scanned
            entry["bytes_read"] = result.bytes_read
            entry["from_cache"] = result.from_cache
        if error is not None:
            entry["error"] = error
        if log.record(total_s, entry):
            with self._lock:
                self.stats.slow += 1
            obs.get_registry().counter("query.slow").inc()

    def _execute(self, job: _Job) -> engine.QueryResult:
        registry = obs.get_registry()
        if time.monotonic() > job.deadline:
            raise QueryTimeout(
                f"query {job.spec.describe()} spent its whole deadline "
                f"in the admission queue"
            )
        store = self._stores[job.spec.vantage]
        key = (job.spec.fingerprint(), store.state_token())
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.stats.cache_hits += 1
        if cached is not None:
            registry.counter("query.cache-hits").inc()
            return engine.cached_copy(cached)
        with self._lock:
            self.stats.cache_misses += 1
        registry.counter("query.cache-misses").inc()
        result = engine.execute_query(
            store, job.spec, pool=self._shard_pool,
            deadline=job.deadline, cancel=job.cancel,
        )
        t_store = time.monotonic()
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_entries:
                self._cache.popitem(last=False)
        store_s = time.monotonic() - t_store
        result.stages["cache_store"] = store_s
        registry.timer("query.stage-cache-store").record(store_s)
        registry.gauge("query.cache-entries").set(len(self._cache))
        return result

    # -- introspection ------------------------------------------------------

    @property
    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)

    def describe(self) -> Dict[str, object]:
        """Service configuration + lifetime stats (manifest-ready)."""
        info: Dict[str, object] = {
            "name": "query-service",
            "workers": self.workers,
            "queue_capacity": self.queue_capacity,
            "default_timeout": self.default_timeout,
            "cache_entries": self._cache_entries,
            "vantages": list(self.vantages),
            "scan_pool": (
                self._shard_pool.describe()
                if self._shard_pool is not None
                else {"kind": "inline", "width": self.workers}
            ),
            "stats": self.stats.to_dict(),
        }
        if self.slow_log is not None:
            info["slow_log"] = self.slow_log.describe()
        return info
