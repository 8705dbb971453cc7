"""Process-based scatter-gather execution for partition scans.

The GIL caps what the thread pool can win on scan-heavy queries: the
numpy kernels release it, but group decoding and partial merging are
Python-level work that serializes across threads.  This module runs
whole *shards* — contiguous runs of day partitions from one vantage
store — in a persistent pool of worker processes instead.  Each worker
opens the store through a per-process verified cache
(:func:`repro.flows.store.open_cached`), memory-maps v2 partitions
locally (fork + mmap = shared page cache, zero copy), scans every day
in its shard with the same :func:`repro.query.engine.scan_partition`
the serial path uses, and folds the per-day partials with the same
associative merge.  Only the compact merged partial — flat group-key
columns, exact int64 sums and sparse HyperLogLog registers, pickled
once in the worker — ever crosses the process boundary; row data
never does.

Pool selection is fork-server aware: ``fork`` is preferred (cheapest
start, inherits the parent's imports), then ``forkserver``; platforms
with neither (``spawn``-only) and the ``REPRO_NO_PROCPOOL=1`` escape
hatch fall back *gracefully* to a thread-backed pool running the exact
same shard tasks, so results stay bit-identical in every mode.

Lifecycle: pools are persistent — create one per service or sweep and
reuse it across queries; worker processes spawn lazily on first
submit.  :meth:`ScanPool.close` shuts down without waiting for
abandoned scans and, for process pools, terminates workers that
outlive the grace period, so a query timeout can never leak zombie
workers.
"""

from __future__ import annotations

import datetime as _dt
import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.flows.store import FlowStore, FlowStoreError, open_cached
from repro.query.spec import QuerySpec

if TYPE_CHECKING:
    from repro.query.engine import Partial

#: Set to any non-empty value to disable process pools; shard execution
#: falls back to threads (same tasks, same results, no fork).
DISABLE_ENV = "REPRO_NO_PROCPOOL"

#: Override the multiprocessing start method (``fork`` | ``forkserver``).
START_ENV = "REPRO_PROCPOOL_START"

#: Start methods the pool will use, in preference order.  ``spawn`` is
#: deliberately absent: re-importing the world per worker costs more
#: than the thread fallback saves on the platforms that require it.
_START_METHODS = ("fork", "forkserver")


def enabled() -> bool:
    """Whether process pools are allowed (escape hatch unset)."""
    return not os.environ.get(DISABLE_ENV)


def start_method() -> Optional[str]:
    """The start method a process pool would use, or ``None``.

    Honors ``REPRO_PROCPOOL_START`` when it names an available method;
    otherwise picks the first of :data:`_START_METHODS` the platform
    supports.  ``None`` means process pools are unavailable here and
    :func:`make_scan_pool` will hand back the thread fallback.
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    preferred = os.environ.get(START_ENV)
    if preferred in _START_METHODS and preferred in available:
        return preferred
    for method in _START_METHODS:
        if method in available:
            return method
    return None


def processes_supported() -> bool:
    """Whether a real process pool can run on this platform."""
    return enabled() and start_method() is not None


@dataclass
class ShardOutcome:
    """One shard's merged partial plus diagnostics, shipped back whole.

    ``payload`` is the shard's :class:`~repro.query.engine.Partial`,
    already merged across its days and pickled once in the worker;
    the parent unpickles it with :meth:`partial`.  ``ipc_bytes`` is the
    payload's length — the partials' share of what crossed the pipe.
    """

    payload: bytes = b""
    n_scanned: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0
    bytes_read: int = 0
    columns: Tuple[str, ...] = ()
    failures: List[Tuple[str, str]] = field(default_factory=list)
    scan_s: float = 0.0
    worker_pid: int = 0
    ipc_bytes: int = 0

    def partial(self) -> "Partial":
        """The shard's merged partial (unpickled from ``payload``)."""
        return pickle.loads(self.payload)


def scan_shard(
    root: str, day_isos: Sequence[str], spec: QuerySpec
) -> ShardOutcome:
    """Worker-side shard scan: open, scan, merge, ship partials.

    Top-level so it pickles by reference.  The store open goes through
    the per-process :func:`~repro.flows.store.open_cached` cache —
    after the first shard each worker reuses its verified manifest and
    sidecar state.  Per-day failures are data (day, error) rather than
    exceptions, matching the serial path's partition-failure handling;
    a store that cannot open at all fails every day in the shard.
    """
    from repro.query import engine

    t0 = time.perf_counter()
    outcome = ShardOutcome(worker_pid=os.getpid())
    partials: List["Partial"] = []
    try:
        store = open_cached(root)
    except FlowStoreError as exc:
        outcome.failures = [(iso, str(exc)) for iso in day_isos]
        day_isos = ()
    columns: set = set()
    for iso in day_isos:
        day = _dt.date.fromisoformat(iso)
        try:
            partial, stats = engine.scan_partition(store, day, spec)
        except FlowStoreError as exc:
            outcome.failures.append((iso, str(exc)))
            continue
        partials.append(partial)
        outcome.n_scanned += 1
        outcome.rows_scanned += stats.rows_scanned
        outcome.rows_matched += stats.rows_matched
        outcome.bytes_read += stats.bytes_read
        columns.update(stats.columns)
    outcome.columns = tuple(sorted(columns))
    outcome.payload = pickle.dumps(
        engine._merge_partials(spec, partials),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    outcome.ipc_bytes = len(outcome.payload)
    outcome.scan_s = time.perf_counter() - t0
    return outcome


def shard_days(
    days: Sequence[_dt.date], width: int
) -> List[Tuple[_dt.date, ...]]:
    """Split planned days into contiguous shards for ``width`` workers.

    Shards are contiguous date runs (locality: neighboring partitions
    share directory and page-cache footprint) and there are up to two
    per worker, so an uneven store still balances without shipping one
    partial per partition.
    """
    days = list(days)
    if not days:
        return []
    n_shards = max(1, min(len(days), 2 * max(1, width)))
    base, extra = divmod(len(days), n_shards)
    shards: List[Tuple[_dt.date, ...]] = []
    at = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(tuple(days[at:at + size]))
        at += size
    return shards


class ScanPool:
    """A persistent shard-scan pool; process-backed when possible.

    ``kind`` is ``"process"`` or ``"thread"`` (the graceful fallback).
    The engine recognizes this interface via :meth:`submit_shard` and
    takes the scatter-gather path; anything else passed as ``pool`` is
    treated as a plain per-partition thread executor.
    """

    def __init__(self, width: int, kind: Optional[str] = None):
        self.width = max(1, int(width))
        if kind is None:
            kind = "process" if processes_supported() else "thread"
        if kind == "process" and not processes_supported():
            obs.counter("query.proc.fallbacks").inc()
            kind = "thread"
        self.kind = kind
        self.start_method = start_method() if kind == "process" else None
        if kind == "process":
            import multiprocessing

            self._executor: object = ProcessPoolExecutor(
                max_workers=self.width,
                mp_context=multiprocessing.get_context(self.start_method),
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.width, thread_name_prefix="scan-shard"
            )
        self._lock = threading.Lock()
        self._in_flight = 0
        self._outstanding: set = set()
        self._worker_scan_s: Dict[int, float] = {}
        self._closed = False
        obs.gauge("query.proc.pool-width").set(self.width)

    # -- submission --------------------------------------------------------

    def submit_shard(
        self, store: FlowStore, days: Sequence[_dt.date], spec: QuerySpec
    ) -> Future:
        """Schedule one shard scan; returns a Future of ShardOutcome."""
        return self.submit(
            scan_shard, str(store.root),
            tuple(day.isoformat() for day in days), spec,
        )

    def submit(self, fn, *args) -> Future:
        """Schedule an arbitrary task on the pool (tests, drills)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("scan pool is closed")
            future = self._executor.submit(fn, *args)
            self._outstanding.add(future)
            self._in_flight += 1
        obs.gauge("query.proc.in-flight").inc()
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, future: Future) -> None:
        with self._lock:
            self._outstanding.discard(future)
            self._in_flight -= 1
        obs.gauge("query.proc.in-flight").dec()

    # -- accounting --------------------------------------------------------

    def note_outcome(self, outcome: ShardOutcome) -> None:
        """Record one shard's worker-side diagnostics on the registry."""
        registry = obs.get_registry()
        registry.counter("query.proc.shards").inc()
        registry.counter("query.proc.ipc-bytes").inc(outcome.ipc_bytes)
        if registry.enabled:
            registry.timer("query.proc.shard-scan").record(outcome.scan_s)
        with self._lock:
            pid = outcome.worker_pid
            self._worker_scan_s[pid] = (
                self._worker_scan_s.get(pid, 0.0) + outcome.scan_s
            )

    def outstanding(self) -> int:
        """Futures submitted but not yet completed (saturation probe)."""
        with self._lock:
            return self._in_flight

    def worker_stats(self) -> Dict[str, float]:
        """Accumulated scan seconds per worker pid (or thread pool)."""
        with self._lock:
            return {
                str(pid): round(seconds, 6)
                for pid, seconds in sorted(self._worker_scan_s.items())
            }

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "width": self.width,
            "start_method": self.start_method,
            "in_flight": self.outstanding(),
            "worker_scan_s": self.worker_stats(),
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self, grace: float = 5.0) -> None:
        """Shut down without waiting on abandoned scans.

        Pending futures are cancelled; in-flight scans get ``grace``
        seconds to finish, after which worker processes are terminated
        outright — a scan sleeping past its query's deadline must not
        leave zombie workers behind.  Thread workers cannot be killed,
        but their results are discarded and the executor stops
        accepting work.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Snapshot worker handles before shutdown clears them.
        workers = list(
            (getattr(self._executor, "_processes", None) or {}).values()
        )
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.kind != "process":
            return
        deadline = time.monotonic() + max(0.0, grace)
        for proc in workers:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)

    def __enter__(self) -> "ScanPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_scan_pool(procs: int) -> Optional[ScanPool]:
    """A shard pool of ``procs`` workers, or ``None`` when ``procs<=0``.

    Process-backed when the platform allows it and ``REPRO_NO_PROCPOOL``
    is unset; otherwise the thread fallback (same interface, same
    results).
    """
    if procs <= 0:
        return None
    return ScanPool(procs)
