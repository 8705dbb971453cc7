"""The workloads: set-up, timed loop, answer check, metrics.

Each workload drives the program only through its public functions —
``run_all``, ``VantagePoint.generate_flows``, ``FlowStore.write_range``,
``QueryService.submit``, ``execute_query`` and ``make_scan_pool`` — and
times around those calls.  A traced run
(``Layers`` given) also splits the wall time across the program's
layers from that timing, the results' stage breakdowns and the
program's own ``repro.obs`` spans and counters.
"""

from __future__ import annotations

import shutil
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.experiments import PipelineConfig, all_specs, get_spec, run_all
from repro.flows.store import FlowStore
from repro.query import QueryService, QuerySpec, execute_query, make_scan_pool
from repro.synth.datasets import DatasetCache, use_cache
from repro.synth.scenario import build_scenario

from perfbench import specs as S
from perfbench.common import Layers, dir_bytes, outermost, quantile
from perfbench.reference import Reference, mismatch

#: Flow-sampling fidelity of the stores (eight weeks of ISP-CE flows).
DASHBOARD_FIDELITY = 2.0
BULK_FIDELITY = 3.0


def store_ratio(store: FlowStore, flows_nbytes: int) -> Tuple[int, float]:
    """On-disk partition bytes, and their ratio to the columns' bytes."""
    stored = sum(dir_bytes(store.root / day.isoformat())
                 for day in store.days())
    return stored, stored / max(1, flows_nbytes)


def encoding_bytes(store: FlowStore) -> Dict[str, int]:
    """Stored column bytes per seal-time encoding, over all partitions."""
    totals = {"dict": 0, "delta": 0, "raw": 0}
    for day in store.days():
        for stat in store.open_partition(day).encoding_stats().values():
            totals[str(stat["encoding"])] += int(stat["stored_nbytes"])
    return totals


class Workload:
    """One workload's state and samples; subclasses fill in the steps."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, tmp: Path,
                 layers: Optional[Layers] = None) -> None:
        self.seed = seed
        self.tmp = tmp
        self.layers = layers
        self.latencies: List[float] = []  # one per operation, seconds
        self.reads: List[float] = []      # read latencies, seconds
        self.busy = 0.0                   # seconds the timed ops took
        self.ops = 0
        self.flows = 0                    # flow records the ops handled
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.stored_ratio = 0.0
        self.trace: Dict[str, float] = {}
        self._setups = 0

    # -- steps ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Compare every answer with the reference (untimed)."""

    def teardown(self) -> None:
        """Release what the last set-up built."""

    # -- helpers ----------------------------------------------------------

    def _in(self, layer: str):
        """Attribute the body to ``layer`` in a traced run."""
        return self.layers.timed(layer) if self.layers else nullcontext()

    def _new_dir(self, label: str) -> Path:
        self._setups += 1
        path = self.tmp / f"{self.name}-{label}-{self._setups}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def _note(self, key: str, value: float) -> None:
        self.trace[key] = self.trace.get(key, 0.0) + value

    def _check_answers(self, table, answered) -> None:
        """Compare each ``(spec, result)`` with the reference (untimed)."""
        reference = Reference(table)
        expected: Dict[str, list] = {}
        for spec, result in answered:
            key = spec.fingerprint()
            if key not in expected:
                expected[key] = reference.answer(spec)
            why = mismatch(spec, expected[key], result.rows, result.hll_error)
            if why:
                self._fail(f"{spec.describe()}: {why}")

    def _note_results(self, results) -> None:
        """Per-layer query/flows diagnostics from executed queries."""
        executed = [r for r in results if not r.from_cache]
        n = max(1, len(executed))
        self.trace["query.plan_ms"] = 1e3 * sum(
            r.stages.get("plan", 0.0) for r in executed) / n
        self.trace["query.scan_ms"] = 1e3 * sum(
            r.stages.get("scan", 0.0) for r in executed) / n
        self.trace["query.merge_ms"] = 1e3 * sum(
            r.stages.get("merge", 0.0) for r in executed) / n
        self.trace["query.cache_store_ms"] = 1e3 * sum(
            r.stages.get("cache_store", 0.0) for r in executed) / n
        self.trace["query.queue_ms"] = 1e3 * sum(
            r.stages.get("queue", 0.0) for r in results) / max(1, len(results))
        self.trace["query.partitions_pruned"] = sum(
            r.partitions_pruned for r in executed) / n
        self.trace["flows.bytes_read_per_query"] = sum(
            r.bytes_read for r in executed) / n
        self.trace["flows.columns_loaded_per_query"] = sum(
            len(r.columns_loaded) for r in executed) / n
        for r in executed:
            strategies = (r.plan_summary or {}).get("strategies", {})
            self._note("query.sidecar_served", strategies.get("sidecar", 0))
            self._note("query.bitmap_scans", strategies.get("bitmap", 0))
            self._note("query.column_scans", strategies.get("scan", 0))

    def _note_store(self, store: FlowStore, flows_nbytes: int,
                    n_flows: int) -> None:
        stored, _ = store_ratio(store, flows_nbytes)
        self._note("flows.stored_bytes", stored)
        self.trace["flows.stored_bytes_per_flow"] = stored / max(1, n_flows)
        for encoding, nbytes in encoding_bytes(store).items():
            self._note(f"flows.encoding_{encoding}_bytes", nbytes)

    def _generate(self, fidelity: float):
        with self._in("synth"):
            t0 = time.perf_counter()
            scenario = build_scenario(self.seed)
            flows = scenario.vantage(S.VANTAGE).generate_flows(
                S.START, S.END, fidelity=fidelity)
            self._note("synth.generate_s", time.perf_counter() - t0)
        self._note("synth.generated_flows", len(flows))
        return flows

    def _seal(self, flows, label: str) -> FlowStore:
        store = FlowStore(self._new_dir(label))
        with self._in("flows"):
            t0 = time.perf_counter()
            written = store.write_range(flows, S.START, S.END)
            elapsed = time.perf_counter() - t0
        self._note("flows.seal_s", elapsed)
        self.trace["flows.seal_p50_ms"] = 1e3 * elapsed / written
        return store

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        busy = max(self.busy, 1e-9)
        reads = self.reads or self.latencies
        return {
            "ops_per_s": self.ops / busy,
            "flows_per_s": self.flows / busy,
            "p50_ms": 1e3 * quantile(self.latencies, 0.5),
            "p90_ms": 1e3 * quantile(self.latencies, 0.9),
            "read_p50_ms": 1e3 * quantile(reads, 0.5),
            "stored_bytes_ratio": self.stored_ratio,
        }


class Figures(Workload):
    """Serial ``run_all`` passes over the paper's world, fast fidelity.

    One operation is a cold pass (fresh in-memory dataset cache: every
    dataset is synthesized) followed by a warm re-read pass on the same
    cache, the path of re-rendering figures from cached datasets.  The
    world is the paper's default scenario whatever the seed: the
    experiments' paper checks are calibrated to it.
    """

    name = "figures"
    setup_repeats = 15

    def setup(self) -> None:
        with self._in("synth"):
            self.scenario = build_scenario()
        self.config = PipelineConfig.fast()
        self._flows_per_pass: Optional[int] = None

    def _pass(self) -> float:
        n_roots = len(obs.get_tracer().roots) if self.layers else 0
        t0 = time.perf_counter()
        results = run_all(self.scenario, self.config)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        bad = [r.experiment_id for r in results if not r.passed]
        if bad:
            self._fail(f"paper checks failed in {bad}")
        if self.layers is not None:
            self._attribute(obs.get_tracer().roots[n_roots:], elapsed)
        return elapsed

    def _attribute(self, roots, elapsed: float) -> None:
        """Split one traced pass across layers from its span trees.

        Experiments run on this thread under the executor's span.
        Fig. 7/8 query their stores through a ``QueryService``, whose
        worker threads open ``query/`` spans as roots of their own
        while the experiment waits, so those are collected from all
        the pass's roots.
        """
        experiments = list(outermost(roots, "experiment/"))
        spent = sum(span.wall_s for span in experiments)
        # Synthesis: dataset materializations, plus flow generation an
        # experiment runs outside the dataset cache.
        synth = sum(s.wall_s for s in outermost(
            experiments, ("dataset/", "vantage/")))
        queries = sum(s.wall_s for s in outermost(roots, "query/"))
        self.layers.add("synth", synth)
        self.layers.add("query", queries)
        self.layers.add("core", spent - synth - queries)
        self.layers.add("experiments", elapsed - spent)
        self._note("experiments.executor_self_s", elapsed - spent)
        for span in experiments:
            datasets = sum(s.wall_s for s in outermost(
                span.children, "dataset/"))
            self._note(f"experiments.{span.name.split('/', 1)[1]}_s",
                       span.wall_s)
            self._note("core.analysis_s", span.wall_s - datasets)
            self._note("synth.dataset_s", datasets)
        for gen in outermost(experiments, "vantage/"):
            self._note("synth.generate_s", gen.wall_s)
            self._note("synth.generated_flows",
                       float(gen.metrics.get("flows", 0)))

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            cache = DatasetCache()
            with use_cache(cache):
                cold = self._pass()
                warm = self._pass()
            if self.layers is not None:
                self._note("synth.dataset_misses", cache.stats.misses)
                self._note("synth.dataset_hits", cache.stats.hits)
                self.trace["synth.dataset_resident_mb"] = \
                    cache.stats.resident_bytes / 2**20
            self.latencies.append(cold)
            self.reads.append(warm)
            self.busy += cold + warm
            self.ops += 1
            if self._flows_per_pass is None:
                self._measure_datasets(cache)
            self.flows += self._flows_per_pass
            if self.layers is not None:
                self.layers.wall += cold + warm
            if time.perf_counter() >= deadline:
                return

    def _measure_datasets(self, cache: DatasetCache) -> None:
        """Flows per pass, and how compactly Fig. 7's data seals (untimed).

        Fetches hit the warm cache, so nothing is regenerated.  The
        ratio seals the first ISP-CE analysis week Fig. 7 stores into a
        ``FlowStore`` of its own.
        """
        requests = {r for spec in all_specs()
                    for r in spec.dataset_requests(self.scenario, self.config)
                    if r.kind in ("flows", "remote-work")}
        tables = {r: cache.fetch(self.scenario, r) for r in requests}
        self._flows_per_pass = sum(len(t) for t in tables.values())
        fig07 = min(
            (r for r in get_spec("fig07").dataset_requests(
                self.scenario, self.config)
             if r.kind == "flows" and r.vantage == S.VANTAGE),
            key=lambda r: r.start,
        )
        table = tables[fig07]
        store = FlowStore(self._new_dir("fig07"))
        store.write_range(table, fig07.start, fig07.end)
        _, self.stored_ratio = store_ratio(
            store, table.nbytes)
        shutil.rmtree(store.root, ignore_errors=True)


class Dashboard(Workload):
    """Two closed-loop clients against one ``QueryService``."""

    name = "dashboard"
    clients = 2

    def setup(self) -> None:
        self.table = self._generate(DASHBOARD_FIDELITY)
        self.store = self._seal(self.table, "store")
        with self._in("query"):
            self.service = QueryService(
                {S.VANTAGE: self.store}, workers=self.clients, scan_procs=0)

    def teardown(self) -> None:
        self.service.close()
        shutil.rmtree(self.store.root, ignore_errors=True)

    def run(self, seconds: float) -> None:
        stream = S.dashboard_stream(self.seed)
        lock = threading.Lock()
        samples: List[List[tuple]] = [[] for _ in range(self.clients)]
        errors = [0]
        deadline = time.perf_counter() + seconds

        def client(out: List[tuple]) -> None:
            while time.perf_counter() < deadline:
                with lock:
                    shape, spec = next(stream)
                t0 = time.perf_counter()
                try:
                    result = self.service.submit(spec, timeout=60.0).result()
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    with lock:
                        errors[0] += 1
                        self._fail(f"{spec.describe()}: {exc!r}")
                    continue
                out.append((shape, spec, result, time.perf_counter() - t0))

        threads = [threading.Thread(target=client, args=(out,))
                   for out in samples]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        self.samples = [s for out in samples for s in out]
        self.attempted += len(self.samples) + errors[0]
        self.ops = len(self.samples)
        self.busy = wall
        self.latencies = [s[3] for s in self.samples]
        self.reads = [s[3] for s in self.samples if not s[2].from_cache]
        self.flows = sum(s[2].rows_scanned for s in self.samples
                         if not s[2].from_cache)
        if self.layers is not None:
            # Each client's time is query time; the loop's wall is the
            # clients' mean, so the parts still sum to the wall.
            self.layers.add("query", sum(self.latencies) / self.clients)
            self.layers.wall += wall
            self._trace_queries()

    def _trace_queries(self) -> None:
        results = [s[2] for s in self.samples]
        self._note_results(results)
        for shape in S.SHAPES:
            scans = [s[2].stages.get("scan", 0.0) for s in self.samples
                     if s[0] == shape and not s[2].from_cache]
            self.trace[f"query.scan_ms.{shape}"] = \
                1e3 * sum(scans) / max(1, len(scans))
        stats = self.service.stats
        self.trace["query.cache_hit_ratio"] = stats.cache_hits / max(
            1, stats.cache_hits + stats.cache_misses)
        self.trace["query.rejected"] = stats.rejected
        self.trace["query.max_queue_depth"] = stats.max_queue_depth

    def check(self) -> None:
        _, self.stored_ratio = store_ratio(
            self.store, self.table.nbytes)
        if self.layers is not None:
            self._note_store(self.store, self.table.nbytes, len(self.table))
        self._check_answers(
            self.table, [(spec, result) for _, spec, result, _ in self.samples])


class BulkScan(Workload):
    """One client, full-range wide queries on a warm process scan pool."""

    name = "bulk-scan"
    pool_width = 2

    def setup(self) -> None:
        self.table = self._generate(BULK_FIDELITY)
        self.store = self._seal(self.table, "store")
        with self._in("procpool"):
            self.pool = make_scan_pool(self.pool_width)
            # Start the workers and let each open and map the store.
            execute_query(self.store, QuerySpec.build(
                S.VANTAGE, S.START, S.END, group_by=["proto"]),
                pool=self.pool)

    def teardown(self) -> None:
        self.pool.close()
        shutil.rmtree(self.store.root, ignore_errors=True)

    def run(self, seconds: float) -> None:
        stream = S.bulk_stream(self.seed)
        self.done: List[tuple] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            spec = next(stream)
            t0 = time.perf_counter()
            result = execute_query(self.store, spec, pool=self.pool)
            elapsed = time.perf_counter() - t0
            self.attempted += 1
            self.ops += 1
            self.busy += elapsed
            self.latencies.append(elapsed)
            self.flows += result.rows_scanned
            self.done.append((spec, result))
            if self.layers is not None:
                merge = result.stages.get("merge", 0.0)
                scatter = max(0.0, result.wall_s - merge)
                self.layers.add("procpool", scatter)
                self.layers.add("query", elapsed - scatter)
                self.layers.wall += elapsed
        if self.layers is not None:
            self._note_results([r for _, r in self.done])
            counters = obs.get_registry().snapshot()
            self.trace["procpool.shards"] = counters["counters"].get(
                "query.proc.shards", 0)
            self.trace["procpool.ipc_bytes"] = counters["counters"].get(
                "query.proc.ipc-bytes", 0)
            self.trace["procpool.fallbacks"] = counters["counters"].get(
                "query.proc.fallbacks", 0)
            shard = counters["timers"].get("query.proc.shard-scan", {})
            self.trace["procpool.shard_scan_ms"] = 1e3 * shard.get("total", 0.0)

    def check(self) -> None:
        _, self.stored_ratio = store_ratio(
            self.store, self.table.nbytes)
        if self.layers is not None:
            self._note_store(self.store, self.table.nbytes, len(self.table))
        self._check_answers(self.table, self.done)


WORKLOADS = {cls.name: cls for cls in (Figures, Dashboard, BulkScan)}
