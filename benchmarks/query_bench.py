#!/usr/bin/env python
"""Benchmark the concurrent query engine over a partitioned flow store.

Builds one day-partitioned :class:`~repro.flows.store.FlowStore` from a
synthetic vantage trace, then times a mixed query batch (per-transport
tables, hourly volume series, distinct-IP estimates, predicate scans)
three ways —

* ``cold-w1`` — fresh service, one worker (the serial floor),
* ``cold-w4`` — fresh service, four workers (partition- and
  query-level parallelism),
* ``warm`` — the same batch replayed on the warm service (every query
  served from the LRU result cache),

then times a **projection sweep**: one narrow query shape (``proto``
grouping over ``n_bytes`` — 10 of a row's 66 bytes) replayed directly
through the engine against the same flows stored as v1 ``.npz``
archives (``narrow-v1``) and as a migrated v2 columnar store
(``narrow-v2``, mmap + column projection), with the migration itself
timed as ``migrate-v2``.  Both narrow sweeps are warm (a cold pass
primes the page cache first), so the ratio isolates partition I/O:
decompress-everything versus map-two-columns.

An **encoding sweep** then replays a selective filtered batch
(equality and membership predicates on the dictionary-encoded
``proto`` column) against the same store as v2 (``filtered-v2``) and
after a timed ``migrate-v3`` as v3 (``filtered-v3``): the v3 scan
resolves predicates on dictionary codes and bitmap index rows before
materializing any row data, so it must read fewer bytes and — under
``--fail-on-regression`` — run at least 2x the v2 sweep.  Per-column
on-disk totals from ``FlowStore.column_stats`` land in the recorded
``colstore`` block.

A final **scaling sweep** replays one scan-heavy multi-vantage batch
(the mixed shapes over the v2 ``isp-ce`` store plus a second,
lower-fidelity ``edu`` store) directly through the engine three ways:
``scale-serial`` (no pool), ``scale-threads`` (a thread-backed
:class:`~repro.query.procpool.ScanPool`, GIL-bound), and
``scale-procs`` (the process-backed
scatter-gather :class:`~repro.query.procpool.ScanPool`, one worker
per core).  All three must return bit-identical rows; the recorded
``scaling`` block carries the core count, the pool kind that actually
ran, worker-side IPC bytes, and the speedups.  Under
``--fail-on-regression`` the process sweep must beat serial and at
least match threads when the host has 2+ cores, and clear 2x serial
with 4+ cores — on a single-core host only the parity checks gate.

The script appends one entry to ``BENCH_results.json`` in the repo's
``{"runs": [...]}`` history format.  The script exits non-zero — and
records ``exit_status`` — if the one-worker and four-worker sweeps
disagree on any result row, if any partition fails, if the warm
replay misses the cache, or if the v1 and v2 narrow sweeps disagree
on rows or the v2 sweep reads more than its referenced columns, so a
concurrency- or format-induced wrong answer cannot be recorded as a
"fast" result.  ``--fail-on-regression`` additionally compares the
warm-cache and narrow-v2 sweeps against the latest recorded baselines
at the same fidelity, and requires the v2 narrow sweep to run at
least twice as fast as the v1 one.

Usage::

    python benchmarks/query_bench.py            # default fidelity
    python benchmarks/query_bench.py --fast --fail-on-regression
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.flows.store import (  # noqa: E402
    FORMAT_V1,
    FORMAT_V2,
    FORMAT_V3,
    FlowStore,
)
import repro.obs as obs  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.query import (  # noqa: E402
    QueryService,
    QuerySpec,
    ScanPool,
    execute_query,
    make_scan_pool,
)
from repro.synth.scenario import build_scenario  # noqa: E402

#: wall_s key prefix, matching the pytest-style keys already in the file.
KEY = "benchmarks/query_bench.py::query"

VANTAGE = "isp-ce"
START = _dt.date(2020, 2, 10)
END = _dt.date(2020, 3, 29)


def _batch(n_repeats: int) -> List[QuerySpec]:
    """A mixed batch of distinct query shapes over the stored range."""
    specs: List[QuerySpec] = []
    day = START
    for _ in range(n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.extend(
            [
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    group_by=["transport"], aggregates=["bytes", "flows"],
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    aggregates=["bytes", "connections"], bucket="hour",
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    aggregates=["distinct_dst_ips"], bucket="day",
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    where={"proto": 17}, group_by=["service_port"],
                    aggregates=["bytes"],
                ),
            ]
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


def _scale_specs(vantage: str, n_repeats: int) -> List[QuerySpec]:
    """Scan-heavy shapes for the scaling sweep's second vantage."""
    specs: List[QuerySpec] = []
    day = START
    for _ in range(2 * n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.extend(
            [
                QuerySpec.build(
                    vantage, day, week_end,
                    group_by=["transport"], aggregates=["bytes", "flows"],
                ),
                QuerySpec.build(
                    vantage, day, week_end,
                    aggregates=["bytes", "connections"], bucket="day",
                ),
            ]
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


#: The narrow shape: 2 of 11 columns, so a projected v2 scan maps
#: ~10 of each row's 66 bytes.  Results report loaded columns in
#: sorted order.
NARROW_COLUMNS = ("n_bytes", "proto")


def _narrow_batch(n_repeats: int) -> List[QuerySpec]:
    """Per-week per-protocol byte totals — the projection-friendly shape."""
    specs: List[QuerySpec] = []
    day = START
    for _ in range(4 * n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.append(
            QuerySpec.build(
                VANTAGE, day, week_end,
                group_by=["proto"], aggregates=["bytes"],
            )
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


def _filtered_batch(n_repeats: int) -> List[QuerySpec]:
    """Selective predicate shapes — the v3 bitmap/dictionary sweep.

    Equality and membership predicates on the dictionary-encoded
    ``proto`` column: v2 must map and verify every referenced raw
    segment before masking, v3 resolves the predicate on dictionary
    codes and bitmap rows and gathers only the surviving rows.
    """
    specs: List[QuerySpec] = []
    day = START
    for _ in range(4 * n_repeats):
        week_end = min(day + _dt.timedelta(days=6), END)
        specs.extend(
            [
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    where={"proto": 17}, group_by=["service_port"],
                    aggregates=["bytes"],
                ),
                QuerySpec.build(
                    VANTAGE, day, week_end,
                    where={"proto": [47, 50]},
                    aggregates=["bytes", "flows"], bucket="day",
                ),
            ]
        )
        day += _dt.timedelta(days=7)
        if day > END:
            day = START + _dt.timedelta(days=1)
    return specs


def _direct_sweep(store: FlowStore, specs: List[QuerySpec]):
    """Run a batch straight through the engine — no service, no LRU."""
    t0 = time.perf_counter()
    results = [execute_query(store, spec) for spec in specs]
    return results, time.perf_counter() - t0


def _run_batch(service: QueryService, specs: List[QuerySpec]):
    """Submit the whole batch, then collect results in order."""
    t0 = time.perf_counter()
    tickets = [service.submit(spec, timeout=600.0) for spec in specs]
    results = [ticket.result() for ticket in tickets]
    return results, time.perf_counter() - t0


def _rows(results) -> List[List[dict]]:
    return [r.rows for r in results]


def _latest_baseline(
    history: Dict[str, list], key: str, fast: bool
) -> Optional[float]:
    """The most recent recorded wall time for ``key`` at this fidelity."""
    for run in reversed(history.get("runs", [])):
        if bool(run.get("fast")) != fast:
            continue
        baseline = (run.get("wall_s") or {}).get(key)
        if baseline:
            return float(baseline)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="smaller store and batch (CI smoke mode)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_results.json"),
        help="benchmark history file (default: %(default)s)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero if the warm-cache sweep is slower than the "
             "latest recorded baseline by more than the threshold",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=0.50,
        metavar="FRACTION",
        help="allowed warm-cache slowdown vs. the recorded baseline "
             "(default: %(default)s; warm sweeps are short, so the "
             "gate is looser than run_all's)",
    )
    args = parser.parse_args(argv)

    fidelity = 0.2 if args.fast else 1.0
    n_repeats = 4 if args.fast else 12
    scenario = build_scenario()
    vantage = scenario.vantage(VANTAGE)
    walls: Dict[str, float] = {}
    problems: List[str] = []

    with tempfile.TemporaryDirectory(prefix="query-bench-") as tmp:
        t0 = time.perf_counter()
        flows = vantage.generate_flows(START, END, fidelity=fidelity)
        store = FlowStore(Path(tmp) / VANTAGE)
        n_partitions = store.write_range(flows, START, END)
        walls[f"{KEY}[build-store]"] = time.perf_counter() - t0
        print(
            f"store: {len(flows)} flows in {n_partitions} partitions "
            f"({walls[f'{KEY}[build-store]']:.3f} s to build)"
        )

        specs = _batch(n_repeats)
        with QueryService({VANTAGE: store}, workers=1,
                          queue_capacity=len(specs)) as service:
            serial, walls[f"{KEY}[cold-w1]"] = _run_batch(service, specs)
        with QueryService({VANTAGE: store}, workers=4,
                          queue_capacity=len(specs)) as service:
            parallel_results, walls[f"{KEY}[cold-w4]"] = _run_batch(
                service, specs
            )
            warm, walls[f"{KEY}[warm]"] = _run_batch(service, specs)
            stats = service.stats

        failed = sum(r.n_failed for r in serial + parallel_results + warm)
        if failed:
            problems.append(f"{failed} failed partition(s)")
        if _rows(serial) != _rows(parallel_results):
            problems.append("workers=4 rows differ from workers=1")
        if _rows(serial) != _rows(warm):
            problems.append("warm-cache rows differ from workers=1")
        misses_expected = 2 * len(specs)  # the two cold sweeps
        if stats.cache_hits < len(specs):
            problems.append(
                f"warm replay hit the cache only {stats.cache_hits}/"
                f"{len(specs)} times"
            )
        if stats.cache_misses > misses_expected:
            problems.append(
                f"{stats.cache_misses} cache misses for "
                f"{misses_expected} distinct executions"
            )

        # Projection sweep: same flows, same narrow batch, v1 archives
        # vs. the migrated v2 columnar store.  Cold passes prime the
        # page cache so the timed passes compare steady-state I/O.
        narrow = _narrow_batch(n_repeats)
        format_store = FlowStore(Path(tmp) / f"{VANTAGE}-fmt")
        format_store.write_range(
            flows, START, END, partition_format=FORMAT_V1
        )
        _direct_sweep(format_store, narrow)
        v1_results, walls[f"{KEY}[narrow-v1]"] = _direct_sweep(
            format_store, narrow
        )
        t0 = time.perf_counter()
        format_store.migrate(FORMAT_V2)
        walls[f"{KEY}[migrate-v2]"] = time.perf_counter() - t0
        _direct_sweep(format_store, narrow)
        v2_results, walls[f"{KEY}[narrow-v2]"] = _direct_sweep(
            format_store, narrow
        )

        if _rows(v1_results) != _rows(v2_results):
            problems.append("narrow-v2 rows differ from narrow-v1")
        overdrawn = {
            r.columns_loaded
            for r in v2_results
            if r.columns_loaded != NARROW_COLUMNS
        }
        if overdrawn:
            problems.append(
                f"v2 narrow sweep loaded {sorted(overdrawn)} instead of "
                f"only the referenced columns {NARROW_COLUMNS}"
            )
        v1_bytes = sum(r.bytes_read for r in v1_results)
        v2_bytes = sum(r.bytes_read for r in v2_results)
        if not 0 < v2_bytes < v1_bytes:
            problems.append(
                f"v2 narrow sweep read {v2_bytes} bytes vs. v1's "
                f"{v1_bytes}; projection is not reducing I/O"
            )
        speedup = (
            walls[f"{KEY}[narrow-v1]"] / walls[f"{KEY}[narrow-v2]"]
        )
        print(
            f"projection: {len(narrow)} narrow queries read "
            f"{v2_bytes:,} bytes on v2 vs. {v1_bytes:,} on v1 and run "
            f"{speedup:.2f}x the v1 sweep"
        )
        if args.fail_on_regression and speedup < 2.0:
            problems.append(
                f"v2 narrow sweep only {speedup:.2f}x faster than v1 "
                f"(the columnar format should clear 2x)"
            )

        # Encoding sweep: the same flows migrated v2 → v3, replaying a
        # selective filtered batch on both.  v2 maps full raw segments
        # and masks; v3 answers the predicate on dictionary codes and
        # bitmap index rows before materializing anything.
        filtered = _filtered_batch(n_repeats)
        _direct_sweep(format_store, filtered)
        fv2_results, walls[f"{KEY}[filtered-v2]"] = _direct_sweep(
            format_store, filtered
        )
        t0 = time.perf_counter()
        format_store.migrate(FORMAT_V3)
        walls[f"{KEY}[migrate-v3]"] = time.perf_counter() - t0
        _direct_sweep(format_store, filtered)
        fv3_results, walls[f"{KEY}[filtered-v3]"] = _direct_sweep(
            format_store, filtered
        )

        if _rows(fv2_results) != _rows(fv3_results):
            problems.append("filtered-v3 rows differ from filtered-v2")
        fv2_bytes = sum(r.bytes_read for r in fv2_results)
        fv3_bytes = sum(r.bytes_read for r in fv3_results)
        if not 0 < fv3_bytes < fv2_bytes:
            problems.append(
                f"v3 filtered sweep read {fv3_bytes} bytes vs. v2's "
                f"{fv2_bytes}; predicate pushdown is not reducing I/O"
            )
        v3_speedup = (
            walls[f"{KEY}[filtered-v2]"] / walls[f"{KEY}[filtered-v3]"]
        )
        column_stats = format_store.column_stats()
        stored_ratio = (
            sum(int(e["stored_nbytes"]) for e in column_stats.values())
            / max(1, sum(int(e["raw_nbytes"])
                         for e in column_stats.values()))
        )
        colstore_block = {
            "queries": len(filtered),
            "filtered_v2_bytes": int(fv2_bytes),
            "filtered_v3_bytes": int(fv3_bytes),
            "bytes_ratio": round(fv3_bytes / max(1, fv2_bytes), 4),
            "stored_ratio": round(stored_ratio, 4),
            "speedup_vs_v2": round(v3_speedup, 3),
        }
        print(
            f"encodings: {len(filtered)} filtered queries read "
            f"{fv3_bytes:,} bytes on v3 vs. {fv2_bytes:,} on v2, run "
            f"{v3_speedup:.2f}x the v2 sweep; columns store at "
            f"{stored_ratio:.2f}x raw width"
        )
        if args.fail_on_regression and v3_speedup < 2.0:
            problems.append(
                f"v3 filtered sweep only {v3_speedup:.2f}x faster than "
                f"v2 (bitmap + dictionary pushdown should clear 2x)"
            )

        # Scaling sweep: one scan-heavy multi-vantage batch through the
        # engine in all three execution modes.  The isp-ce store spans
        # 7 weeks; a second lower-fidelity vantage exercises scans over
        # more than one store in the same sweep.
        cores = os.cpu_count() or 1
        t0 = time.perf_counter()
        edu_flows = scenario.vantage("edu").generate_flows(
            START, END, fidelity=fidelity / 2
        )
        edu_store = FlowStore(Path(tmp) / "edu")
        edu_store.write_range(edu_flows, START, END)
        walls[f"{KEY}[build-edu-store]"] = time.perf_counter() - t0

        scale_batch = [
            (store, spec) for spec in _batch(n_repeats)
        ] + [
            (edu_store, spec)
            for spec in _scale_specs("edu", n_repeats)
        ]

        def _mode_sweep(pool):
            t0 = time.perf_counter()
            results = [
                execute_query(st, sp, pool=pool)
                for st, sp in scale_batch
            ]
            return results, time.perf_counter() - t0

        # Pools are persistent in production (one per service), so each
        # mode gets one untimed warm-up sweep: it primes the page cache,
        # spawns the workers, and fills their per-process store caches
        # before the steady-state measurement.
        _mode_sweep(None)
        scale_serial, walls[f"{KEY}[scale-serial]"] = _mode_sweep(None)
        with ScanPool(cores, kind="thread") as thread_pool:
            _mode_sweep(thread_pool)
            scale_threads, walls[f"{KEY}[scale-threads]"] = _mode_sweep(
                thread_pool
            )
        prior_registry = obs.get_registry()
        registry = MetricsRegistry()
        try:
            with make_scan_pool(cores) as scan_pool:
                _mode_sweep(scan_pool)
                # meter only the timed sweep's shard/IPC traffic
                obs.set_registry(registry)
                scale_procs, walls[f"{KEY}[scale-procs]"] = _mode_sweep(
                    scan_pool
                )
                pool_info = scan_pool.describe()
        finally:
            obs.set_registry(prior_registry)
        counters = registry.snapshot()["counters"]

        if _rows(scale_threads) != _rows(scale_serial):
            problems.append("scale-threads rows differ from scale-serial")
        if _rows(scale_procs) != _rows(scale_serial):
            problems.append("scale-procs rows differ from scale-serial")
        if sum(r.n_failed for r in scale_serial + scale_threads
               + scale_procs):
            problems.append("scaling sweep had failed partitions")

        serial_wall = walls[f"{KEY}[scale-serial]"]
        threads_wall = walls[f"{KEY}[scale-threads]"]
        procs_wall = walls[f"{KEY}[scale-procs]"]
        scaling = {
            "cores": cores,
            "pool_kind": pool_info["kind"],
            "pool_width": pool_info["width"],
            "start_method": pool_info["start_method"],
            "queries": len(scale_batch),
            "ipc_bytes": int(counters.get("query.proc.ipc-bytes", 0)),
            "shards": int(counters.get("query.proc.shards", 0)),
            "speedup_vs_serial": round(serial_wall / procs_wall, 3),
            "speedup_vs_threads": round(threads_wall / procs_wall, 3),
        }
        print(
            f"scaling: {len(scale_batch)} queries on {cores} core(s) — "
            f"procs ({scaling['pool_kind']}) runs "
            f"{scaling['speedup_vs_serial']:.2f}x serial and "
            f"{scaling['speedup_vs_threads']:.2f}x threads; "
            f"{scaling['shards']} shards shipped "
            f"{scaling['ipc_bytes']:,} IPC bytes"
        )
        # The scaling gate is core-aware: a single-core host can only
        # check parity, 2+ cores must show processes winning, and 4+
        # cores must clear the paper-grade 2x bar.
        if args.fail_on_regression and scaling["pool_kind"] == "process":
            if cores >= 2 and procs_wall >= serial_wall:
                problems.append(
                    f"scale-procs {procs_wall:.3f} s not faster than "
                    f"serial {serial_wall:.3f} s on {cores} cores"
                )
            if cores >= 2 and procs_wall > threads_wall:
                problems.append(
                    f"scale-procs {procs_wall:.3f} s slower than "
                    f"threads {threads_wall:.3f} s on {cores} cores"
                )
            if cores >= 4 and scaling["speedup_vs_serial"] < 2.0:
                problems.append(
                    f"scale-procs only "
                    f"{scaling['speedup_vs_serial']:.2f}x serial on "
                    f"{cores} cores (process scatter-gather should "
                    f"clear 2x)"
                )

    for key, wall in walls.items():
        print(f"{key:55s} {wall:8.3f} s")
    w1 = walls[f"{KEY}[cold-w1]"]
    w4 = walls[f"{KEY}[cold-w4]"]
    warm_wall = walls[f"{KEY}[warm]"]
    print(
        f"{len(specs)} queries: workers=4 runs {w1 / w4:.2f}x the "
        f"serial sweep; warm cache replays at "
        f"{len(specs) / warm_wall:.0f} q/s ({w1 / warm_wall:.0f}x)"
    )

    history_path = Path(args.output)
    if history_path.exists():
        payload = json.loads(history_path.read_text())
    else:
        payload = {"runs": []}

    if args.fail_on_regression:
        for gated in (f"{KEY}[warm]", f"{KEY}[narrow-v2]",
                      f"{KEY}[filtered-v3]"):
            recorded = _latest_baseline(payload, gated, args.fast)
            if recorded is None:
                print(f"no recorded {gated} baseline at this fidelity; "
                      f"skipping its regression gate")
                continue
            measured = walls[gated]
            limit = recorded * (1.0 + args.regression_threshold)
            print(
                f"regression gate: {gated} {measured:.3f} s vs. "
                f"recorded {recorded:.3f} s (limit {limit:.3f} s)"
            )
            if measured > limit:
                problems.append(
                    f"{gated} sweep {measured:.3f} s exceeds recorded "
                    f"baseline {recorded:.3f} s by more than "
                    f"{args.regression_threshold:.0%}"
                )

    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    status = 1 if problems else 0

    payload["runs"].append(
        {
            "timestamp": round(time.time(), 3),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "fast": bool(args.fast),
            "exit_status": status,
            "wall_s": {k: round(v, 4) for k, v in sorted(walls.items())},
            "scaling": scaling,
            "colstore": colstore_block,
        }
    )
    history_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"appended run to {history_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
