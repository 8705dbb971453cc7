"""Command-line interface: ``lockdown-effect``.

Subcommands:

* ``list`` — show available experiments,
* ``run [EXPERIMENT ...]`` — run experiments (default: all) and print
  metrics, checks, and the figure sketch; ``--telemetry PATH``
  additionally records spans/metrics and writes a run manifest, and
  ``--cache-dir DIR`` persists materialized datasets across runs,
* ``telemetry PATH`` — pretty-print a previously written manifest
  (span tree with self/total times, top counters),
* ``report`` — run everything and emit a Markdown paper-vs-measured
  report (the generator behind EXPERIMENTS.md),
* ``generate`` — write a synthetic flow trace to disk (CSV, NPZ, or a
  day-partitioned ``FlowStore`` directory with ``--store``),
* ``query`` — one-shot filter/group/aggregate query against a
  partitioned flow store,
* ``serve`` — run a :class:`~repro.query.service.QueryService` over a
  JSONL batch of queries, emulating a multi-user analytics load.

``--log-level`` (global) routes structured JSON log events — e.g.
failed experiment checks — to stderr.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import logging
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro.obs as obs
from repro.flows import io as flow_io
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    PipelineConfig,
    run_all,
)
from repro.synth import datasets
from repro.synth.scenario import DEFAULT_SEED, build_scenario

#: Paper-reported reference values shown next to measurements in the
#: report (experiment id -> {metric: description}).
PAPER_REFERENCE = {
    "fig01": {
        "ipx/lockdown": "paper: roaming collapses (travel stops)",
        "isp-ce/lockdown": "paper: fixed lines rise 15-20%",
    },
    "disc09": {
        "peak-growth": "paper: peak increase is moderate (§9)",
        "valley-growth": "paper: the pandemic fills the valleys (§9)",
        "max-member-growth": "paper: single links way beyond 15-20% (§9)",
    },
    "fig03": {
        "isp-ce/stage1": "paper: >+20%",
        "ixp-ce/stage1": "paper: +30%",
        "ixp-se/stage1": "paper: +12%",
        "ixp-us/stage1": "paper: +2%",
        "isp-ce/stage3": "paper: +6%",
    },
    "fig04": {"hypergiant-share": "paper: ~75% of delivered traffic"},
    "fig09": {"ixp-ce/webconf": "paper: >+200% during business hours"},
    "fig10": {"domain/march": "paper: >+200% during working hours"},
    "fig11": {
        "max-workday-drop": "paper: up to -55%",
        "ratio/base": "paper: up to 15x",
    },
    "fig12": {
        "incoming-growth": "paper: 2.0x",
        "outgoing-growth": "paper: ~0.5x",
        "total-growth": "paper: 1.24x",
        "web/in-growth": "paper: 1.7x",
        "email/in-growth": "paper: 1.8x",
        "vpn/in-growth": "paper: 4.8x",
        "remote-desktop/in-growth": "paper: 5.9x",
        "ssh/in-growth": "paper: 9.1x",
        "unknown-fraction": "paper: 39%",
    },
}


def _print_result(result: ExperimentResult, verbose: bool) -> None:
    marker = "PASS" if result.passed else "FAIL"
    print(f"== {result.experiment_id}: {result.title} [{marker}]")
    for name, value in sorted(result.metrics.items()):
        reference = PAPER_REFERENCE.get(result.experiment_id, {}).get(name, "")
        suffix = f"   ({reference})" if reference else ""
        print(f"   {name:40s} {value:10.3f}{suffix}")
    for name, ok in result.checks.items():
        print(f"   [{'ok' if ok else 'XX'}] {name}")
    if verbose and result.rendered:
        print(result.rendered)
    print()


def _cmd_list(_: argparse.Namespace) -> int:
    for experiment_id, runner in EXPERIMENTS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:8s} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = args.experiments or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.cache_dir and args.no_dataset_cache:
        print("--cache-dir requires the dataset cache; drop "
              "--no-dataset-cache", file=sys.stderr)
        return 2
    if args.telemetry:
        obs.configure(telemetry=True)
    logger = obs.get_logger("cli")
    config = PipelineConfig.fast() if args.fast else PipelineConfig()
    scenario = build_scenario(seed=args.seed)
    if args.no_dataset_cache:
        run_cache = datasets.DatasetCache(enabled=False)
    elif args.cache_dir:
        run_cache = datasets.DatasetCache(cache_dir=args.cache_dir)
    else:
        run_cache = datasets.get_cache()
    with datasets.use_cache(run_cache):
        results = run_all(
            scenario, config, experiment_ids=ids, jobs=args.jobs,
            on_error="capture",
        )
    failed = 0
    for result in results:
        _print_result(result, verbose=args.verbose)
        if not result.passed:
            failed += 1
            obs.log_event(
                logger, "experiment-failed", level=logging.WARNING,
                experiment=result.experiment_id,
                failed_checks=result.failed_checks(),
            )
    manifest = None
    if args.telemetry:
        from repro.obs.manifest import build_manifest

        # The thread pool's width, as its span recorded it.
        run_width = next(
            (span.metrics["width"] for span in obs.get_tracer().roots
             if span.name == "executor/parallel"),
            1,
        )
        manifest = build_manifest(
            results, seed=args.seed, config=config,
            scenario=scenario,
            executor={
                "name": "parallel" if args.jobs > 1 else "serial",
                "pool": "thread" if args.jobs > 1 else "serial",
                "jobs": args.jobs,
                "width": run_width,
                "dataset_cache": dict(
                    run_cache.stats.to_dict(),
                    enabled=run_cache.enabled,
                    cache_dir=(
                        str(run_cache.cache_dir)
                        if run_cache.cache_dir is not None
                        else None
                    ),
                ),
            },
        )
        try:
            manifest.write(args.telemetry)
        except OSError as exc:
            print(f"cannot write telemetry to {args.telemetry}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"telemetry written to {args.telemetry}")
    if args.artifacts:
        from repro.report.export import write_run

        root = write_run(results, args.artifacts, manifest=manifest)
        print(f"artifacts written to {root}")
    if failed:
        print(f"{failed} experiment(s) with failing shape checks")
    return 1 if failed else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        Experiment,
        format_grid_manifest,
        load_grid,
    )

    if args.repeats is not None and args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.procs < 1:
        print("--procs must be >= 1", file=sys.stderr)
        return 2
    try:
        grid = load_grid(args.spec_file)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load grid spec {args.spec_file}: {exc}",
              file=sys.stderr)
        return 2
    repeats = args.repeats or grid["repeats"] or 1
    config = PipelineConfig.fast() if args.fast else PipelineConfig()
    experiment = Experiment(
        grid["scenarios"],
        nb_repeats=repeats,
        config=config,
        jobs=args.jobs,
        name=grid["name"],
        cell_procs=args.procs,
    )
    manifest = experiment.run()
    print(format_grid_manifest(manifest))
    if args.output:
        try:
            with open(args.output, "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"cannot write manifest to {args.output}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"grid manifest written to {args.output}")
    return 0 if manifest["passed"] else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    try:
        with open(args.telemetry_file) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read manifest {args.telemetry_file}: {exc}",
              file=sys.stderr)
        return 2
    if args.format == "prom":
        from repro.obs.prom import render_snapshot

        print(render_snapshot(payload.get("metrics") or {}), end="")
        return 0
    from repro.obs.manifest import format_manifest

    print(format_manifest(payload, top=args.top))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = PipelineConfig.fast() if args.fast else PipelineConfig()
    scenario = build_scenario(seed=args.seed)
    lines: List[str] = [
        "# Experiment report",
        "",
        f"Scenario seed: {args.seed}",
        "",
    ]
    for result in run_all(scenario, config):
        experiment_id = result.experiment_id
        marker = "PASS" if result.passed else "FAIL"
        lines.append(f"## {experiment_id} — {result.title} [{marker}]")
        lines.append("")
        if result.metrics:
            lines.append("| metric | measured | paper |")
            lines.append("|---|---|---|")
            for name, value in sorted(result.metrics.items()):
                reference = PAPER_REFERENCE.get(experiment_id, {}).get(
                    name, ""
                )
                lines.append(f"| {name} | {value:.3f} | {reference} |")
            lines.append("")
        for name, ok in result.checks.items():
            lines.append(f"- [{'x' if ok else ' '}] {name}")
        lines.append("")
    report = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _load_trace(path: str):
    if path.endswith(".npz"):
        return flow_io.read_npz(path)
    return flow_io.read_csv(path)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.flows import ipfix, netflow5

    flows = _load_trace(args.trace)
    if args.format == "netflow5":
        chunks = netflow5.encode_packets(flows)
        lossless = netflow5.round_trip_lossless(flows)
    else:
        chunks = ipfix.encode_messages(flows)
        lossless = True
    with open(args.output, "wb") as handle:
        for chunk in chunks:
            handle.write(len(chunk).to_bytes(4, "big"))
            handle.write(chunk)
    total = sum(len(c) for c in chunks)
    print(
        f"wrote {len(chunks)} {args.format} packets "
        f"({total} bytes) for {len(flows)} flows to {args.output}"
    )
    if not lossless:
        print("note: NetFlow v5 cannot carry 32-bit ASNs / 64-bit "
              "counters; the export is lossy for those fields")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:

    from repro.core import anomaly

    flows = _load_trace(args.trace)
    hours = flows.column("hour")
    start = int(hours.min()) // 24 * 24
    stop = (int(hours.max()) // 24 + 1) * 24
    hourly = flows.hourly_bytes(start, stop)
    daily_totals = hourly.reshape(-1, 24).sum(axis=1)
    first_day = _dt.date(2020, 1, 1) + _dt.timedelta(days=start // 24)
    daily = {
        first_day + _dt.timedelta(days=i): float(v)
        for i, v in enumerate(daily_totals)
        if v > 0
    }
    if len(daily) < 8:
        print("trace too short for week-over-week anomaly detection "
              "(need more than 7 days)")
        return 1
    found = anomaly.detect_anomalies(daily, threshold=args.threshold)
    print(f"{len(found)} anomalous day(s) at |z| >= {args.threshold}:")
    for item in found:
        print(
            f"  {item.day} {item.kind:5s} z={item.z_score:+6.1f} "
            f"({item.relative_deviation:+.0%} vs. prior week)"
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.core import appclass
    from repro.report.tables import render_table

    if args.trace.endswith(".npz"):
        flows = flow_io.read_npz(args.trace)
    else:
        flows = flow_io.read_csv(args.trace)
    classes = appclass.standard_classes()
    total = flows.total_bytes() or 1
    rows = []
    for name in sorted(classes):
        selected = classes[name].select(flows)
        rows.append(
            (
                name,
                len(selected),
                f"{selected.total_bytes() / 1e6:.1f}",
                f"{selected.total_bytes() / total:.1%}",
            )
        )
    print(
        render_table(
            ["class", "flows", "MB", "share"], rows,
            title=f"Application classes in {args.trace} "
                  f"({len(flows)} flows)",
        )
    )
    return 0


def _cmd_vpn_scan(args: argparse.Namespace) -> int:
    from repro.core import vpn

    scenario = build_scenario(seed=args.seed)
    strict = vpn.mine_vpn_candidates(scenario.dns_corpus)
    loose = vpn.mine_vpn_candidates(
        scenario.dns_corpus, eliminate_www_shared=False
    )
    print(f"domains observed:        {len(scenario.dns_corpus)}")
    print(f"*vpn* candidate domains: {len(strict.candidate_domains)}")
    print(f"candidate addresses:     {strict.n_candidates}")
    print(f"www-shared eliminated:   {len(strict.eliminated_shared)}")
    print(f"without elimination:     {loose.n_candidates} addresses")
    if args.verbose:
        for domain in strict.candidate_domains[: args.limit]:
            addresses = scenario.dns_corpus.resolve(domain)
            print(f"  {domain} -> {', '.join(str(a) for a in addresses)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if bool(args.output) == bool(args.store):
        print("generate needs exactly one of -o/--output or --store",
              file=sys.stderr)
        return 2
    scenario = build_scenario(seed=args.seed)
    vantage = scenario.vantage(args.vantage)
    start = _dt.date.fromisoformat(args.start)
    end = _dt.date.fromisoformat(args.end)
    try:
        flows = vantage.generate_flows(start, end, fidelity=args.fidelity)
    except ValueError as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return 2
    if args.store:
        from repro.flows.store import FlowStore

        written = FlowStore(args.store).write_range(flows, start, end)
        print(
            f"wrote {len(flows)} flows into {written} day partition(s) "
            f"under {args.store}"
        )
        return 0
    if args.output.endswith(".npz"):
        flow_io.write_npz(flows, args.output)
    else:
        flow_io.write_csv(flows, args.output)
    print(f"wrote {len(flows)} flows to {args.output}")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from repro.flows.store import FlowStore

    store = FlowStore(args.store)
    stats, unreadable = store.column_stats()
    total_raw = sum(int(e["raw_nbytes"]) for e in stats.values())
    total_stored = sum(int(e["stored_nbytes"]) for e in stats.values())
    total_index = sum(int(e["index_nbytes"]) for e in stats.values())
    if args.json:
        payload = {
            "store": str(store.root),
            "partitions": len(store),
            "unreadable": unreadable,
            "columns": stats,
            "total_raw_nbytes": total_raw,
            "total_stored_nbytes": total_stored,
            "total_index_nbytes": total_index,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store {store.root} ({len(store)} partition(s))")
    if unreadable:
        print(
            f"{len(unreadable)} unreadable partition(s), left out of "
            f"the totals below:"
        )
        for day, error in unreadable.items():
            print(f"  {day}: {error}")
    if not stats:
        print("no readable partitions to report")
        return 0
    header = (
        f"{'column':<12} {'encoding':<12} {'card':>6} "
        f"{'raw':>12} {'stored':>12} {'index':>9} {'ratio':>6}"
    )
    print(header)
    for name, entry in stats.items():
        raw = int(entry["raw_nbytes"])
        stored = int(entry["stored_nbytes"])
        ratio = stored / raw if raw else 1.0
        card = entry.get("max_cardinality")
        print(
            f"{name:<12} {'/'.join(entry['encodings']):<12} "
            f"{card if card is not None else '-':>6} "
            f"{raw:>12,} {stored:>12,} "
            f"{int(entry['index_nbytes']):>9,} {ratio:>6.2f}"
        )
    overall = total_stored / total_raw if total_raw else 1.0
    print(
        f"{'total':<12} {'':<12} {'':>6} {total_raw:>12,} "
        f"{total_stored:>12,} {total_index:>9,} {overall:>6.2f}"
    )
    return 0


def _render_explain(plan) -> str:
    """Human-readable query plan (``repro query --explain``)."""
    d = plan.to_dict()
    lines = [f"plan for {d['spec']}"]
    days = d["days"]
    span = f" ({days[0]}..{days[-1]})" if days else ""
    lines.append(f"  partitions to scan: {len(days)}{span}")
    pruned = d["pruned"]
    lines.append(
        f"  pruned without reading rows: {pruned['out_of_range']} "
        f"out-of-range, {pruned['empty']} empty, {pruned['by_hour']} "
        f"by hour window, {pruned['by_zone']} by zone map"
    )
    if d["missing_days"]:
        lines.append(
            f"  days in range with no partition: {len(d['missing_days'])}"
        )
    if d["sidecar_days"]:
        lines.append(
            f"  answered from sidecar pre-aggregates: "
            f"{d['sidecar_days']} partition(s)"
        )
    columns = ", ".join(d["columns"]) if d["columns"] else \
        "(none — row counts only)"
    lines.append(f"  columns projected: {columns}")
    strategies = d.get("strategies") or {}
    scanned = {k: v for k, v in strategies.items() if k != "sidecar"}
    if scanned:
        rendered = ", ".join(
            f"{count} {name}" for name, count in sorted(scanned.items())
        )
        lines.append(f"  scan strategies: {rendered}")
    lines.append(f"  estimated bytes read: {d['estimated_bytes']:,}")
    return "\n".join(lines)


def _parse_where(items: Optional[Sequence[str]]) -> Dict[str, object]:
    """``--where COLUMN=SPEC`` conditions as a build() mapping.

    SPEC is a single integer (equality), a comma list (membership), or
    ``LO..HI`` (inclusive range).
    """
    conditions: Dict[str, object] = {}
    for item in items or ():
        column, sep, value = item.partition("=")
        if not sep or not column or not value:
            raise ValueError(
                f"--where needs COLUMN=VALUES, got {item!r}"
            )
        if column in conditions:
            raise ValueError(f"duplicate --where column {column!r}")
        if ".." in value:
            lo, _, hi = value.partition("..")
            conditions[column] = {"min": int(lo), "max": int(hi)}
        elif "," in value:
            conditions[column] = [
                int(v) for v in value.split(",") if v
            ]
        else:
            conditions[column] = int(value)
    return conditions


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query import QueryError, QueryService, QuerySpec
    from repro.report.tables import render_table

    vantage = args.vantage or Path(args.store).name
    try:
        spec = QuerySpec.build(
            vantage, args.start, args.end,
            where=_parse_where(args.where),
            group_by=[k for k in (args.group_by or "").split(",") if k],
            aggregates=[a for a in args.agg.split(",") if a],
            bucket=args.bucket,
            hll_p=args.hll_p,
        )
    except (ValueError, QueryError) as exc:
        print(f"invalid query: {exc}", file=sys.stderr)
        return 2
    if args.explain:
        from repro.flows.store import FlowStore
        from repro.query import plan_query

        plan = plan_query(FlowStore(args.store), spec)
        if args.json:
            print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        else:
            print(_render_explain(plan))
        return 0
    try:
        with QueryService(
            {vantage: args.store}, workers=args.workers,
            scan_procs=args.scan_procs,
        ) as service:
            result = service.run(spec, timeout=args.timeout)
    except QueryError as exc:
        print(f"query failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    for failure in result.partitions_failed:
        print(f"failed partition {failure.day}: {failure.error}",
              file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 1 if result.n_failed else 0
    from repro.flows.record import proto_name
    from repro.flows.table import transport_label

    renderers = {"transport": transport_label, "proto": proto_name}
    header = list(result.key_names) + list(result.aggregates)
    rows = [
        [
            renderers[name](int(row[name]))
            if name in renderers else row[name]
            for name in header
        ]
        for row in result.rows
    ]
    shown = rows[: args.limit] if args.limit else rows
    if shown:
        print(render_table(header, shown, title=spec.describe()))
    else:
        print(f"{spec.describe()}: no matching rows")
    if args.limit and len(rows) > args.limit:
        print(f"... {len(rows) - args.limit} more row(s); "
              f"use --limit 0 to print all")
    print(
        f"{result.partitions_scanned} partition(s) scanned, "
        f"{result.partitions_pruned} pruned, {result.n_failed} failed; "
        f"{result.rows_matched}/{result.rows_scanned} rows matched "
        f"in {result.wall_s:.3f}s"
    )
    if result.hll_error:
        print(
            f"distinct counts are HyperLogLog estimates "
            f"(~{result.hll_error:.1%} relative standard error)"
        )
    return 1 if result.n_failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.query import (
        QueryError,
        QueryRejected,
        QueryService,
        QuerySpec,
    )

    stores: Dict[str, str] = {}
    for item in args.store:
        name, sep, path = item.partition("=")
        if not sep:
            name, path = Path(item).name, item
        if not name or not path:
            print(f"--store needs NAME=DIR or DIR, got {item!r}",
                  file=sys.stderr)
            return 2
        if name in stores:
            print(f"duplicate store name {name!r}", file=sys.stderr)
            return 2
        stores[name] = path
    if args.telemetry or args.metrics_port is not None:
        obs.configure(telemetry=True)
    slow_log = None
    if args.slow_log:
        from repro.obs.slowlog import SlowQueryLog

        slow_log = SlowQueryLog(
            args.slow_log, threshold_s=args.slow_threshold
        )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.server import MetricsServer

        metrics_server = MetricsServer(port=args.metrics_port)
        try:
            port = metrics_server.start()
        except OSError as exc:
            print(f"cannot bind metrics port {args.metrics_port}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"metrics at http://127.0.0.1:{port}/metrics")
    t0 = time.perf_counter()
    outcomes: List[Dict[str, object]] = []
    failed_partitions = 0
    with ExitStack() as stack:
        if metrics_server is not None:
            stack.callback(metrics_server.close)
        if args.batch == "-":
            batch = sys.stdin
        else:
            try:
                batch = stack.enter_context(open(args.batch))
            except OSError as exc:
                print(f"cannot read batch {args.batch}: {exc}",
                      file=sys.stderr)
                return 2
        with QueryService(
            stores,
            workers=args.workers,
            queue_capacity=args.queue,
            default_timeout=args.timeout,
            cache_entries=args.cache,
            slow_log=slow_log,
            scan_procs=args.scan_procs,
        ) as service:
            # Stream the batch line by line (stdin and huge files never
            # materialize in memory), submitting as specs parse — many
            # tickets in flight at once, the multi-user shape — then
            # collect results in submission order.
            for lineno, line in enumerate(batch, 1):
                line = line.strip()
                if not line:
                    continue
                entry: Dict[str, object] = {"line": lineno, "id": None}
                outcomes.append(entry)
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    entry["status"] = "error"
                    entry["error"] = f"invalid JSON: {exc}"
                    continue
                timeout = None
                if isinstance(payload, dict):
                    entry["id"] = payload.pop("id", None)
                    timeout = payload.pop("timeout_s", None)
                try:
                    spec = QuerySpec.from_dict(payload)
                    entry["ticket"] = service.submit(spec, timeout=timeout)
                except QueryRejected as exc:
                    entry["status"] = "rejected"
                    entry["error"] = str(exc)
                except QueryError as exc:
                    entry["status"] = "error"
                    entry["error"] = str(exc)
            for entry in outcomes:
                ticket = entry.pop("ticket", None)
                if ticket is None:
                    continue
                try:
                    result = ticket.result()
                except QueryError as exc:
                    entry["status"] = "error"
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    failed_partitions += result.n_failed
                    entry["status"] = "ok"
                    entry["result"] = result.to_dict()
            stats = service.stats
            described = service.describe()
        wall = time.perf_counter() - t0
        if metrics_server is not None and args.metrics_linger > 0:
            print(
                f"batch done; metrics endpoint lingering "
                f"{args.metrics_linger:.0f}s for a final scrape"
            )
            time.sleep(args.metrics_linger)
    if args.output:
        with open(args.output, "w") as handle:
            for entry in outcomes:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"per-query results written to {args.output}")
    n_errors = sum(1 for e in outcomes if e["status"] == "error")
    rate = len(outcomes) / wall if wall > 0 else 0.0
    print(
        f"served {stats.served}/{len(outcomes)} queries in {wall:.2f}s "
        f"({rate:.1f} q/s) — {stats.rejected} rejected, "
        f"{n_errors} errored, {stats.timeouts} timed out"
    )
    print(
        f"cache: {stats.cache_hits} hit(s) / {stats.cache_misses} "
        f"miss(es); max queue depth {stats.max_queue_depth}/"
        f"{args.queue}; failed partitions: {failed_partitions}"
    )
    if slow_log is not None:
        print(
            f"slow-query log: {slow_log.entries_written} entr(ies) over "
            f"{slow_log.threshold_s}s written to {slow_log.path}"
        )
    if args.telemetry:
        from repro.obs.manifest import build_manifest

        manifest = build_manifest(
            [], seed=args.seed, executor=described
        )
        try:
            manifest.write(args.telemetry)
        except OSError as exc:
            print(f"cannot write telemetry to {args.telemetry}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"telemetry written to {args.telemetry}")
    return 1 if n_errors else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="lockdown-effect",
        description=(
            "Reproduction of 'The Lockdown Effect' (IMC 2020): synthetic "
            "flow traces plus the paper's full analysis pipeline."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="scenario seed (default: %(default)s)",
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="emit structured JSON log events at LEVEL or above",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (default: all)",
    )
    run_parser.add_argument(
        "--fast", action="store_true", help="lower sampling fidelity"
    )
    run_parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="run experiments on up to N worker threads with "
             "dataset-ready scheduling, capped by the run's schedulable "
             "work and the machine's cores (default: %(default)s, "
             "serial on this thread)",
    )
    run_parser.add_argument(
        "--no-dataset-cache", action="store_true",
        help="materialize every dataset per experiment instead of "
             "sharing them through the cache",
    )
    run_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist materialized datasets as .npz archives under DIR "
             "and reuse them across runs (invalidated by scenario seed, "
             "request parameters, and cache format version)",
    )
    run_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print figure sketches",
    )
    run_parser.add_argument(
        "--artifacts", metavar="DIR",
        help="write per-experiment metrics/series artifacts to DIR",
    )
    run_parser.add_argument(
        "--telemetry", metavar="PATH",
        help="collect spans/metrics and write a run manifest to PATH",
    )
    run_parser.set_defaults(func=_cmd_run)

    experiment_parser = sub.add_parser(
        "experiment",
        help="sweep a scenario grid (spec file x repeats) through the "
             "analyses and blind expectation checks",
    )
    experiment_parser.add_argument(
        "spec_file",
        help="python file defining GRID (dict) or SCENARIOS (list); "
             "see examples/experiment_grid.py",
    )
    experiment_parser.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="repetitions per scenario with derived child seeds "
             "(default: the spec file's 'repeats', else 1)",
    )
    experiment_parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker threads per grid cell (default: %(default)s)",
    )
    experiment_parser.add_argument(
        "--procs", type=int, default=1, metavar="N",
        help="run grid cells (scenario x repeat) on N worker "
             "processes; each cell keeps its own dataset cache "
             "(default: %(default)s, serial cells)",
    )
    experiment_parser.add_argument(
        "--fast", action="store_true", help="lower sampling fidelity"
    )
    experiment_parser.add_argument(
        "-o", "--output", metavar="PATH",
        help="also write the aggregated grid manifest to PATH as JSON",
    )
    experiment_parser.set_defaults(func=_cmd_experiment)

    telemetry_parser = sub.add_parser(
        "telemetry", help="pretty-print a telemetry.json run manifest"
    )
    telemetry_parser.add_argument(
        "telemetry_file", help="manifest written by run --telemetry"
    )
    telemetry_parser.add_argument(
        "--top", type=int, default=10,
        help="number of counters shown (default: %(default)s)",
    )
    telemetry_parser.add_argument(
        "--format", choices=("pretty", "prom"), default="pretty",
        help="output format: human-readable summary or Prometheus "
             "text exposition (default: %(default)s)",
    )
    telemetry_parser.set_defaults(func=_cmd_telemetry)

    report_parser = sub.add_parser(
        "report", help="emit a Markdown paper-vs-measured report"
    )
    report_parser.add_argument("-o", "--output", help="output file")
    report_parser.add_argument(
        "--fast", action="store_true", help="lower sampling fidelity"
    )
    report_parser.set_defaults(func=_cmd_report)

    classify_parser = sub.add_parser(
        "classify", help="classify a trace file into application classes"
    )
    classify_parser.add_argument(
        "trace", help="flow trace (.csv or .npz, as written by generate)"
    )
    classify_parser.set_defaults(func=_cmd_classify)

    export_parser = sub.add_parser(
        "export", help="export a trace as NetFlow v5 or IPFIX bytes"
    )
    export_parser.add_argument("trace", help="flow trace (.csv or .npz)")
    export_parser.add_argument(
        "--format", choices=("netflow5", "ipfix"), default="ipfix"
    )
    export_parser.add_argument(
        "-o", "--output", required=True,
        help="output file (length-prefixed packet stream)",
    )
    export_parser.set_defaults(func=_cmd_export)

    detect_parser = sub.add_parser(
        "detect", help="flag anomalous days in a trace"
    )
    detect_parser.add_argument("trace", help="flow trace (.csv or .npz)")
    detect_parser.add_argument(
        "--threshold", type=float, default=4.0,
        help="robust z-score threshold (default: %(default)s)",
    )
    detect_parser.set_defaults(func=_cmd_detect)

    vpn_parser = sub.add_parser(
        "vpn-scan", help="mine the domain corpus for VPN candidates"
    )
    vpn_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print candidate domains and their addresses",
    )
    vpn_parser.add_argument(
        "--limit", type=int, default=20,
        help="max candidates printed with --verbose",
    )
    vpn_parser.set_defaults(func=_cmd_vpn_scan)

    gen_parser = sub.add_parser(
        "generate", help="write a synthetic flow trace"
    )
    gen_parser.add_argument(
        "--vantage", default="isp-ce",
        help="vantage point name (default: %(default)s)",
    )
    gen_parser.add_argument("--start", default="2020-02-19")
    gen_parser.add_argument("--end", default="2020-02-25")
    gen_parser.add_argument("--fidelity", type=float, default=1.0)
    gen_parser.add_argument(
        "-o", "--output", help=".csv or .npz path"
    )
    gen_parser.add_argument(
        "--store", metavar="DIR",
        help="write a day-partitioned FlowStore directory instead of "
             "a flat trace file (for repro query / repro serve)",
    )
    gen_parser.set_defaults(func=_cmd_generate)

    query_parser = sub.add_parser(
        "query",
        help="run one filter/group/aggregate query against a flow store",
    )
    query_parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="FlowStore directory (as written by generate --store)",
    )
    query_parser.add_argument(
        "--vantage",
        help="vantage name (default: the store directory's name)",
    )
    query_parser.add_argument("--start", required=True, metavar="DATE")
    query_parser.add_argument("--end", required=True, metavar="DATE")
    query_parser.add_argument(
        "--where", action="append", metavar="COLUMN=SPEC",
        help="row predicate: COLUMN=V (equality), COLUMN=V1,V2 "
             "(membership), or COLUMN=LO..HI (inclusive range); "
             "repeatable",
    )
    query_parser.add_argument(
        "--group-by", metavar="KEY[,KEY...]",
        help="comma-separated group keys (e.g. transport,proto)",
    )
    query_parser.add_argument(
        "--agg", default="bytes", metavar="AGG[,AGG...]",
        help="comma-separated aggregates: bytes, packets, connections, "
             "flows, distinct_src_ips, distinct_dst_ips "
             "(default: %(default)s)",
    )
    query_parser.add_argument(
        "--bucket", choices=("hour", "day"),
        help="also split result rows by time bucket",
    )
    query_parser.add_argument(
        "--hll-p", type=int, default=12, metavar="P",
        help="HyperLogLog precision for distinct counts "
             "(default: %(default)s)",
    )
    query_parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="parallel partition scanners (default: %(default)s)",
    )
    query_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="per-query deadline in seconds (default: %(default)s)",
    )
    query_parser.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="result rows printed (0 = all; default: %(default)s)",
    )
    query_parser.add_argument(
        "--scan-procs", type=int, default=0, metavar="N",
        help="scatter partition scans across N worker processes "
             "(sharded by date; falls back to threads where fork is "
             "unavailable; default: %(default)s, in-process scans)",
    )
    query_parser.add_argument(
        "--json", action="store_true",
        help="emit the full result as JSON instead of a table",
    )
    query_parser.add_argument(
        "--explain", action="store_true",
        help="print the query plan (partitions pruned by range vs. "
             "zone map, columns projected, estimated bytes read) "
             "without executing it",
    )
    query_parser.set_defaults(func=_cmd_query)

    store_parser = sub.add_parser(
        "store", help="flow store maintenance",
    )
    store_sub = store_parser.add_subparsers(
        dest="store_command", required=True
    )
    stats_parser = store_sub.add_parser(
        "stats",
        help="per-column storage report: encoding, bytes, compression",
    )
    stats_parser.add_argument(
        "store", metavar="DIR",
        help="FlowStore directory (as written by generate --store)",
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the table",
    )
    stats_parser.set_defaults(func=_cmd_store_stats)

    serve_parser = sub.add_parser(
        "serve",
        help="serve a JSONL batch of queries through a QueryService",
    )
    serve_parser.add_argument(
        "batch",
        help="JSONL file of QuerySpec objects ('-' = stdin); each "
             "line may carry an extra 'id' and per-query 'timeout_s'",
    )
    serve_parser.add_argument(
        "--store", action="append", required=True, metavar="NAME=DIR",
        help="vantage store to serve (repeatable; bare DIR uses the "
             "directory name as the vantage)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="service worker threads (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--scan-procs", type=int, default=0, metavar="N",
        help="scatter each query's partition scans across N worker "
             "processes shared by all service workers (falls back to "
             "threads where fork is unavailable; default: %(default)s, "
             "each worker scans its own queries inline)",
    )
    serve_parser.add_argument(
        "--queue", type=int, default=64, metavar="N",
        help="admission queue capacity; a full queue rejects new "
             "queries (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="default per-query deadline in seconds "
             "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--cache", type=int, default=128, metavar="N",
        help="LRU result-cache entries (default: %(default)s)",
    )
    serve_parser.add_argument(
        "-o", "--output", metavar="PATH",
        help="write per-query JSONL results to PATH",
    )
    serve_parser.add_argument(
        "--telemetry", metavar="PATH",
        help="collect query.* metrics and write a run manifest to PATH",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="expose /metrics (Prometheus text format) on PORT while "
             "serving; 0 picks an ephemeral port (implies telemetry "
             "collection)",
    )
    serve_parser.add_argument(
        "--metrics-linger", type=float, default=0.0, metavar="S",
        help="keep the metrics endpoint up S seconds after the batch "
             "finishes so a scraper can take a final sample "
             "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--slow-log", metavar="PATH",
        help="append a JSONL diagnostic entry (spec, plan, stage "
             "timings) for every query over the slow threshold",
    )
    serve_parser.add_argument(
        "--slow-threshold", type=float, default=1.0, metavar="S",
        help="end-to-end latency budget for --slow-log in seconds "
             "(default: %(default)s)",
    )
    serve_parser.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        obs.configure(telemetry=False, log_level=args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
