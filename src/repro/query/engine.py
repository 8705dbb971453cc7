"""Query planning and execution over partitioned flow stores.

The engine turns one :class:`~repro.query.spec.QuerySpec` into a
:class:`QueryPlan` — the minimal set of :class:`~repro.flows.store.FlowStore`
day partitions that can contribute rows — and executes the plan one
partition at a time, in parallel when given a worker pool.  Each
partition scan pushes the spec's predicates into a single boolean mask,
groups the surviving rows through the table's memoized
:class:`~repro.flows.groupby.GroupIndex` machinery, and produces a
columnar :class:`Partial`: flat group-key columns, exact int64 sums
per group, and one sparse HyperLogLog register set per distinct-count
aggregate covering every group at once.  Partials merge associatively
(concatenate, then re-reduce: exact integer addition for sums, the
maximum rank per register for sketches), so the full date range is
never materialized in memory — only the partials are.

Partition failures are data, not crashes: a partition that raises
:class:`~repro.flows.store.FlowStoreError` (missing file, checksum
mismatch, unreadable archive) is recorded in
:attr:`QueryResult.partitions_failed` and the scan continues.
"""

from __future__ import annotations

import datetime as _dt
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace
from threading import Event
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro import timebase
from repro.flows import colstore, encodings
from repro.flows.groupby import GroupIndex
from repro.flows.hll import GroupedRegisters, relative_error
from repro.flows.store import FORMAT_V1, FORMAT_V3, FlowStore, FlowStoreError
from repro.flows.table import COLUMNS, DERIVED_KEYS, FlowTable
from repro.query.errors import QueryCancelled, QueryTimeout
from repro.query.spec import (
    AGGREGATE_INPUT_COLUMNS,
    EXACT_AGGREGATE_COLUMNS,
    SKETCH_AGGREGATES,
    QuerySpec,
)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class QueryPlan:
    """The partitions one query will touch, after pruning.

    ``days`` are the partitions to scan; ``pruned_out_of_range`` counts
    store partitions outside the query's date range,
    ``pruned_empty`` partitions inside the range whose manifest reports
    zero flows, ``pruned_by_hour`` partitions whose 24-hour window
    cannot intersect an ``hour`` predicate, and ``pruned_by_zone``
    partitions whose sidecar zone map (per-column min/max) proves a
    predicate cannot match any row.  ``missing_days`` are range days
    with no partition at all (informational — a sparse store is not an
    error).

    ``columns`` is the physical projection the scans will load,
    ``sidecar_days`` how many planned days will be answered from
    sidecar pre-aggregates without row I/O, and ``estimated_bytes`` the
    predicted partition bytes behind the remaining scans (encoded part
    bytes for v3 days, segment bytes of projected columns for v2 days,
    archive bytes scaled by the projected-column fraction for v1 days).
    ``day_strategies`` records, parallel to ``days``, the per-partition
    scan strategy the cost model picked (``"sidecar"``, ``"bitmap"``,
    ``"scan"``, or ``"full"`` for v1/full loads).
    """

    spec: QuerySpec
    days: Tuple[_dt.date, ...]
    missing_days: Tuple[_dt.date, ...]
    pruned_out_of_range: int
    pruned_empty: int
    pruned_by_hour: int
    pruned_by_zone: int = 0
    columns: Tuple[str, ...] = ()
    sidecar_days: int = 0
    estimated_bytes: int = 0
    day_strategies: Tuple[str, ...] = ()

    @property
    def n_pruned(self) -> int:
        """Store partitions skipped without being read."""
        return self.pruned_out_of_range + self.pruned_empty + \
            self.pruned_by_hour + self.pruned_by_zone

    def strategy_counts(self) -> Dict[str, int]:
        """How many planned days use each scan strategy."""
        counts: Dict[str, int] = {}
        for strategy in self.day_strategies:
            counts[strategy] = counts.get(strategy, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``repro query --explain``)."""
        return {
            "spec": self.spec.describe(),
            "fingerprint": self.spec.fingerprint(),
            "days": [d.isoformat() for d in self.days],
            "missing_days": [d.isoformat() for d in self.missing_days],
            "pruned": {
                "out_of_range": self.pruned_out_of_range,
                "empty": self.pruned_empty,
                "by_hour": self.pruned_by_hour,
                "by_zone": self.pruned_by_zone,
            },
            "columns": list(self.columns),
            "sidecar_days": self.sidecar_days,
            "estimated_bytes": self.estimated_bytes,
            "strategies": self.strategy_counts(),
        }


@dataclass(frozen=True)
class ScanStats:
    """Per-partition scan diagnostics.

    ``mode`` names the I/O strategy taken: ``"mmap"`` (projected
    memory-mapped v2/v3 scan), ``"bitmap"`` (v3 predicate-first scan —
    bitmap/dictionary-code filtering before any row materialization),
    ``"full"`` (whole-partition load — v1 archives and the
    ``REPRO_NO_COLSTORE`` path), or ``"sidecar"`` (answered from
    pre-aggregates without touching row data).
    """

    rows_scanned: int
    rows_matched: int
    bytes_read: int
    columns: Tuple[str, ...]
    mode: str


@dataclass
class PartitionFailure:
    """One partition the engine could not serve."""

    day: str
    error: str

    def to_dict(self) -> Dict[str, str]:
        return {"day": self.day, "error": self.error}


@dataclass
class Partial:
    """Columnar partial aggregates of one partition, shard or query.

    Group ``g`` is row ``g`` of the flat ``keys`` columns — one int64
    column per key name of the spec (the time bucket first, then the
    group keys) — and groups are unique and sorted by key tuple.
    ``sums`` maps each exact aggregate to its int64 per-group totals;
    ``registers`` maps each distinct-count aggregate to the sparse
    HyperLogLog registers of all groups.  ``n_groups`` is explicit
    because a query with no keys has one group and no key columns.
    """

    n_groups: int
    keys: Tuple[np.ndarray, ...]
    sums: Dict[str, np.ndarray]
    registers: Dict[str, GroupedRegisters]

    @classmethod
    def empty(cls, spec: QuerySpec) -> "Partial":
        """No groups (a partition where no row matched)."""
        return cls(
            n_groups=0,
            keys=tuple(
                np.zeros(0, dtype=np.int64) for _ in spec.key_names
            ),
            sums={},
            registers={},
        )


@dataclass
class QueryResult:
    """The merged outcome of one executed query.

    ``arrays`` holds one read-only ndarray per key column (the time
    bucket first, then group keys) and per aggregate, all of length
    :attr:`n_rows` and ordered by key; ``day`` keys are date ordinals.
    Distinct-count aggregates are HyperLogLog estimates (rounded to
    int) with relative standard error ``hll_error``; all other
    aggregates are exact int64 sums.  :attr:`rows` renders the same
    data as a list of dicts.
    """

    fingerprint: str
    vantage: str
    key_names: Tuple[str, ...]
    aggregates: Tuple[str, ...]
    arrays: Mapping[str, np.ndarray]
    partitions_planned: int
    partitions_scanned: int
    partitions_pruned: int
    partitions_failed: List[PartitionFailure] = field(default_factory=list)
    rows_scanned: int = 0
    rows_matched: int = 0
    bytes_read: int = 0
    columns_loaded: Tuple[str, ...] = ()
    hll_error: float = 0.0
    wall_s: float = 0.0
    from_cache: bool = False
    #: Per-stage wall seconds: ``plan``/``scan``/``merge`` filled by the
    #: engine (``scan`` sums per-partition scan walls, so it can exceed
    #: elapsed time under parallelism), ``queue``/``cache_store``/
    #: ``total`` stamped by the query service.  A cache hit gets a
    #: fresh dict with zeroed execution stages.
    stages: Dict[str, float] = field(default_factory=dict)
    #: Compact plan diagnostics (pruning, projection, sidecar use) —
    #: what ``--explain`` would have reported for this execution.
    plan_summary: Optional[Dict[str, object]] = None

    @property
    def n_failed(self) -> int:
        return len(self.partitions_failed)

    @property
    def n_rows(self) -> int:
        """Result rows (groups), without building them."""
        return len(self.arrays[self.aggregates[0]])

    @property
    def rows(self) -> List[Dict[str, object]]:
        """The result as dicts: key columns, then aggregates, by key.

        Built from :attr:`arrays` on every access (O(rows)) and not
        cached; values are Python ints, ``day`` keys ISO date strings.
        """
        names = self.key_names + self.aggregates
        columns = [self.column(name) for name in names]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def column(self, name: str) -> List[object]:
        """One key or aggregate column across all rows, in row order."""
        values = self.arrays[name].tolist()
        if name == "day":
            return [_dt.date.fromordinal(v).isoformat() for v in values]
        return values

    def hourly(self, aggregate: str, start: int, stop: int) -> np.ndarray:
        """A dense per-hour series for a ``bucket="hour"`` query.

        Hours in ``[start, stop)`` with no matching flows are zero.
        """
        if not self.key_names or self.key_names[0] != "hour":
            raise ValueError("hourly() needs a bucket='hour' query result")
        if len(self.key_names) != 1:
            raise ValueError("hourly() needs a query with no group keys")
        hours = self.arrays["hour"]
        inside = (hours >= start) & (hours < stop)
        out = np.zeros(stop - start, dtype=np.int64)
        out[hours[inside] - start] = self.arrays[aggregate][inside]
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (CLI output, JSONL batch results)."""
        return {
            "fingerprint": self.fingerprint,
            "vantage": self.vantage,
            "key_names": list(self.key_names),
            "aggregates": list(self.aggregates),
            "rows": self.rows,
            "partitions": {
                "planned": self.partitions_planned,
                "scanned": self.partitions_scanned,
                "pruned": self.partitions_pruned,
                "failed": [f.to_dict() for f in self.partitions_failed],
            },
            "rows_scanned": self.rows_scanned,
            "rows_matched": self.rows_matched,
            "bytes_read": self.bytes_read,
            "columns_loaded": list(self.columns_loaded),
            "hll_error": round(self.hll_error, 6),
            "wall_s": round(self.wall_s, 6),
            "from_cache": self.from_cache,
            "stages": {
                name: round(value, 6)
                for name, value in sorted(self.stages.items())
            },
            "plan": self.plan_summary,
        }


def _sidecar_answerable(spec: QuerySpec) -> bool:
    """Whether v2 sidecar pre-aggregates can answer ``spec`` exactly.

    They can when the query needs no per-row state: no group keys, only
    ``bytes``/``flows`` aggregates (both pre-aggregated per hour), and
    only ``hour`` predicates (the pre-aggregate granularity).  Any time
    bucket works — hours are native, day/whole-range are coarser.
    """
    return (
        not spec.group_by
        and all(a in ("bytes", "flows") for a in spec.aggregates)
        and all(p.column == "hour" for p in spec.where)
    )


def _zone_disjoint(partition: colstore.ColumnarPartition,
                   predicate) -> bool:
    """Whether a zone map proves ``predicate`` matches no row."""
    zone = partition.zone(predicate.column)
    if zone is None:
        return False
    lo, hi = zone
    # Both predicate forms keep their values sorted, so the first and
    # last bound the acceptance set.
    return predicate.values[0] > hi or predicate.values[-1] < lo


def _materialize_columns(spec: QuerySpec) -> Tuple[str, ...]:
    """Physical columns a scan needs *after* the filter stage.

    Group keys (derived expanded), the ``hour`` column for hour
    bucketing, and aggregate inputs — but not pure-predicate columns,
    which the v3 predicate-first scan never materializes.
    """
    names = list(spec.group_by)
    if spec.bucket == "hour":
        names.append("hour")
    for aggregate in spec.aggregates:
        column = AGGREGATE_INPUT_COLUMNS[aggregate]
        if column is not None:
            names.append(column)
    base = colstore.required_base_columns(names)
    return tuple(name for name in COLUMNS if name in base)


def _predicate_selectivity(predicate, meta: dict, rows: int) -> float:
    """Estimated match fraction of one predicate on a dict column.

    Exact when the sidecar carries per-value counts (cardinality up to
    ``encodings.STATS_MAX_CARD``); otherwise assumes uniform spread
    over the dictionary; 1.0 when nothing is known.
    """
    values = meta.get("values")
    counts = meta.get("counts")
    if values is not None and counts is not None and rows:
        if predicate.op == "range":
            lo, hi = predicate.values[0], predicate.values[-1]
            matched = sum(
                c for v, c in zip(values, counts) if lo <= v <= hi
            )
        else:
            lookup = dict(zip(values, counts))
            matched = sum(lookup.get(int(v), 0) for v in predicate.values)
        return min(1.0, matched / rows)
    cardinality = int(meta.get("cardinality") or 0)
    if cardinality and predicate.op == "in":
        return min(1.0, len(predicate.values) / cardinality)
    return 1.0


def _partition_strategy(
    partition: colstore.ColumnarPartition, spec: QuerySpec
) -> Tuple[str, int]:
    """Pick bitmap-vs-scan for one partition, with estimated read bytes.

    A pure function of ``(partition sidecar, spec)``: the planner, the
    in-process scan, and every process-pool worker re-derive the same
    choice independently, so no plan context needs shipping.

    The v3 predicate-first path pays for predicate structures up front
    (bitmap rows or dictionary codes, plus a rows/8 mask) and then
    reads only the estimated surviving fraction of the materialized
    columns; the plain scan reads every projected column in full.  The
    smaller estimate wins.

    Being pure also makes the result cacheable: partition handles live
    as long as their manifest sha, so the choice is memoized per spec
    and the planner + scan pair cost one derivation, not two.
    """
    cache = partition.strategy_cache
    key = (spec, colstore.v3_enabled())
    cached = cache.get(key)
    if cached is not None:
        return cached
    choice = _derive_partition_strategy(partition, spec)
    if len(cache) >= 128:
        cache.clear()
    cache[key] = choice
    return choice


def _derive_partition_strategy(
    partition: colstore.ColumnarPartition, spec: QuerySpec
) -> Tuple[str, int]:
    scan_bytes = partition.column_nbytes(spec.referenced_columns())
    if partition.format != FORMAT_V3 or not colstore.v3_enabled():
        return "scan", scan_bytes
    if not spec.where:
        return "scan", scan_bytes
    sidecar = partition.sidecar
    rows = partition.rows
    predicate_bytes = 0
    selectivity = 1.0
    resolvable = 0
    for predicate in spec.where:
        meta = (
            sidecar["columns"].get(predicate.column)
            if predicate.column in COLUMNS else None
        )
        if meta is None or meta.get("encoding") != encodings.DICT:
            continue
        resolvable += 1
        index = (sidecar.get("indexes") or {}).get(predicate.column)
        if index is not None and predicate.op == "in":
            predicate_bytes += int(index["part"]["nbytes"])
        else:
            parts = meta.get("parts") or {}
            codes = parts.get("codes")
            if codes is not None:
                predicate_bytes += int(codes["nbytes"])
        selectivity *= _predicate_selectivity(predicate, meta, rows)
    if not resolvable:
        return "scan", scan_bytes
    materialize_bytes = partition.column_nbytes(_materialize_columns(spec))
    bitmap_bytes = int(
        predicate_bytes + rows // 8 + selectivity * materialize_bytes
    )
    if bitmap_bytes < scan_bytes:
        return "bitmap", bitmap_bytes
    return "scan", scan_bytes


def plan_query(store: FlowStore, spec: QuerySpec) -> QueryPlan:
    """Choose the partitions to scan, with data skipping.

    Manifest-only pruning drops out-of-range, empty, and hour-disjoint
    partitions without opening anything.  For v2 partitions the sidecar
    zone map then drops days whose per-column min/max cannot satisfy a
    predicate — a sidecar read, but never row data.  A sidecar that
    fails verification here is *not* treated as prunable; the day stays
    planned so the scan reports it as a partition failure.
    """
    hour_windows: List[Tuple[int, int]] = []
    for predicate in spec.where:
        if predicate.column != "hour":
            continue
        if predicate.op == "range":
            hour_windows.append((predicate.values[0], predicate.values[1]))
        else:
            hour_windows.append(
                (predicate.values[0], predicate.values[-1])
            )
    # Physical columns carry zone maps in every sidecar; derived keys
    # (service_port, transport) use the seal-time derived_zones block,
    # absent from old sidecars — partition.zone() then returns None and
    # the day simply stays planned.
    zone_predicates = [
        p for p in spec.where
        if p.column in COLUMNS or p.column in DERIVED_KEYS
    ]
    projected = (
        spec.referenced_columns() if colstore.enabled()
        else tuple(COLUMNS)
    )
    # v1 archives store every column; a projected scan still reads the
    # whole file, but the *useful* bytes — what v2/v3 estimates count —
    # are the projected fraction of the row width.
    row_width = sum(dtype.itemsize for dtype in COLUMNS.values())
    projected_fraction = (
        sum(COLUMNS[name].itemsize for name in projected) / row_width
        if row_width else 1.0
    )
    sidecar_ok = colstore.enabled() and _sidecar_answerable(spec)
    days: List[_dt.date] = []
    pruned_out_of_range = 0
    pruned_empty = 0
    pruned_by_hour = 0
    pruned_by_zone = 0
    sidecar_days = 0
    estimated_bytes = 0
    day_strategies: List[str] = []
    present = set()
    for day in store.days():
        present.add(day)
        if not spec.start <= day <= spec.end:
            pruned_out_of_range += 1
            continue
        if store.day_flows(day) == 0:
            pruned_empty += 1
            continue
        day_start = timebase.hour_index(day, 0)
        day_stop = day_start + 24
        if any(hi < day_start or lo >= day_stop for lo, hi in hour_windows):
            pruned_by_hour += 1
            continue
        partition = None
        if store.partition_format(day) != FORMAT_V1:
            try:
                partition = store.open_partition(day)
            except FlowStoreError:
                partition = None
        if partition is not None and any(
            _zone_disjoint(partition, p) for p in zone_predicates
        ):
            pruned_by_zone += 1
            continue
        days.append(day)
        if partition is None:
            estimated_bytes += int(
                store.partition_disk_bytes(day) * projected_fraction
            )
            day_strategies.append("full")
        elif sidecar_ok:
            sidecar_days += 1
            day_strategies.append("sidecar")
        else:
            strategy, day_bytes = _partition_strategy(partition, spec)
            estimated_bytes += day_bytes
            day_strategies.append(strategy)
    missing = tuple(
        day
        for day in timebase.iter_days(spec.start, spec.end)
        if day not in present
    )
    return QueryPlan(
        spec=spec,
        days=tuple(days),
        missing_days=missing,
        pruned_out_of_range=pruned_out_of_range,
        pruned_empty=pruned_empty,
        pruned_by_hour=pruned_by_hour,
        pruned_by_zone=pruned_by_zone,
        columns=projected,
        sidecar_days=sidecar_days,
        estimated_bytes=estimated_bytes,
        day_strategies=tuple(day_strategies),
    )


def _plan_summary(plan: QueryPlan) -> Dict[str, object]:
    """The plan condensed for result diagnostics and slow-query logs."""
    return {
        "partitions": len(plan.days),
        "pruned": {
            "out_of_range": plan.pruned_out_of_range,
            "empty": plan.pruned_empty,
            "by_hour": plan.pruned_by_hour,
            "by_zone": plan.pruned_by_zone,
        },
        "missing_days": len(plan.missing_days),
        "columns": list(plan.columns),
        "sidecar_days": plan.sidecar_days,
        "estimated_bytes": plan.estimated_bytes,
        "strategies": plan.strategy_counts(),
    }


# -- partition scans ---------------------------------------------------------


def _predicate_mask(table: FlowTable, spec: QuerySpec) -> np.ndarray:
    """One boolean row mask combining every pushed-down predicate."""
    mask = np.ones(len(table), dtype=bool)
    for predicate in spec.where:
        keys = table.key_array(predicate.column)
        if predicate.op == "range":
            lo, hi = predicate.values
            mask &= (keys >= lo) & (keys <= hi)
        elif len(predicate.values) == 1:
            mask &= keys == predicate.values[0]
        else:
            mask &= np.isin(keys, np.asarray(predicate.values))
        if not mask.any():
            break
    return mask


def _group_layout(
    table: FlowTable, keys: Sequence[str]
) -> Tuple[GroupIndex, List[np.ndarray]]:
    """A combined :class:`GroupIndex` over ``keys`` plus decoded values.

    Mixed-radix composition of the per-key code arrays (never tuple
    keys); the returned list holds, per key, the actual key value of
    each combined group.
    """
    indexes = [table.group_index(key) for key in keys]
    combined = indexes[0].codes
    radices: List[int] = []
    for index in indexes[1:]:
        radix = max(index.n_groups, 1)
        combined = combined * radix + index.codes
        radices.append(radix)
    layout = GroupIndex.from_values(combined)
    codes = layout.values.copy()
    decoded_rev: List[np.ndarray] = []
    for index, radix in zip(reversed(indexes[1:]), reversed(radices)):
        decoded_rev.append(index.values[(codes % radix).astype(np.intp)])
        codes //= radix
    decoded_rev.append(indexes[0].values[codes.astype(np.intp)])
    return layout, list(reversed(decoded_rev))


def _scan_sidecar(
    partition: colstore.ColumnarPartition, day: _dt.date, spec: QuerySpec
) -> Tuple[Partial, ScanStats]:
    """Answer one partition from sidecar pre-aggregates (no row I/O).

    Only reached for specs :func:`_sidecar_answerable` accepts.  The
    pre-aggregates are exact int64 totals computed at write time by the
    same grouping machinery the row scan uses, so the emitted groups
    and values — and the ``rows_scanned``/``rows_matched`` diagnostics
    — are bit-identical to a full scan's.
    """
    day_start, byte_bins, flow_bins = partition.hour_preaggregates()
    hours = day_start + np.arange(len(flow_bins), dtype=np.int64)
    mask = np.ones(len(flow_bins), dtype=bool)
    for predicate in spec.where:
        if predicate.op == "range":
            lo, hi = predicate.values
            mask &= (hours >= lo) & (hours <= hi)
        elif len(predicate.values) == 1:
            mask &= hours == predicate.values[0]
        else:
            mask &= np.isin(hours, np.asarray(predicate.values))
    rows_matched = int(flow_bins[mask].sum())
    obs.counter("query.sidecar-served").inc()
    stats = ScanStats(
        rows_scanned=partition.rows,
        rows_matched=rows_matched,
        bytes_read=0,
        columns=(),
        mode="sidecar",
    )
    if rows_matched == 0:
        return Partial.empty(spec), stats
    if spec.bucket == "hour":
        # A row scan only materializes groups with matching rows, so
        # emit only hours that actually saw flows.
        selected = np.flatnonzero(mask & (flow_bins > 0))
        keys: Tuple[np.ndarray, ...] = (hours[selected],)
        byte_sums = byte_bins[selected]
        flow_sums = flow_bins[selected]
    else:
        keys = (
            (np.array([day.toordinal()], dtype=np.int64),)
            if spec.bucket == "day" else ()
        )
        byte_sums = byte_bins[mask].sum(keepdims=True)
        flow_sums = np.array([rows_matched])
    sums = {
        aggregate: np.asarray(
            byte_sums if aggregate == "bytes" else flow_sums,
            dtype=np.int64,
        )
        for aggregate in spec.aggregates
    }
    return Partial(len(flow_sums), keys, sums, {}), stats


def scan_partition(
    store: FlowStore, day: _dt.date, spec: QuerySpec
) -> Tuple[Partial, ScanStats]:
    """Scan one partition into a columnar :class:`Partial`.

    Returns ``(partial, stats)``.  Key columns carry the bucket value
    first (absolute hour index, or the day's ordinal for day
    bucketing), then the group-by key values.  Each distinct-count
    aggregate takes one rank pass over its whole address column, not
    one sketch per group.

    With the colstore enabled, a v2/v3 partition is answered from
    sidecar pre-aggregates when possible; otherwise the cost model
    (:func:`_partition_strategy`) picks between the v3 predicate-first
    scan — bitmap/dictionary-code filtering, then gathering only the
    surviving rows — and a memory-mapped projection of
    :meth:`QuerySpec.referenced_columns` filtered through a row mask.
    v1 partitions (and every partition under ``REPRO_NO_COLSTORE``)
    take the full-load path.  All strategies produce identical
    partials.
    """
    partition = store.open_partition(day) if colstore.enabled() else None
    if partition is not None and _sidecar_answerable(spec):
        return _scan_sidecar(partition, day, spec)
    prefiltered = False
    if partition is not None:
        strategy, _ = _partition_strategy(partition, spec)
        if strategy == "bitmap":
            columns = _materialize_columns(spec)
            table, bytes_read = partition.load_filtered(
                spec.where, columns
            )
            mode = "bitmap"
            prefiltered = True
            obs.counter("query.bitmap-scans").inc()
        else:
            columns = spec.referenced_columns()
            table, bytes_read = partition.load(columns)
            mode = "mmap"
    else:
        table = store.read_day(day)
        columns = tuple(COLUMNS)
        bytes_read = sum(
            int(table.column(name).nbytes) for name in columns
        )
        mode = "full"
    if prefiltered:
        rows_scanned = partition.rows
    else:
        rows_scanned = len(table)
        mask = _predicate_mask(table, spec) if spec.where else None
        if mask is not None:
            table = table.filter(mask)
    rows_matched = len(table)

    def _stats() -> ScanStats:
        return ScanStats(
            rows_scanned=rows_scanned,
            rows_matched=rows_matched,
            bytes_read=bytes_read,
            columns=columns,
            mode=mode,
        )

    if rows_matched == 0:
        return Partial.empty(spec), _stats()
    keys: List[str] = []
    if spec.bucket == "hour":
        keys.append("hour")
    keys.extend(spec.group_by)
    if keys:
        layout, decoded = _group_layout(table, keys)
    else:
        # One group covering the whole partition.
        layout = GroupIndex.from_values(
            np.zeros(rows_matched, dtype=np.int64)
        )
        decoded = []
    n_groups = layout.n_groups
    key_columns = [
        np.asarray(values, dtype=np.int64) for values in decoded
    ]
    if spec.bucket == "day":
        key_columns.insert(
            0, np.full(n_groups, day.toordinal(), dtype=np.int64)
        )
    sums: Dict[str, np.ndarray] = {}
    registers: Dict[str, GroupedRegisters] = {}
    for aggregate in spec.aggregates:
        if aggregate == "flows":
            sums[aggregate] = layout.counts()
        elif aggregate in EXACT_AGGREGATE_COLUMNS:
            sums[aggregate] = layout.sum(
                table.column(EXACT_AGGREGATE_COLUMNS[aggregate])
            )
        else:
            registers[aggregate] = GroupedRegisters.from_values(
                table.column(AGGREGATE_INPUT_COLUMNS[aggregate]),
                layout.codes, p=spec.hll_p,
            )
    return Partial(n_groups, tuple(key_columns), sums, registers), _stats()


def _unique_keys(
    columns: Sequence[np.ndarray], n: int
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, int]:
    """Unique key rows in tuple order, and each input row's group id.

    Returns ``(unique key columns, inverse, n_groups)``; with no key
    columns every row is the single group 0.
    """
    if not columns:
        return (), np.zeros(n, dtype=np.int64), 1
    order = np.lexsort(tuple(reversed(columns)))
    ordered = [column[order] for column in columns]
    new_group = np.zeros(n, dtype=bool)
    new_group[0] = True
    for column in ordered:
        new_group[1:] |= column[1:] != column[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new_group) - 1
    keys = tuple(column[new_group] for column in ordered)
    return keys, inverse, int(new_group.sum())


def _sum_int64(
    inverse: np.ndarray, values: np.ndarray, n_groups: int, name: str
) -> np.ndarray:
    """Exact per-group int64 sums; raises rather than wrap.

    int64 addition wraps modulo 2**64, which leaves a total exact
    whenever it fits, whatever the order or the intermediate values.
    A float64 sum of magnitudes flags the groups that could exceed
    int64; those are re-added in Python integers, and a total out of
    range raises :class:`OverflowError`.
    """
    totals = np.zeros(n_groups, dtype=np.int64)
    np.add.at(totals, inverse, values)
    magnitude = np.bincount(
        inverse, weights=np.abs(values.astype(np.float64)),
        minlength=n_groups,
    )
    for group in np.flatnonzero(magnitude >= 2.0**62):
        exact = sum(int(v) for v in values[inverse == group])
        if not _INT64_MIN <= exact <= _INT64_MAX:
            raise OverflowError(
                f"{name} total {exact} of one group overflows int64"
            )
    return totals


def _merge_partials(spec: QuerySpec, partials: Sequence[Partial]) -> Partial:
    """Merge partials: concatenate, then re-reduce every group once.

    Groups are re-numbered over the union of all key rows; sums add
    exactly (:func:`_sum_int64`) and register sets keep each
    register's maximum rank (:meth:`GroupedRegisters.merge`).  The
    result does not depend on the order or grouping of ``partials``.
    """
    parts = [partial for partial in partials if partial.n_groups]
    if not parts:
        return Partial.empty(spec)
    if len(parts) == 1:
        return parts[0]
    n = sum(part.n_groups for part in parts)
    keys, inverse, n_groups = _unique_keys(
        [
            np.concatenate([part.keys[k] for part in parts])
            for k in range(len(parts[0].keys))
        ],
        n,
    )
    sums = {
        aggregate: _sum_int64(
            inverse,
            np.concatenate([part.sums[aggregate] for part in parts]),
            n_groups, aggregate,
        )
        for aggregate in parts[0].sums
    }
    offsets = np.cumsum([0] + [part.n_groups for part in parts])
    group_maps = [
        inverse[offsets[i]:offsets[i + 1]] for i in range(len(parts))
    ]
    registers = {
        aggregate: GroupedRegisters.merge(
            [part.registers[aggregate] for part in parts], group_maps
        )
        for aggregate in parts[0].registers
    }
    return Partial(n_groups, keys, sums, registers)


def _finalize(
    spec: QuerySpec,
    plan: QueryPlan,
    partials: Sequence[Partial],
    failures: List[PartitionFailure],
    scanned: int,
    rows_scanned: int,
    rows_matched: int,
    bytes_read: int,
    columns_loaded: Tuple[str, ...],
    t0: float,
) -> QueryResult:
    """Merge every partial and estimate all groups' distinct counts."""
    merged = _merge_partials(spec, partials)
    n_groups = merged.n_groups
    arrays: Dict[str, np.ndarray] = dict(zip(spec.key_names, merged.keys))
    for aggregate in spec.aggregates:
        if aggregate in merged.registers:
            arrays[aggregate] = np.rint(
                merged.registers[aggregate].counts(n_groups)
            ).astype(np.int64)
        else:
            arrays[aggregate] = merged.sums.get(
                aggregate, np.zeros(n_groups, dtype=np.int64)
            )
    for values in arrays.values():
        values.flags.writeable = False
    uses_sketches = any(a in SKETCH_AGGREGATES for a in spec.aggregates)
    return QueryResult(
        fingerprint=spec.fingerprint(),
        vantage=spec.vantage,
        key_names=spec.key_names,
        aggregates=spec.aggregates,
        arrays=arrays,
        partitions_planned=len(plan.days),
        partitions_scanned=scanned,
        partitions_pruned=plan.n_pruned,
        partitions_failed=failures,
        rows_scanned=rows_scanned,
        rows_matched=rows_matched,
        bytes_read=bytes_read,
        columns_loaded=columns_loaded,
        hll_error=relative_error(spec.hll_p) if uses_sketches else 0.0,
        wall_s=time.perf_counter() - t0,
    )


def _timed_scan(
    store: FlowStore, day: _dt.date, spec: QuerySpec
) -> Tuple[Tuple[Partial, ScanStats], float]:
    """One partition scan plus its wall time (for stage accounting)."""
    t0 = time.perf_counter()
    outcome = scan_partition(store, day, spec)
    return outcome, time.perf_counter() - t0


def execute_plan(
    store: FlowStore,
    plan: QueryPlan,
    pool: Optional[object] = None,
    deadline: Optional[float] = None,
    cancel: Optional[Event] = None,
    plan_s: float = 0.0,
) -> QueryResult:
    """Run a plan, merging per-partition partials as they complete.

    ``pool`` scans partitions concurrently.  A plain executor runs one
    partition per task (each worker handles whole partitions, so
    partials stay thread-local until the single-threaded merge); a
    :class:`repro.query.procpool.ScanPool` — anything exposing
    ``submit_shard`` — takes the scatter-gather path instead: the
    plan's days are split into contiguous shards, each shard is
    scanned and pre-merged inside a worker (a separate process when
    the platform allows), and only the compact merged partials cross
    back for the final fold.  ``deadline`` is a ``time.monotonic()``
    timestamp enforced between partitions — on expiry pending scans
    are cancelled and :class:`QueryTimeout` is raised.  ``cancel``
    aborts the same way with :class:`QueryCancelled`.

    ``plan_s`` is the planning wall time measured by the caller (zero
    when the plan was built out of band); it flows into the result's
    ``stages`` breakdown together with the per-partition scan walls
    (``scan``), the accumulated partial-merge plus finalize wall
    (``merge``), and stage timers on the registry.  The per-query span
    carries ``scan``/``merge`` child spans, so a traced run shows one
    tree per query.
    """
    spec = plan.spec
    t0 = time.perf_counter()
    registry = obs.get_registry()
    partials: List[Partial] = []
    failures: List[PartitionFailure] = []
    scanned = 0
    rows_scanned = 0
    rows_matched = 0
    bytes_read = 0
    scan_s = 0.0
    merge_s = 0.0
    columns_loaded: set = set()

    def _check_interrupts() -> None:
        if cancel is not None and cancel.is_set():
            raise QueryCancelled(f"query {spec.describe()} cancelled")
        if deadline is not None and time.monotonic() > deadline:
            raise QueryTimeout(
                f"query {spec.describe()} exceeded its deadline after "
                f"{scanned}/{len(plan.days)} partitions"
            )

    def _absorb(day: _dt.date, outcome, error: Optional[str]) -> None:
        nonlocal scanned, rows_scanned, rows_matched, bytes_read
        if error is not None:
            failures.append(PartitionFailure(day.isoformat(), error))
            registry.counter("query.partitions-failed").inc()
            return
        partial, stats = outcome
        partials.append(partial)
        scanned += 1
        rows_scanned += stats.rows_scanned
        rows_matched += stats.rows_matched
        bytes_read += stats.bytes_read
        columns_loaded.update(stats.columns)
        registry.counter("query.partitions-scanned").inc()

    def _absorb_shard(outcome) -> None:
        nonlocal scanned, rows_scanned, rows_matched, bytes_read
        nonlocal merge_s, scan_s
        t_merge = time.perf_counter()
        partials.append(outcome.partial())
        merge_s += time.perf_counter() - t_merge
        scanned += outcome.n_scanned
        rows_scanned += outcome.rows_scanned
        rows_matched += outcome.rows_matched
        bytes_read += outcome.bytes_read
        scan_s += outcome.scan_s
        columns_loaded.update(outcome.columns)
        for day_iso, error in outcome.failures:
            failures.append(PartitionFailure(day_iso, error))
            registry.counter("query.partitions-failed").inc()
        if outcome.n_scanned:
            registry.counter(
                "query.partitions-scanned"
            ).inc(outcome.n_scanned)
        pool.note_outcome(outcome)

    def _run_sharded() -> None:
        """Scatter contiguous day shards across the pool's workers."""
        from repro.query import procpool

        shards = procpool.shard_days(plan.days, getattr(pool, "width", 1))
        futures = {
            pool.submit_shard(store, shard, spec): shard
            for shard in shards
        }
        pending = set(futures)
        try:
            while pending:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                done, pending = wait(
                    pending, timeout=remaining,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    raise QueryTimeout(
                        f"query {spec.describe()} exceeded its deadline "
                        f"after {scanned}/{len(plan.days)} partitions"
                    )
                for future in done:
                    shard = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        # A worker that died (or a payload that failed
                        # to cross the pipe) fails its shard's days as
                        # partition failures, like any unreadable
                        # partition.
                        for day in shard:
                            _absorb(
                                day, None,
                                f"{type(exc).__name__}: {exc}",
                            )
                    else:
                        _absorb_shard(outcome)
                if cancel is not None and cancel.is_set():
                    raise QueryCancelled(
                        f"query {spec.describe()} cancelled"
                    )
        finally:
            for future in pending:
                future.cancel()

    with obs.span(f"query/{spec.describe()}") as span:
        with obs.span("scan") as scan_span:
            if pool is None or len(plan.days) <= 1:
                for day in plan.days:
                    _check_interrupts()
                    try:
                        outcome, scan_dt = _timed_scan(store, day, spec)
                    except FlowStoreError as exc:
                        _absorb(day, None, str(exc))
                    else:
                        scan_s += scan_dt
                        _absorb(day, outcome, None)
            elif hasattr(pool, "submit_shard"):
                _run_sharded()
            else:
                futures = {
                    pool.submit(_timed_scan, store, day, spec): day
                    for day in plan.days
                }
                pending = set(futures)
                try:
                    while pending:
                        remaining = None
                        if deadline is not None:
                            remaining = max(
                                0.0, deadline - time.monotonic()
                            )
                        done, pending = wait(
                            pending, timeout=remaining,
                            return_when=FIRST_COMPLETED,
                        )
                        if not done:
                            raise QueryTimeout(
                                f"query {spec.describe()} exceeded its "
                                f"deadline after {scanned}/"
                                f"{len(plan.days)} partitions"
                            )
                        for future in done:
                            day = futures[future]
                            try:
                                outcome, scan_dt = future.result()
                            except FlowStoreError as exc:
                                _absorb(day, None, str(exc))
                            else:
                                scan_s += scan_dt
                                _absorb(day, outcome, None)
                        if cancel is not None and cancel.is_set():
                            raise QueryCancelled(
                                f"query {spec.describe()} cancelled"
                            )
                finally:
                    for future in pending:
                        future.cancel()
            scan_span.set_metric("partitions", scanned)
            scan_span.set_metric("scan_ms", round(scan_s * 1e3, 3))
        registry.counter("query.rows-scanned").inc(rows_scanned)
        registry.counter("query.rows-matched").inc(rows_matched)
        registry.counter("query.partitions-pruned").inc(plan.n_pruned)
        registry.counter("query.bytes-read").inc(bytes_read)
        registry.counter("query.columns-loaded").inc(len(columns_loaded))
        with obs.span("merge") as merge_span:
            t_finalize = time.perf_counter()
            result = _finalize(
                spec, plan, partials, failures,
                scanned, rows_scanned, rows_matched, bytes_read,
                tuple(sorted(columns_loaded)), t0,
            )
            merge_s += time.perf_counter() - t_finalize
            merge_span.set_metric("merge_ms", round(merge_s * 1e3, 3))
        result.stages.update({
            "plan": plan_s,
            "scan": scan_s,
            "merge": merge_s,
            "total": plan_s + result.wall_s,
        })
        result.plan_summary = _plan_summary(plan)
        if registry.enabled:
            registry.timer("query.stage-plan").record(plan_s)
            registry.timer("query.stage-scan").record(scan_s)
            registry.timer("query.stage-merge").record(merge_s)
        span.set_metric("partitions", scanned)
        span.set_metric("failed", len(failures))
        span.set_metric("rows", rows_matched)
        span.set_metric("groups", result.n_rows)
        span.set_metric("bytes_read", bytes_read)
        span.set_metric("plan_ms", round(plan_s * 1e3, 3))
    return result


def execute_query(
    store: FlowStore,
    spec: QuerySpec,
    pool: Optional[object] = None,
    deadline: Optional[float] = None,
    cancel: Optional[Event] = None,
) -> QueryResult:
    """Plan and execute ``spec`` against ``store`` in one call.

    ``pool`` may be a plain executor (per-partition thread scans) or a
    :class:`repro.query.procpool.ScanPool` (sharded scatter-gather,
    process-backed when available); ``None`` scans serially.  All
    three produce bit-identical results.
    """
    t0 = time.perf_counter()
    plan = plan_query(store, spec)
    plan_s = time.perf_counter() - t0
    return execute_plan(
        store, plan, pool=pool, deadline=deadline, cancel=cancel,
        plan_s=plan_s,
    )


def cached_copy(result: QueryResult) -> QueryResult:
    """A cache-hit view of ``result`` (shared read-only arrays, flagged).

    The copy gets a *fresh* ``stages`` dict — the service stamps the
    hit's own queue/total timings onto it, which must never leak into
    the cached original (or into other hits).
    """
    return replace(result, from_cache=True, stages={})
