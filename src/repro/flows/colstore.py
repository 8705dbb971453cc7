"""Columnar partition format v2: per-column segments + zone-map sidecar.

A v1 :class:`~repro.flows.store.FlowStore` partition is one compressed
``.npz`` archive — every read decompresses and checksums *all* columns
even when the query touches two of them.  Format v2 turns each day into
a directory of raw per-column ``.npy`` segments plus a JSON sidecar::

    store/
      manifest.json            entries carry {"format": 2, "sha256": ...}
      2020-03-25/
        sidecar.json           per-column checksums + zone map
        hour.npy               one raw segment per column
        src_ip.npy
        ...

The sidecar holds, per column, the segment's SHA-256, dtype, byte size,
and min/max (the **zone map**), plus the partition row count and
pre-aggregated per-hour ``bytes``/``flows`` totals.  That makes three
optimizations possible without touching row data:

* **Projection pushdown** — :meth:`ColumnarPartition.load` maps only
  the columns a query references (``np.load(..., mmap_mode="r")``), and
  verifies checksums only for those segments;
* **Data skipping** — the planner prunes partitions whose zone map
  (actual hour range, predicate column bounds) cannot match;
* **Pre-aggregate answers** — unfiltered ``bytes``/``flows`` totals
  (whole-day or per-hour) come straight from the sidecar.

Checksum verification reads a segment once; a process-global
verified-cache keyed by ``(path, mtime_ns, size)`` makes repeated warm
queries skip re-hashing entirely.

Setting the ``REPRO_NO_COLSTORE`` environment variable (to anything
non-empty) forces the v1 full-load path everywhere: new partitions are
written as ``.npz`` archives and v2 partitions are read fully into
memory with every checksum verified.  Results are bit-identical either
way — the variable only trades I/O strategy.

Format **v3** keeps the sidecar discipline but encodes each column at
seal time (see :mod:`repro.flows.encodings`) and packs every encoded
*part* into one 64-byte-aligned ``segments.bin`` data file::

    store/
      manifest.json            entries carry {"format": 3, "sha256": ...}
      2020-03-25/
        sidecar.json           encodings, per-part sha256, zones, indexes
        segments.bin           all encoded column parts, one mmap

Low-cardinality columns are dictionary-encoded (sorted uniques + small
codes) and, at very low cardinality, also get a serialized **bitmap
index** (one packed bit-row per distinct value).  Near-sorted columns
(``hour``) are delta + bit-packed.  The scan path can then evaluate
equality/membership predicates on dictionary codes or by OR/AND-ing
bitmap rows *before* materializing any row data, gathering only the
surviving rows of only the referenced columns
(:meth:`ColumnarPartition.load_filtered`).  The sidecar additionally
records conservative zones for the derived keys (``service_port``,
``transport``) so derived-key predicates can prune partitions.

``REPRO_NO_COLSTORE_V3`` (any non-empty value) is the v3 escape hatch:
new partitions are written as v2 and existing v3 partitions are read
through the plain decode-everything scan path (no bitmap short-cuts).
Results are bit-identical either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.flows import encodings, groupby
from repro.flows.groupby import GroupIndex
from repro.flows.io import file_sha256, read_npy_segment, write_npy_segment
from repro.flows.table import (
    COLUMNS,
    DERIVED_BASE_COLUMNS,
    DERIVED_KEYS,
    FlowTable,
    compute_service_port,
    compute_transport,
)

#: Partition format versions understood by the store.
FORMAT_V1 = 1
FORMAT_V2 = 2
FORMAT_V3 = 3

#: Sidecar file name inside a v2/v3 partition directory.
SIDECAR = "sidecar.json"

#: Single data file holding every encoded part of a v3 partition.
DATA_FILE = "segments.bin"

#: Environment variable forcing the v1 full-load path.
DISABLE_ENV = "REPRO_NO_COLSTORE"

#: Environment variable pinning writes to v2 and disabling the bitmap
#: scan path (v3 partitions are still readable, fully decoded).
DISABLE_V3_ENV = "REPRO_NO_COLSTORE_V3"

#: Hour bins per day partition.
_HOURS = 24

#: Part offsets inside ``segments.bin`` are aligned to this boundary.
_PART_ALIGN = 64


class FlowStoreError(Exception):
    """A partition that exists in the manifest cannot be served.

    Raised for missing partition files or column segments, checksum
    mismatches, corrupt sidecars, and archives that fail to parse — all
    the ways a store directory can rot underneath its manifest.
    (Re-exported as :class:`repro.flows.store.FlowStoreError`, its
    historical home.)
    """


def enabled() -> bool:
    """Whether the columnar read/write path is active.

    ``REPRO_NO_COLSTORE`` (any non-empty value) disables it, forcing
    v1 ``.npz`` writes and full in-memory loads of v2 partitions.
    """
    return not os.environ.get(DISABLE_ENV)


def v3_enabled() -> bool:
    """Whether the v3 encoded format is active for writes and scans.

    ``REPRO_NO_COLSTORE_V3`` (any non-empty value) pins new writes to
    v2 and routes v3 reads through the plain decode-everything path —
    bit-identical results, no bitmap short-cuts.  Implies nothing when
    the colstore as a whole is disabled.
    """
    return enabled() and not os.environ.get(DISABLE_V3_ENV)


def mode_token() -> str:
    """Short tag naming the active partition I/O mode.

    Folded into the query service's cache key so results cached under
    one mode (with its ``bytes_read``/``columns_loaded`` diagnostics)
    are not replayed under another.
    """
    if not enabled():
        return "full-load"
    return "colstore-v3" if v3_enabled() else "colstore"


def required_base_columns(names: Iterable[str]) -> Tuple[str, ...]:
    """Expand column/derived-key names into physical columns, sorted.

    Derived keys (``service_port``, ``transport``) expand into the base
    columns they are computed from; unknown names raise ``KeyError``.
    """
    base = set()
    for name in names:
        if name in COLUMNS:
            base.add(name)
        elif name in DERIVED_BASE_COLUMNS:
            base.update(DERIVED_BASE_COLUMNS[name])
        else:
            raise KeyError(
                f"unknown column or derived key {name!r}; columns are "
                f"{sorted(COLUMNS)} and derived keys are {DERIVED_KEYS}"
            )
    return tuple(sorted(base))


# -- checksum verification ----------------------------------------------------

#: (path, mtime_ns, size[, part label]) -> verified hex digest.
_VERIFIED: Dict[tuple, str] = {}
_VERIFIED_LOCK = threading.Lock()
_VERIFIED_CAP = 8192


def _verify_file(path: Path, expected: str, what: str) -> None:
    """Check ``path`` against ``expected``, memoizing by stat identity.

    A hit in the verified-cache (same path, mtime, and size as a
    previously hashed file) skips re-reading the bytes — the warm-query
    fast path.  Any rewrite bumps the mtime and invalidates the entry.
    """
    try:
        stat = path.stat()
    except OSError as exc:
        raise FlowStoreError(f"{what} is missing: {path}") from exc
    key = (str(path), stat.st_mtime_ns, stat.st_size)
    with _VERIFIED_LOCK:
        cached = _VERIFIED.get(key)
    if cached is not None:
        if cached != expected:
            raise FlowStoreError(
                f"{what} is corrupt: checksum {cached[:12]}… does not "
                f"match the expected {expected[:12]}…"
            )
        obs.counter("colstore.verify-cached").inc()
        return
    actual = file_sha256(path)
    if actual != expected:
        raise FlowStoreError(
            f"{what} is corrupt: checksum {actual[:12]}… does not "
            f"match the expected {expected[:12]}…"
        )
    obs.counter("colstore.verify-hashed").inc()
    with _VERIFIED_LOCK:
        if len(_VERIFIED) >= _VERIFIED_CAP:
            _VERIFIED.clear()
        _VERIFIED[key] = actual


def _verify_slice(
    path: Path, data: np.ndarray, expected: str, what: str, label: str
) -> None:
    """Check one part's bytes inside a shared data file.

    Same memoization contract as :func:`_verify_file`, but the cache
    key carries the part ``label`` so each part of ``segments.bin`` is
    verified (and cached) independently; rewriting the file bumps the
    mtime and invalidates every part at once.
    """
    try:
        stat = path.stat()
    except OSError as exc:
        raise FlowStoreError(f"{what} is missing: {path}") from exc
    key = (str(path), stat.st_mtime_ns, stat.st_size, label)
    with _VERIFIED_LOCK:
        cached = _VERIFIED.get(key)
    if cached is not None:
        if cached != expected:
            raise FlowStoreError(
                f"{what} is corrupt: checksum {cached[:12]}… does not "
                f"match the expected {expected[:12]}…"
            )
        obs.counter("colstore.verify-cached").inc()
        return
    actual = hashlib.sha256(np.ascontiguousarray(data)).hexdigest()
    if actual != expected:
        raise FlowStoreError(
            f"{what} is corrupt: checksum {actual[:12]}… does not "
            f"match the expected {expected[:12]}…"
        )
    obs.counter("colstore.verify-hashed").inc()
    with _VERIFIED_LOCK:
        if len(_VERIFIED) >= _VERIFIED_CAP:
            _VERIFIED.clear()
        _VERIFIED[key] = actual


def reset_verified_cache() -> None:
    """Drop every verified-checksum entry (tests and corruption drills)."""
    with _VERIFIED_LOCK:
        _VERIFIED.clear()


# -- writes -------------------------------------------------------------------


def _hour_preaggregates(
    flows: FlowTable, day_start: int
) -> Tuple[List[int], List[int]]:
    """Exact per-hour ``bytes``/``flows`` totals for one day partition."""
    byte_bins = np.zeros(_HOURS, dtype=np.int64)
    flow_bins = np.zeros(_HOURS, dtype=np.int64)
    if len(flows):
        index = flows.group_index("hour")
        rel = (index.values - day_start).astype(np.intp)
        byte_bins[rel] = index.sum(flows.column("n_bytes"))
        flow_bins[rel] = index.counts()
    return [int(v) for v in byte_bins], [int(v) for v in flow_bins]


def _derived_zones(flows: FlowTable) -> Dict[str, Optional[List[int]]]:
    """Exact (min, max) of each derived key, computed at seal time.

    Stored in the sidecar so the planner can zone-prune predicates on
    ``service_port``/``transport`` without materializing base columns.
    """
    zones: Dict[str, Optional[List[int]]] = {}
    for key in DERIVED_KEYS:
        if not len(flows):
            zones[key] = None
            continue
        values = flows.key_array(key)
        zones[key] = [int(values.min()), int(values.max())]
    return zones


def _seal_dir(temp: Path, final_dir: Path) -> None:
    """Swap a fully-built partition directory into place atomically."""
    trash = final_dir.with_name(final_dir.name + ".old")
    if trash.exists():
        shutil.rmtree(trash)
    if final_dir.exists():
        os.replace(final_dir, trash)
    os.replace(temp, final_dir)
    if trash.exists():
        shutil.rmtree(trash)


def _write_sidecar(sidecar: dict, temp: Path) -> str:
    # Compact separators keep json.dumps on its C encoder (an indent
    # forces the pure-Python one) and the file a third of the size.
    path = temp / SIDECAR
    path.write_text(
        json.dumps(sidecar, sort_keys=True, separators=(",", ":"))
    )
    return file_sha256(path)


def write_partition(
    flows: FlowTable, final_dir: Path, day_start: int,
    fmt: Optional[int] = None,
) -> Tuple[dict, str]:
    """Write one day's flows as a v2 or v3 partition directory, atomically.

    Builds the whole partition (segments + sidecar) under a temporary
    sibling directory and swaps it into place, so readers never observe
    a half-written day.  ``fmt`` picks the layout (default: v3, or v2
    under ``REPRO_NO_COLSTORE_V3``).  Returns ``(sidecar payload,
    sidecar sha256)``; the caller records the sidecar hash in the store
    manifest, chaining manifest → sidecar → column parts.
    """
    if fmt is None:
        fmt = FORMAT_V3 if v3_enabled() else FORMAT_V2
    if fmt not in (FORMAT_V2, FORMAT_V3):
        raise ValueError(f"unknown columnar partition format {fmt!r}")
    final_dir = Path(final_dir)
    temp = final_dir.with_name(final_dir.name + ".tmp")
    if temp.exists():
        shutil.rmtree(temp)
    temp.mkdir(parents=True)
    if fmt == FORMAT_V3:
        sidecar = _build_partition_v3(flows, temp, day_start)
    else:
        sidecar = _build_partition_v2(flows, temp, day_start)
    sidecar_sha = _write_sidecar(sidecar, temp)
    _seal_dir(temp, final_dir)
    obs.counter("colstore.partitions-written").inc()
    return sidecar, sidecar_sha


def _build_partition_v2(
    flows: FlowTable, temp: Path, day_start: int
) -> dict:
    columns_meta: Dict[str, Dict[str, object]] = {}
    for name in COLUMNS:
        column = flows.column(name)
        sha = write_npy_segment(column, temp / f"{name}.npy")
        columns_meta[name] = {
            "sha256": sha,
            "dtype": column.dtype.str,
            "nbytes": int(column.nbytes),
            "min": int(column.min()) if len(column) else None,
            "max": int(column.max()) if len(column) else None,
        }
    byte_bins, flow_bins = _hour_preaggregates(flows, day_start)
    return {
        "format": FORMAT_V2,
        "rows": len(flows),
        "day_start": day_start,
        "columns": columns_meta,
        "derived_zones": _derived_zones(flows),
        "hours": {"bytes": byte_bins, "flows": flow_bins},
    }


class _PartWriter:
    """Accumulates encoded parts into one aligned ``segments.bin`` blob."""

    def __init__(self) -> None:
        self._blob = bytearray()

    def add(self, array: np.ndarray) -> Dict[str, object]:
        array = np.ascontiguousarray(array)
        pad = (-len(self._blob)) % _PART_ALIGN
        self._blob.extend(b"\x00" * pad)
        offset = len(self._blob)
        data = array.tobytes()
        self._blob.extend(data)
        return {
            "offset": offset,
            "nbytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "dtype": array.dtype.str,
            "count": int(array.size),
        }

    def write(self, path: Path) -> int:
        with path.open("wb") as handle:
            handle.write(self._blob)
        return len(self._blob)


def _build_partition_v3(
    flows: FlowTable, temp: Path, day_start: int
) -> dict:
    writer = _PartWriter()
    columns_meta: Dict[str, Dict[str, object]] = {}
    indexes: Dict[str, Dict[str, object]] = {}
    rows = len(flows)
    for name in COLUMNS:
        column = flows.column(name)
        enc_meta, parts = encodings.encode_column(column)
        meta: Dict[str, object] = {
            "dtype": column.dtype.str,
            "nbytes": int(column.nbytes),
            "min": int(column.min()) if rows else None,
            "max": int(column.max()) if rows else None,
        }
        meta.update(enc_meta)
        meta["parts"] = {
            role: writer.add(part) for role, part in parts.items()
        }
        columns_meta[name] = meta
        if (
            enc_meta["encoding"] == encodings.DICT
            and enc_meta["cardinality"] <= encodings.BITMAP_MAX_CARD
            and rows
        ):
            bitmap = encodings.build_bitmap(
                parts["codes"], enc_meta["cardinality"]
            )
            indexes[name] = {
                "kind": "bitmap",
                "cardinality": enc_meta["cardinality"],
                "row_nbytes": encodings.bitmap_row_nbytes(rows),
                "part": writer.add(bitmap),
            }
    writer.write(temp / DATA_FILE)
    byte_bins, flow_bins = _hour_preaggregates(flows, day_start)
    return {
        "format": FORMAT_V3,
        "rows": rows,
        "day_start": day_start,
        "data_file": DATA_FILE,
        "columns": columns_meta,
        "indexes": indexes,
        "derived_zones": _derived_zones(flows),
        "hours": {"bytes": byte_bins, "flows": flow_bins},
    }


# -- reads --------------------------------------------------------------------


def read_sidecar(partition_dir: Path, expected_sha: Optional[str],
                 what: str) -> dict:
    """Load and validate one partition sidecar.

    ``expected_sha`` (from the store manifest) is verified first, so a
    tampered sidecar cannot vouch for tampered segments.  Structural
    problems — unparseable JSON, missing fields, wrong column set —
    raise :class:`FlowStoreError`.
    """
    path = Path(partition_dir) / SIDECAR
    if expected_sha is not None:
        _verify_file(path, expected_sha, f"sidecar for {what}")
    elif not path.exists():
        raise FlowStoreError(f"sidecar for {what} is missing: {path}")
    try:
        with path.open() as handle:
            sidecar = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise FlowStoreError(
            f"sidecar for {what} cannot be parsed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if (
        not isinstance(sidecar, dict)
        or sidecar.get("format") not in (FORMAT_V2, FORMAT_V3)
    ):
        raise FlowStoreError(
            f"sidecar for {what} has unsupported format "
            f"{sidecar.get('format') if isinstance(sidecar, dict) else sidecar!r}"
        )
    columns = sidecar.get("columns")
    if not isinstance(columns, dict) or set(columns) != set(COLUMNS):
        present = sorted(columns) if isinstance(columns, dict) else columns
        raise FlowStoreError(
            f"sidecar for {what} does not describe the flow schema "
            f"(columns: {present})"
        )
    return sidecar


class ColumnBundle:
    """The projected columns of one partition, duck-typing the scan API.

    Provides the subset of :class:`~repro.flows.table.FlowTable` the
    query engine's partition scan uses — ``len()``, :meth:`column`,
    :meth:`key_array`, :meth:`group_index`, :meth:`filter` — over a
    dict of (possibly memory-mapped) column arrays.  Derived keys are
    computed with the same helpers as ``FlowTable``, so every scan path
    produces identical values.

    A bundle produced by :meth:`ColumnarPartition.load` pickles
    *cheaply*: its reduce payload is the partition path, sidecar
    (manifest entry), and projected column names — never the mapped
    bytes — and unpickling re-maps the segments in the target process
    through the usual checksum verification.  A derived bundle (e.g.
    from :meth:`filter`) has no backing segments and falls back to
    shipping its materialized arrays by value.
    """

    __slots__ = ("_cols", "_rows", "_derived", "_indexes", "_source")

    def __init__(self, columns: Dict[str, np.ndarray], rows: int):
        self._cols = columns
        self._rows = rows
        self._derived: Dict[str, np.ndarray] = {}
        self._indexes: Dict[str, GroupIndex] = {}
        #: (day, partition dir, sidecar, column names, mmap flag) when
        #: the bundle maps on-disk segments; None once derived.
        self._source: Optional[tuple] = None

    def __reduce__(self):
        if self._source is not None:
            day, directory, sidecar, columns, mmap = self._source
            return (
                _rebuild_bundle,
                (day, directory, _slim_sidecar(sidecar), columns, mmap),
            )
        arrays = {
            name: np.ascontiguousarray(col)
            for name, col in self._cols.items()
        }
        return (ColumnBundle, (arrays, self._rows))

    def __len__(self) -> int:
        return self._rows

    @property
    def loaded_columns(self) -> Tuple[str, ...]:
        """The physical columns present in the bundle, sorted."""
        return tuple(sorted(self._cols))

    def column(self, name: str) -> np.ndarray:
        col = self._cols.get(name)
        if col is None:
            raise KeyError(
                f"column {name!r} was not projected into this scan "
                f"(loaded: {self.loaded_columns})"
            )
        return col

    def key_array(self, key: str) -> np.ndarray:
        if key in self._cols:
            return self._cols[key]
        arr = self._derived.get(key)
        if arr is not None:
            return arr
        if key == "service_port":
            arr = compute_service_port(
                self.column("proto"), self.column("src_port"),
                self.column("dst_port"),
            )
        elif key == "transport":
            arr = compute_transport(
                self.column("proto"), self.key_array("service_port")
            )
        else:
            raise KeyError(
                f"unknown group key {key!r}; columns are "
                f"{sorted(COLUMNS)} and derived keys are {DERIVED_KEYS}"
            )
        return self._derived.setdefault(key, arr)

    def group_index(self, key: str) -> GroupIndex:
        index = self._indexes.get(key)
        if index is not None:
            groupby.record_reuse()
            return index
        index = GroupIndex.from_values(self.key_array(key))
        groupby.record_build(key, self._rows)
        return self._indexes.setdefault(key, index)

    def filter(self, mask: np.ndarray) -> "ColumnBundle":
        """Rows where ``mask`` is true, materialized off the mmap."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape[0] != self._rows:
            raise ValueError(
                "mask must be a boolean array of partition length"
            )
        selected = {name: col[mask] for name, col in self._cols.items()}
        if selected:
            rows = len(next(iter(selected.values())))
        else:
            rows = int(np.count_nonzero(mask))
        return ColumnBundle(selected, rows)


def _slim_sidecar(sidecar: dict) -> dict:
    """A sidecar copy without planner-only stats, for bundle shipping.

    Dictionary value/count lists and bitmap-index metadata feed cost
    estimation and the predicate-first scan; rebuilding a projected
    bundle in a worker needs neither, and dropping them keeps the
    pickle payload code-space-sized regardless of cardinality.
    """
    columns = {}
    for name, meta in sidecar["columns"].items():
        if "values" in meta or "counts" in meta:
            meta = {
                key: value for key, value in meta.items()
                if key not in ("values", "counts")
            }
        columns[name] = meta
    slim = dict(sidecar)
    slim["columns"] = columns
    slim.pop("indexes", None)
    return slim


def _rebuild_bundle(
    day: str, partition_dir: str, sidecar: dict,
    columns: Tuple[str, ...], mmap: bool,
) -> "ColumnBundle":
    """Unpickle hook: re-map a bundle's segments in this process.

    Goes through :meth:`ColumnarPartition.load`, so the rebuilt bundle
    is checksum-verified against the shipped sidecar (memoized by the
    per-process verified-cache) exactly like a locally opened one.
    """
    partition = ColumnarPartition(day, Path(partition_dir), sidecar)
    bundle, _ = partition.load(columns, mmap=mmap)
    return bundle


class ColumnarPartition:
    """One v2/v3 partition directory opened for reading.

    Pickles by ``(day, path, sidecar)`` — plain data, no open mmaps —
    so partition handles are cheap to ship to scan workers.  The v3
    data-file mmap is opened lazily per handle and never pickled.
    """

    __slots__ = ("day", "_dir", "_sidecar", "_data", "strategy_cache")

    def __init__(self, day: str, partition_dir: Path, sidecar: dict):
        self.day = day
        self._dir = Path(partition_dir)
        self._sidecar = sidecar
        self._data: Optional[np.ndarray] = None
        #: scratch for the query planner: memoized bitmap-vs-scan
        #: choices, valid as long as this handle (i.e. one manifest sha)
        self.strategy_cache: Dict[object, Tuple[str, int]] = {}

    def __reduce__(self):
        return (ColumnarPartition, (self.day, str(self._dir), self._sidecar))

    @property
    def rows(self) -> int:
        return int(self._sidecar["rows"])

    @property
    def format(self) -> int:
        return int(self._sidecar.get("format", FORMAT_V2))

    @property
    def sidecar(self) -> dict:
        return self._sidecar

    def zone(self, column: str) -> Optional[Tuple[int, int]]:
        """The zone map's (min, max) for one column; None when unknown.

        Derived keys (``service_port``, ``transport``) consult the
        seal-time ``derived_zones`` block; sidecars written before it
        existed simply return None (no pruning, never wrong pruning).
        """
        if column in DERIVED_KEYS:
            zones = self._sidecar.get("derived_zones") or {}
            zone = zones.get(column)
            if not zone or zone[0] is None:
                return None
            return int(zone[0]), int(zone[1])
        meta = self._sidecar["columns"].get(column)
        if meta is None or meta.get("min") is None:
            return None
        return int(meta["min"]), int(meta["max"])

    def column_nbytes(self, columns: Iterable[str]) -> int:
        """On-disk bytes behind ``columns`` (estimation, I/O accounting).

        Raw segment bytes for v2; the summed encoded part bytes for v3
        — i.e. what a scan of those columns would actually read.
        """
        total = 0
        for name in columns:
            meta = self._sidecar["columns"][name]
            parts = meta.get("parts")
            if parts:
                total += sum(int(p["nbytes"]) for p in parts.values())
            else:
                total += int(meta["nbytes"])
        return total

    def index_meta(self, column: str) -> Optional[dict]:
        """Bitmap-index metadata for one column, or None."""
        return (self._sidecar.get("indexes") or {}).get(column)

    def encoding_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-column seal decisions for ``store stats`` and benches.

        Maps column name to raw vs. stored bytes, the chosen encoding,
        and (for dictionaries) the cardinality.  v2 partitions report
        every column as ``raw`` at ratio 1.0.
        """
        stats: Dict[str, Dict[str, object]] = {}
        for name, meta in self._sidecar["columns"].items():
            parts = meta.get("parts")
            if parts:
                stored = sum(int(p["nbytes"]) for p in parts.values())
            else:
                stored = int(meta["nbytes"])
            entry: Dict[str, object] = {
                "encoding": meta.get("encoding", encodings.RAW),
                "raw_nbytes": int(meta["nbytes"]),
                "stored_nbytes": stored,
            }
            if meta.get("cardinality") is not None:
                entry["cardinality"] = int(meta["cardinality"])
            index = self.index_meta(name)
            if index is not None:
                entry["index_nbytes"] = int(index["part"]["nbytes"])
            stats[name] = entry
        return stats

    def hour_preaggregates(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(day_start, per-hour bytes, per-hour flows)`` pre-aggregates."""
        hours = self._sidecar["hours"]
        return (
            int(self._sidecar["day_start"]),
            np.asarray(hours["bytes"], dtype=np.int64),
            np.asarray(hours["flows"], dtype=np.int64),
        )

    def load(
        self, columns: Sequence[str], mmap: bool = True
    ) -> Tuple[ColumnBundle, int]:
        """Load the requested physical columns, verifying their checksums.

        Returns ``(bundle, bytes_read)`` where ``bytes_read`` counts the
        on-disk bytes behind the loaded columns (encoded bytes for v3).
        Missing or corrupt segments raise :class:`FlowStoreError`
        naming the column.
        """
        arrays: Dict[str, np.ndarray] = {}
        bytes_read = 0
        if self.format == FORMAT_V3:
            data = self._data_u8()
            for name in columns:
                array, nbytes = self._decode_column(name, data, mmap)
                arrays[name] = array
                bytes_read += nbytes
        else:
            for name in columns:
                meta = self._sidecar["columns"][name]
                path = self._dir / f"{name}.npy"
                _verify_file(
                    path, str(meta["sha256"]),
                    f"column {name!r} of partition {self.day}",
                )
                try:
                    arrays[name] = read_npy_segment(
                        path, np.dtype(str(meta["dtype"])), self.rows,
                        mmap=mmap,
                    )
                except (OSError, ValueError) as exc:
                    raise FlowStoreError(
                        f"column {name!r} of partition {self.day} cannot "
                        f"be read: {type(exc).__name__}: {exc}"
                    ) from exc
                bytes_read += int(meta["nbytes"])
        obs.counter("colstore.loads").inc()
        obs.counter("colstore.columns-loaded").inc(len(arrays))
        obs.counter("colstore.bytes-mapped").inc(bytes_read)
        bundle = ColumnBundle(arrays, self.rows)
        bundle._source = (
            self.day, str(self._dir), self._sidecar, tuple(columns), mmap
        )
        return bundle, bytes_read

    # -- v3 internals --------------------------------------------------------

    def _data_u8(self) -> np.ndarray:
        """The partition's ``segments.bin`` as a flat uint8 mmap, cached."""
        if self._data is not None:
            return self._data
        path = self._dir / str(self._sidecar.get("data_file", DATA_FILE))
        try:
            if path.stat().st_size == 0:
                # An empty partition has no parts; mmap rejects 0 bytes.
                data = np.zeros(0, dtype=np.uint8)
            else:
                data = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as exc:
            raise FlowStoreError(
                f"data file for partition {self.day} cannot be read: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._data = data
        return data

    def _part(
        self, part_meta: dict, data: np.ndarray, what: str, label: str
    ) -> np.ndarray:
        """One verified encoded part as a typed view into the data file."""
        offset = int(part_meta["offset"])
        nbytes = int(part_meta["nbytes"])
        if offset + nbytes > data.size:
            raise FlowStoreError(
                f"{what} is corrupt: part {label!r} extends past the "
                f"end of the data file"
            )
        segment = data[offset:offset + nbytes]
        _verify_slice(
            self._dir / str(self._sidecar.get("data_file", DATA_FILE)),
            segment, str(part_meta["sha256"]), what, label,
        )
        dtype = np.dtype(str(part_meta["dtype"]))
        if nbytes % dtype.itemsize:
            raise FlowStoreError(
                f"{what} is corrupt: part {label!r} byte length does "
                f"not divide its dtype"
            )
        array = segment.view(dtype)
        if int(part_meta.get("count", array.size)) != array.size:
            raise FlowStoreError(
                f"{what} is corrupt: part {label!r} holds {array.size} "
                f"elements, sidecar says {part_meta.get('count')}"
            )
        return array

    def _column_parts(
        self, name: str, roles: Sequence[str], data: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Load + verify the named parts of one column; count their bytes."""
        meta = self._sidecar["columns"][name]
        what = f"column {name!r} of partition {self.day}"
        parts_meta = meta.get("parts") or {}
        out: Dict[str, np.ndarray] = {}
        nbytes = 0
        for role in roles:
            part_meta = parts_meta.get(role)
            if part_meta is None:
                raise FlowStoreError(
                    f"{what} is corrupt: encoded part {role!r} is "
                    f"missing from the sidecar"
                )
            out[role] = self._part(part_meta, data, what, f"{name}/{role}")
            nbytes += int(part_meta["nbytes"])
        return out, nbytes

    def _decode_column(
        self, name: str, data: np.ndarray, mmap: bool
    ) -> Tuple[np.ndarray, int]:
        """Decode one v3 column to its logical array.

        Unknown (future) encodings degrade to the column's ``raw`` part
        when one is present — still checksum-verified — so a newer
        writer remains readable as long as it kept the fallback.
        """
        meta = self._sidecar["columns"][name]
        what = f"column {name!r} of partition {self.day}"
        encoding = str(meta.get("encoding", encodings.RAW))
        dtype = np.dtype(str(meta["dtype"]))
        if encoding == encodings.DICT:
            roles = ("codes", "values")
        elif encoding == encodings.DELTA:
            roles = ("deltas",)
        elif encoding == encodings.RAW:
            roles = ("raw",)
        else:
            if "raw" not in (meta.get("parts") or {}):
                raise FlowStoreError(
                    f"{what} uses unknown encoding {encoding!r} and "
                    f"carries no raw fallback part"
                )
            obs.counter("colstore.encoding-degraded").inc()
            encoding, roles = encodings.RAW, ("raw",)
        parts, nbytes = self._column_parts(name, roles, data)
        try:
            array = encodings.decode_column(
                {**meta, "encoding": encoding}, parts, dtype, self.rows
            )
        except (encodings.EncodingError, ValueError, KeyError) as exc:
            raise FlowStoreError(
                f"{what} cannot be decoded: {type(exc).__name__}: {exc}"
            ) from exc
        if array.size != self.rows:
            raise FlowStoreError(
                f"{what} is corrupt: decoded {array.size} rows, "
                f"sidecar says {self.rows}"
            )
        if not mmap and encoding == encodings.RAW:
            array = np.array(array, copy=True)
        return array, nbytes

    def _dict_values(
        self, name: str, data: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """A dict column's sorted value table (sidecar copy when small)."""
        meta = self._sidecar["columns"][name]
        stored = meta.get("values")
        if stored is not None:
            return np.asarray(stored, dtype=np.dtype(str(meta["dtype"]))), 0
        parts, nbytes = self._column_parts(name, ("values",), data)
        return parts["values"], nbytes

    def load_filtered(
        self, predicates: Sequence, columns: Sequence[str],
        mmap: bool = True,
    ) -> Tuple[ColumnBundle, int]:
        """Predicate-first scan of a v3 partition.

        Evaluates each predicate in the cheapest space available —
        bitmap-row OR/AND for indexed columns, dictionary-code compare
        for dict columns, decoded values for everything else — and only
        then gathers the surviving rows of the requested ``columns``.
        Returns ``(bundle, bytes_read)`` where the bundle holds the
        *filtered* rows (no further masking needed) and ``bytes_read``
        counts encoded part bytes plus gathered row bytes.

        ``predicates`` are :class:`repro.query.spec.Predicate`-shaped
        objects (``column``, ``op`` ∈ {"in", "range"}, sorted
        ``values``); ``columns`` must be physical column names.
        """
        if self.format != FORMAT_V3:
            raise FlowStoreError(
                f"partition {self.day} is not a v3 partition"
            )
        rows = self.rows
        data = self._data_u8()
        bytes_read = 0
        decoded: Dict[str, np.ndarray] = {}
        decoded_codes: Dict[str, np.ndarray] = {}
        mask: Optional[np.ndarray] = None
        deferred = []

        def gather(name: str, idx: np.ndarray) -> np.ndarray:
            nonlocal bytes_read
            if name in DERIVED_KEYS:
                proto = gather("proto", idx)
                service = compute_service_port(
                    proto, gather("src_port", idx), gather("dst_port", idx)
                )
                if name == "service_port":
                    return service
                return compute_transport(proto, service)
            cached = decoded.get(name)
            if cached is not None:
                return cached[idx]
            meta = self._sidecar["columns"][name]
            encoding = str(meta.get("encoding", encodings.RAW))
            if encoding == encodings.DICT:
                if name in decoded_codes:
                    codes = decoded_codes[name]
                else:
                    parts, nbytes = self._column_parts(
                        name, ("codes",), data
                    )
                    codes = parts["codes"]
                    decoded_codes[name] = codes
                    bytes_read += nbytes
                values, nbytes = self._dict_values(name, data)
                bytes_read += nbytes
                dtype = np.dtype(str(meta["dtype"]))
                return values[codes[idx]].astype(dtype, copy=False)
            if encoding == encodings.RAW:
                parts, _ = self._column_parts(name, ("raw",), data)
                bytes_read += int(idx.size) * parts["raw"].dtype.itemsize
                return parts["raw"][idx]
            # Delta (and unknown-degraded) columns decode whole.
            array, nbytes = self._decode_column(name, data, mmap=True)
            decoded[name] = array
            bytes_read += nbytes
            return array[idx]

        for pred in predicates:
            name = pred.column
            meta = (
                self._sidecar["columns"].get(name)
                if name not in DERIVED_KEYS else None
            )
            if meta is None or meta.get("encoding") != encodings.DICT:
                deferred.append(pred)
                continue
            values, nbytes = self._dict_values(name, data)
            bytes_read += nbytes
            # Compare in int64 space: out-of-range predicate values must
            # come back "absent", not wrap into a column's narrow dtype.
            values64 = values.astype(np.int64)
            requested = np.asarray(pred.values, dtype=np.int64)
            if pred.op == "in":
                slots = np.searchsorted(values64, requested)
                ok = slots < values64.size
                ok &= values64[np.minimum(slots, values64.size - 1)] == requested
                slots = slots[ok]
                if slots.size == 0:
                    mask = np.zeros(rows, dtype=bool)
                    break
                index = self.index_meta(name)
                if index is not None:
                    bitmap_part = self._part(
                        index["part"], data,
                        f"bitmap index on {name!r} of partition {self.day}",
                        f"index/{name}",
                    )
                    bytes_read += int(index["part"]["nbytes"])
                    bitmap = bitmap_part.reshape(
                        int(index["cardinality"]), int(index["row_nbytes"])
                    )
                    pred_mask = encodings.bitmap_select(bitmap, slots, rows)
                    obs.counter("colstore.bitmap-predicates").inc()
                else:
                    codes = decoded_codes.get(name)
                    if codes is None:
                        parts, nbytes = self._column_parts(
                            name, ("codes",), data
                        )
                        codes = parts["codes"]
                        decoded_codes[name] = codes
                        bytes_read += nbytes
                    if slots.size == 1:
                        pred_mask = codes == codes.dtype.type(slots[0])
                    else:
                        pred_mask = np.isin(
                            codes, slots.astype(codes.dtype)
                        )
            else:  # range
                lo = np.searchsorted(values64, requested[0], side="left")
                hi = np.searchsorted(values64, requested[-1], side="right")
                if lo >= hi:
                    mask = np.zeros(rows, dtype=bool)
                    break
                codes = decoded_codes.get(name)
                if codes is None:
                    parts, nbytes = self._column_parts(
                        name, ("codes",), data
                    )
                    codes = parts["codes"]
                    decoded_codes[name] = codes
                    bytes_read += nbytes
                pred_mask = (codes >= codes.dtype.type(lo)) & (
                    codes < codes.dtype.type(hi)
                )
            mask = pred_mask if mask is None else mask & pred_mask
            if not mask.any():
                break

        if mask is not None and not mask.any():
            idx = np.zeros(0, dtype=np.intp)
        elif mask is not None:
            idx = np.flatnonzero(mask)
        else:
            idx = np.arange(rows, dtype=np.intp)

        for pred in deferred:
            if idx.size == 0:
                break
            values = gather(pred.column, idx)
            requested = np.asarray(pred.values)
            if pred.op == "range":
                keep = (values >= requested[0]) & (values <= requested[-1])
            elif requested.size == 1:
                keep = values == requested[0]
            else:
                keep = np.isin(values, requested)
            idx = idx[keep]

        if idx.size == 0:
            # Nothing survived the predicates — build empty columns
            # straight from the sidecar dtypes (derived keys are
            # int64), skipping every decode the gather would pay.
            arrays = {
                name: np.zeros(0, dtype=(
                    np.int64 if name in DERIVED_KEYS
                    else np.dtype(str(self._sidecar["columns"][name]["dtype"]))
                ))
                for name in columns
            }
        else:
            arrays = {
                name: np.ascontiguousarray(gather(name, idx))
                for name in columns
            }
        obs.counter("colstore.loads").inc()
        obs.counter("colstore.columns-loaded").inc(len(arrays))
        obs.counter("colstore.bytes-mapped").inc(bytes_read)
        obs.counter("colstore.bitmap-scans").inc()
        return ColumnBundle(arrays, int(idx.size)), bytes_read

    def table(self, mmap: bool = False) -> FlowTable:
        """The whole partition as a :class:`FlowTable` (all columns).

        ``mmap=False`` (the default for the v1-compatible full-load
        path) materializes every column in memory.
        """
        bundle, _ = self.load(tuple(COLUMNS), mmap=mmap)
        return FlowTable({name: bundle.column(name) for name in COLUMNS})
