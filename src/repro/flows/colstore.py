"""Columnar partition format v3: encoded column parts + sidecar.

Each day of a :class:`~repro.flows.store.FlowStore` is one directory
holding a single 64-byte-aligned data file of per-column *encoded*
parts and a JSON sidecar that describes them::

    store/
      manifest.json            entries carry {"format": 3, "sha256": ...}
      2020-03-25/
        sidecar.json           encodings, per-part sha256, zones
        segments.bin           all encoded column parts, one mmap

Columns are encoded at seal time (see :mod:`repro.flows.encodings`).
Low-cardinality columns are dictionary-encoded (sorted uniques + small
codes).  Near-sorted columns (``hour``) are delta + bit-packed.
Everything else is stored raw.

The sidecar holds, per column, the dtype, raw byte size, encoding,
min/max (the **zone map**) and each part's offset, size and SHA-256,
plus the partition row count, conservative zones for the derived keys
(``service_port``, ``transport``) and pre-aggregated per-hour
``bytes``/``flows`` totals.  That makes three optimizations possible:

* **Projection pushdown** — :meth:`ColumnarPartition.load` decodes only
  the columns a query references, and verifies checksums only for
  their parts;
* **Data skipping** — the planner prunes partitions whose zone map
  (actual hour range, predicate column and derived-key bounds) cannot
  match;
* **Pre-aggregate answers** — unfiltered ``bytes``/``flows`` totals
  (whole-day or per-hour) come straight from the sidecar.

Checksum verification reads a part once; a process-global
verified-cache keyed by the data file's ``(path, mtime_ns, size)`` and
the part makes repeated warm queries skip re-hashing entirely.

A sidecar of any other ``format`` is refused with
:class:`FlowStoreError`: stores are derived data, rebuilt with
``repro generate --store``.  Keys a reader does not use are ignored,
so sidecars sealed with the ``indexes`` block and per-value
``values``/``counts`` lists of earlier versions still read: every part
is addressed by its own offset.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.flows import encodings, groupby
from repro.flows.groupby import GroupIndex
from repro.flows.io import file_sha256
from repro.flows.table import (
    COLUMNS,
    DERIVED_KEYS,
    FlowTable,
    compute_service_port,
    compute_transport,
)

#: The partition format version, recorded in sidecars and manifest
#: entries.
FORMAT_V3 = 3

#: Sidecar file name inside a partition directory.
SIDECAR = "sidecar.json"

#: Single data file holding every encoded part of a partition.
DATA_FILE = "segments.bin"

#: Hour bins per day partition.
_HOURS = 24

#: Part offsets inside ``segments.bin`` are aligned to this boundary.
_PART_ALIGN = 64

#: How every error about an unreadable partition format ends.
REBUILD_HINT = "rebuild the store with `repro generate --store`"


class FlowStoreError(Exception):
    """A partition that exists in the manifest cannot be served.

    Raised for missing partition directories, data files or column
    parts, checksum mismatches, corrupt sidecars, and partitions in a
    format other than v3 — all the ways a store directory can rot (or
    age) underneath its manifest.
    (Re-exported as :class:`repro.flows.store.FlowStoreError`, its
    historical home.)
    """


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
    identity: tuple, data: np.ndarray, expected: str, what: str, label: str
) -> None:
    """Check one part's bytes inside a shared data file.

    Same memoization contract as :func:`_verify_file`, but keyed by the
    data file's ``(path, mtime_ns, size)`` ``identity`` — statted once
    per load by the caller — plus the part ``label``, so each part of
    ``segments.bin`` is verified (and cached) independently; rewriting
    the file bumps the mtime and invalidates every part at once.
    """
    key = (*identity, label)
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
    """Write the sidecar and return the sha256 of the bytes written."""
    # Compact separators keep json.dumps on its C encoder (an indent
    # forces the pure-Python one) and the file a third of the size.
    payload = json.dumps(
        sidecar, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    (temp / SIDECAR).write_bytes(payload)
    return hashlib.sha256(payload).hexdigest()


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


class RangeSeal:
    """Seal work shared by the day partitions of one table range.

    ``rows`` index the range's rows of ``flows``, grouped by day, each
    day's rows in input order.  ``rows[bounds[i]:bounds[i + 1]]`` are
    day ``i``, whose first hour is ``first_hour + 24 * i``.  Each
    column's per-day dictionaries, the derived-key zones and the hour
    pre-aggregates are computed once for the whole range, on first use,
    and sliced per day by :meth:`write`; each partition pays only for
    gathering its rows, hashing, its sidecar and its file writes.
    """

    def __init__(self, flows: FlowTable, rows: np.ndarray,
                 bounds: np.ndarray, first_hour: int):
        self._flows = flows
        self._rows = rows
        self._bounds = bounds
        self._first_hour = first_hour

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def rows(self, i: int) -> int:
        """Row count of day ``i``."""
        return int(self._bounds[i + 1] - self._bounds[i])

    def total_bytes(self, i: int) -> int:
        """Traffic bytes of day ``i``."""
        return int(self._hours[0][i].sum())

    def _day_rows(self, i: int) -> np.ndarray:
        return self._rows[self._bounds[i]:self._bounds[i + 1]]

    def _range_column(self, name: str) -> np.ndarray:
        """``name`` over the range's rows, grouped by day."""
        return self._flows.column(name)[self._rows]

    @cached_property
    def _dictionaries(self) -> Dict[str, tuple]:
        dictionaries = {}
        for name in COLUMNS:
            values, codes, _, value_bounds = encodings.segment_unique(
                self._range_column(name), self._bounds)
            # The codes live as long as the seal: keep them narrow.
            widest = int(np.diff(value_bounds).max(initial=1))
            codes = codes.astype(encodings.codes_dtype(widest))
            dictionaries[name] = (values, codes, value_bounds)
        return dictionaries

    @cached_property
    def _hours(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-day, per-hour ``bytes``/``flows`` totals."""
        bins = len(self) * _HOURS
        rel = self._range_column("hour") - self._first_hour
        byte_bins = np.zeros(bins, dtype=np.int64)
        np.add.at(byte_bins, rel, self._range_column("n_bytes"))
        flow_bins = np.bincount(rel, minlength=bins)
        return (byte_bins.reshape(len(self), _HOURS),
                flow_bins.reshape(len(self), _HOURS))

    @cached_property
    def _zones(self) -> List[Dict[str, Optional[List[int]]]]:
        """Per day, the exact (min, max) of each derived key.

        Stored in the sidecar so the planner can zone-prune predicates
        on ``service_port``/``transport`` without materializing base
        columns.  Empty days get ``None``.
        """
        proto = self._range_column("proto")
        service = compute_service_port(
            proto, self._range_column("src_port"),
            self._range_column("dst_port"))
        keys = {"service_port": service,
                "transport": compute_transport(proto, service)}
        zones = [dict.fromkeys(DERIVED_KEYS) for _ in range(len(self))]
        nonempty = np.flatnonzero(np.diff(self._bounds))
        if len(nonempty):
            starts = self._bounds[nonempty]
            for key in DERIVED_KEYS:
                mins = np.minimum.reduceat(keys[key], starts).tolist()
                maxs = np.maximum.reduceat(keys[key], starts).tolist()
                for day, low, high in zip(nonempty.tolist(), mins, maxs):
                    zones[day][key] = [low, high]
        return zones

    def _day_dictionary(self, i: int, name: str) -> tuple:
        """``_unique`` of day ``i``'s ``name`` column: values, codes."""
        values, codes, value_bounds = self._dictionaries[name]
        return (values[value_bounds[i]:value_bounds[i + 1]],
                codes[self._bounds[i]:self._bounds[i + 1]])

    def _sidecar(self, i: int, columns: dict) -> dict:
        """Day ``i``'s sidecar fields besides the data file."""
        byte_bins, flow_bins = self._hours
        return {
            "format": FORMAT_V3,
            "rows": self.rows(i),
            "day_start": self._first_hour + _HOURS * i,
            "columns": columns,
            "derived_zones": self._zones[i],
            "hours": {"bytes": byte_bins[i].tolist(),
                      "flows": flow_bins[i].tolist()},
        }

    @staticmethod
    def _column_meta(column: np.ndarray, values: np.ndarray) -> dict:
        """dtype, size and zone of a column whose sorted distinct values
        are ``values``."""
        return {
            "dtype": column.dtype.str,
            "nbytes": int(column.nbytes),
            "min": int(values[0]) if len(values) else None,
            "max": int(values[-1]) if len(values) else None,
        }

    def write(self, i: int, final_dir: Path) -> Tuple[dict, str]:
        """Write day ``i`` as a partition directory, atomically.

        Builds the whole partition (data file + sidecar) under a
        temporary sibling directory and swaps it into place, so readers
        never observe a half-written day.  Returns ``(sidecar payload,
        sidecar sha256)``; the caller records the sidecar hash in the
        store manifest, chaining manifest → sidecar → column parts.
        """
        final_dir = Path(final_dir)
        temp = final_dir.with_name(final_dir.name + ".tmp")
        if temp.exists():
            shutil.rmtree(temp)
        temp.mkdir(parents=True)
        sidecar = self._build(i, temp)
        sidecar_sha = _write_sidecar(sidecar, temp)
        _seal_dir(temp, final_dir)
        obs.counter("colstore.partitions-written").inc()
        return sidecar, sidecar_sha

    def _build(self, i: int, temp: Path) -> dict:
        writer = _PartWriter()
        columns_meta: Dict[str, Dict[str, object]] = {}
        day_rows = self._day_rows(i)
        for name in COLUMNS:
            column = self._flows.column(name)[day_rows]
            unique = self._day_dictionary(i, name)
            enc_meta, parts = encodings.encode_column(column, unique)
            meta = self._column_meta(column, unique[0])
            meta.update(enc_meta)
            meta["parts"] = {
                role: writer.add(part) for role, part in parts.items()
            }
            columns_meta[name] = meta
        writer.write(temp / DATA_FILE)
        sidecar = self._sidecar(i, columns_meta)
        sidecar["data_file"] = DATA_FILE
        return sidecar


# -- reads --------------------------------------------------------------------


def read_sidecar(partition_dir: Path, expected_sha: Optional[str],
                 what: str) -> dict:
    """Load and validate one partition sidecar.

    ``expected_sha`` (from the store manifest) is verified first, so a
    tampered sidecar cannot vouch for tampered parts.  Structural
    problems — unparseable JSON, a format other than v3, missing
    fields, wrong column set — raise :class:`FlowStoreError`.
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
    if not isinstance(sidecar, dict) or sidecar.get("format") != FORMAT_V3:
        raise FlowStoreError(
            f"sidecar for {what} has unsupported format "
            f"{sidecar.get('format') if isinstance(sidecar, dict) else sidecar!r}"
            f"; {REBUILD_HINT}"
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
                _rebuild_bundle, (day, directory, sidecar, columns, mmap),
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


class _DataFile(NamedTuple):
    """One load's view of a partition's data file.

    ``identity`` is ``(path, mtime_ns, size)`` from a single stat at the
    start of the load; it keys the verified-cache for every part the
    load reads.  It lives here, not on the shared partition handle,
    because two workers may scan one partition at once.
    """

    u8: np.ndarray
    identity: tuple


class ColumnarPartition:
    """One partition directory opened for reading.

    Pickles by ``(day, path, sidecar)`` — plain data, no open mmaps —
    so partition handles are cheap to ship to scan workers.  The
    data-file mmap is opened lazily per handle and never pickled.
    """

    __slots__ = ("day", "_dir", "_data_path", "_sidecar", "_data")

    def __init__(self, day: str, partition_dir: Path, sidecar: dict):
        self.day = day
        self._dir = Path(partition_dir)
        self._data_path = self._dir / str(sidecar.get("data_file", DATA_FILE))
        self._sidecar = sidecar
        self._data: Optional[np.ndarray] = None

    def __reduce__(self):
        return (ColumnarPartition, (self.day, str(self._dir), self._sidecar))

    @property
    def rows(self) -> int:
        return int(self._sidecar["rows"])

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

        The summed encoded part bytes — what a scan of those columns
        would actually read.
        """
        return sum(
            int(part["nbytes"])
            for name in columns
            for part in (
                self._sidecar["columns"][name].get("parts") or {}
            ).values()
        )

    def encoding_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-column seal decisions for ``store stats`` and benches.

        Maps column name to raw vs. stored bytes, the chosen encoding,
        and (for dictionaries) the cardinality.
        """
        stats: Dict[str, Dict[str, object]] = {}
        for name, meta in self._sidecar["columns"].items():
            entry: Dict[str, object] = {
                "encoding": meta.get("encoding", encodings.RAW),
                "raw_nbytes": int(meta["nbytes"]),
                "stored_nbytes": self.column_nbytes((name,)),
            }
            if meta.get("cardinality") is not None:
                entry["cardinality"] = int(meta["cardinality"])
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
        encoded on-disk bytes behind the loaded columns.  Missing or
        corrupt parts raise :class:`FlowStoreError` naming the column.
        """
        arrays: Dict[str, np.ndarray] = {}
        bytes_read = 0
        data = self._data_file()
        for name in columns:
            array, nbytes = self._decode_column(name, data, mmap)
            arrays[name] = array
            bytes_read += nbytes
        obs.counter("colstore.loads").inc()
        obs.counter("colstore.columns-loaded").inc(len(arrays))
        obs.counter("colstore.bytes-mapped").inc(bytes_read)
        bundle = ColumnBundle(arrays, self.rows)
        bundle._source = (
            self.day, str(self._dir), self._sidecar, tuple(columns), mmap
        )
        return bundle, bytes_read

    # -- internals -----------------------------------------------------------

    def _data_file(self) -> _DataFile:
        """``segments.bin`` for one load: its bytes and stat identity.

        The file is mapped once per handle and kept as a plain
        ``ndarray`` view of the mmap: slicing it skips the ``np.memmap``
        subclass overhead, and the view's base keeps the mapping alive.
        The stat runs on every load, so a rewritten file is re-verified.
        """
        path = self._data_path
        try:
            stat = path.stat()
            data = self._data
            if data is None:
                if stat.st_size == 0:
                    # An empty partition has no parts; mmap rejects 0 bytes.
                    data = np.zeros(0, dtype=np.uint8)
                else:
                    data = np.memmap(path, dtype=np.uint8, mode="r").view(
                        np.ndarray
                    )
                self._data = data
        except (OSError, ValueError) as exc:
            raise FlowStoreError(
                f"data file for partition {self.day} cannot be read: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return _DataFile(data, (str(path), stat.st_mtime_ns, stat.st_size))

    def _part(
        self, part_meta: dict, data: _DataFile, what: str, label: str
    ) -> np.ndarray:
        """One verified encoded part as a typed view into the data file."""
        offset = int(part_meta["offset"])
        nbytes = int(part_meta["nbytes"])
        if offset + nbytes > data.u8.size:
            raise FlowStoreError(
                f"{what} is corrupt: part {label!r} extends past the "
                f"end of the data file"
            )
        segment = data.u8[offset:offset + nbytes]
        _verify_slice(
            data.identity, segment, str(part_meta["sha256"]), what, label
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
        self, name: str, roles: Sequence[str], data: _DataFile
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
        self, name: str, data: _DataFile, mmap: bool
    ) -> Tuple[np.ndarray, int]:
        """Decode one column to its logical array.

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

    def table(self) -> FlowTable:
        """The whole partition as a :class:`FlowTable` (all columns)."""
        bundle, _ = self.load(tuple(COLUMNS))
        return FlowTable({name: bundle.column(name) for name in COLUMNS})
