"""Partitioned on-disk flow store.

Vantage-point captures span months (the EDU capture alone is 71 days);
analyses usually touch a handful of named weeks.  ``FlowStore`` keeps a
directory of per-day partitions plus a JSON manifest, so date-range
queries load only the partitions they need.

Two partition formats coexist under one manifest:

* **v1** — one compressed ``.npz`` archive per day
  (``2020-03-25.npz``); reads decompress and checksum the whole
  archive.
* **v2** — one directory per day holding raw per-column ``.npy``
  segments plus a zone-map sidecar (see
  :mod:`repro.flows.colstore`); reads memory-map only the columns a
  query references and verify checksums per loaded column.
* **v3** — one directory per day holding a single ``segments.bin`` of
  per-column *encoded* parts (dictionary / delta+bit-pack / raw) plus
  bitmap indexes, described by the same sidecar discipline; scans can
  evaluate predicates on dictionary codes or bitmap rows before
  materializing any row data.

New writes default to v3 (v2 under ``REPRO_NO_COLSTORE_V3``, v1 under
``REPRO_NO_COLSTORE``), the manifest records each partition's format,
and :meth:`FlowStore.migrate` rewrites partitions between any two
formats in place — atomically, one day at a time.

Writes are append-only at day granularity; re-writing a day replaces
its partition atomically (write to a temp name, then rename).

Every partition's manifest entry records a SHA-256 — of the archive
bytes (v1) or of the sidecar, which in turn records per-column segment
hashes (v2).  Reads verify the chain, so a truncated or corrupted
partition raises a :class:`FlowStoreError` instead of surfacing as a
numpy/zipfile internal error (or, worse, as silently wrong data); the
query planner turns that into a per-partition failure rather than a
crashed query.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import shutil
import threading
import zipfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro import timebase
from repro.flows import colstore
from repro.flows.colstore import (
    FORMAT_V1,
    FORMAT_V2,
    FORMAT_V3,
    FlowStoreError,
)
from repro.flows.io import file_sha256, read_npz, write_npz
from repro.flows.table import COLUMNS, FlowTable

__all__ = [
    "FORMAT_V1",
    "FORMAT_V2",
    "FORMAT_V3",
    "FlowStore",
    "FlowStoreError",
    "open_cached",
]

#: Every format the store can read and write.
_ALL_FORMATS = (FORMAT_V1, FORMAT_V2, FORMAT_V3)

PathLike = Union[str, Path]

_MANIFEST = "manifest.json"


class FlowStore:
    """A date-partitioned flow archive under one directory."""

    def __init__(self, root: PathLike,
                 default_format: Optional[int] = None):
        """Open (or create) a store.

        ``default_format`` fixes the partition format for new writes;
        by default it follows the colstore switches — v3, or v2 under
        ``REPRO_NO_COLSTORE_V3``, or v1 under ``REPRO_NO_COLSTORE``.
        """
        if default_format is not None and default_format not in _ALL_FORMATS:
            raise ValueError(
                f"unknown partition format {default_format!r}; "
                f"use one of {_ALL_FORMATS}"
            )
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._default_format = default_format
        self._manifest: Dict[str, Dict[str, object]] = {}
        #: Bumped after every manifest change; the memoized state token
        #: is valid only for the version it was computed at.
        self._version = 0
        self._token: Optional[Tuple[int, str]] = None
        self._partitions: Dict[tuple, colstore.ColumnarPartition] = {}
        manifest_path = self._root / _MANIFEST
        if manifest_path.exists():
            with manifest_path.open() as handle:
                self._manifest = json.load(handle)

    # -- helpers ------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The store's directory."""
        return self._root

    @property
    def default_format(self) -> int:
        """The format new partitions are written in."""
        if self._default_format is not None:
            return self._default_format
        if not colstore.enabled():
            return FORMAT_V1
        return FORMAT_V3 if colstore.v3_enabled() else FORMAT_V2

    def state_token(self) -> str:
        """Hex digest identifying the store's current contents.

        Derived from the manifest (day set, flow/byte totals, formats,
        and the per-partition checksums), so any write, delete,
        re-write, or migration changes it.  The query service keys its
        result cache on ``(query fingerprint, state token)`` — a
        mutated store can never serve stale cached results.

        Memoized per manifest version.  A token computed while a write
        lands is stored under the version read *before* the hash, which
        the write then bumps, so it is never served afterwards.
        """
        version = self._version
        cached = self._token
        if cached is not None and cached[0] == version:
            return cached[1]
        payload = json.dumps(self._manifest, sort_keys=True)
        token = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self._token = (version, token)
        return token

    def _partition_path(self, day: _dt.date) -> Path:
        return self._root / f"{day.isoformat()}.npz"

    def _partition_dir(self, day: _dt.date) -> Path:
        return self._root / day.isoformat()

    def _changed(self, key: str) -> None:
        """Note an in-memory manifest change to one day."""
        # Retire the memoized token and any cached partition handle.
        self._version += 1
        self._invalidate(key)

    def _save_manifest(self) -> None:
        """Write the in-memory manifest to disk."""
        obs.counter("store.manifest-writes").inc()
        # Compact separators keep json.dumps on its C encoder; an
        # indent forces the pure-Python one on every write_day.
        temp = self._root / (_MANIFEST + ".tmp")
        temp.write_text(
            json.dumps(self._manifest, sort_keys=True, separators=(",", ":"))
        )
        os.replace(temp, self._root / _MANIFEST)

    def _invalidate(self, key: str) -> None:
        """Drop cached partition handles for one rewritten/deleted day."""
        for cache_key in [k for k in self._partitions if k[0] == key]:
            del self._partitions[cache_key]

    # -- inventory ------------------------------------------------------------

    def days(self) -> List[_dt.date]:
        """Days with a stored partition, ascending."""
        return sorted(_dt.date.fromisoformat(k) for k in self._manifest)

    def __contains__(self, day: _dt.date) -> bool:
        return day.isoformat() in self._manifest

    def __len__(self) -> int:
        return len(self._manifest)

    def day_flows(self, day: _dt.date) -> int:
        """Flow records in one day's partition (from the manifest)."""
        entry = self._manifest.get(day.isoformat())
        if entry is None:
            raise KeyError(f"no partition for {day}")
        return int(entry["flows"])

    def partition_format(self, day: _dt.date) -> int:
        """The stored format of one day's partition (1, 2, or 3)."""
        entry = self._manifest.get(day.isoformat())
        if entry is None:
            raise KeyError(f"no partition for {day}")
        return int(entry.get("format", FORMAT_V1))

    def format_counts(self) -> Dict[int, int]:
        """Partition count per format version (inventory/CLI)."""
        counts: Dict[int, int] = {}
        for entry in self._manifest.values():
            fmt = int(entry.get("format", FORMAT_V1))
            counts[fmt] = counts.get(fmt, 0) + 1
        return counts

    def partition_disk_bytes(self, day: _dt.date) -> int:
        """Approximate bytes behind one partition (planner estimates).

        Segment bytes for v2 directories, encoded part bytes for v3,
        archive size for v1 files; zero when the partition cannot be
        inspected — estimation must never fail a query that the scan
        itself could still serve.
        """
        entry = self._entry(day)
        if int(entry.get("format", FORMAT_V1)) in (FORMAT_V2, FORMAT_V3):
            try:
                partition = self.open_partition(day)
            except FlowStoreError:
                return 0
            return partition.column_nbytes(tuple(COLUMNS))
        try:
            return self._partition_path(day).stat().st_size
        except OSError:
            return 0

    def column_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-column storage stats aggregated over v2/v3 partitions.

        Maps column name to summed raw vs. stored bytes, the set of
        encodings chosen across partitions, the largest dictionary
        cardinality seen, and total bitmap-index bytes.  v1 partitions
        carry no per-column layout and are skipped (their count is in
        :meth:`format_counts`).  Backs ``repro store stats``.
        """
        totals: Dict[str, Dict[str, object]] = {}
        for day in self.days():
            try:
                partition = self.open_partition(day)
            except FlowStoreError:
                continue
            if partition is None:
                continue
            for name, stat in partition.encoding_stats().items():
                entry = totals.setdefault(name, {
                    "raw_nbytes": 0,
                    "stored_nbytes": 0,
                    "index_nbytes": 0,
                    "encodings": set(),
                    "max_cardinality": None,
                })
                entry["raw_nbytes"] += int(stat["raw_nbytes"])
                entry["stored_nbytes"] += int(stat["stored_nbytes"])
                entry["index_nbytes"] += int(stat.get("index_nbytes", 0))
                entry["encodings"].add(str(stat["encoding"]))
                card = stat.get("cardinality")
                if card is not None:
                    prev = entry["max_cardinality"]
                    entry["max_cardinality"] = (
                        int(card) if prev is None else max(prev, int(card))
                    )
        for entry in totals.values():
            entry["encodings"] = sorted(entry["encodings"])
        return totals

    def total_flows(self) -> int:
        """Flow records across all partitions (from the manifest)."""
        return sum(int(e["flows"]) for e in self._manifest.values())

    def total_bytes(self) -> int:
        """Traffic bytes across all partitions (from the manifest)."""
        return sum(int(e["bytes"]) for e in self._manifest.values())

    # -- writes -----------------------------------------------------------------

    def write_day(self, day: _dt.date, flows: FlowTable,
                  partition_format: Optional[int] = None) -> None:
        """Store one day's flows, replacing any existing partition.

        Every flow must fall inside ``day``'s 24 hourly bins; mixing
        days in one partition would silently corrupt range queries.
        ``partition_format`` overrides the store's default for this
        write (the migration path).
        """
        start = timebase.hour_index(day, 0)
        hours = flows.column("hour")
        if len(flows) and (
            int(hours.min()) < start or int(hours.max()) >= start + 24
        ):
            raise ValueError(
                f"flows outside {day} cannot go into its partition"
            )
        self.write_range(flows, day, day, partition_format)

    def write_range(
        self, flows: FlowTable, start_day: _dt.date, end_day: _dt.date,
        partition_format: Optional[int] = None,
    ) -> int:
        """Partition a multi-day table into daily partitions.

        Returns the number of partitions written.  Each partition keeps
        its rows in input order, rows outside the range are dropped, and
        days inside the range with no flows get an empty partition,
        making subsequent coverage checks unambiguous.

        Work that spans the range is done once per call: the split into
        days, each column's per-day dictionaries, the derived-key zones
        and the hour pre-aggregates (:class:`colstore.RangeSeal`).  The
        manifest file is written once, when the call ends, also when a
        day fails part-way, so every day written before it stays listed.
        """
        if end_day < start_day:
            raise ValueError("end_day precedes start_day")
        fmt = partition_format or self.default_format
        if fmt not in _ALL_FORMATS:
            raise ValueError(f"unknown partition format {fmt!r}")
        n_days = (end_day - start_day).days + 1
        first_hour = timebase.hour_index(start_day, 0)
        day_of_row = (flows.column("hour") - first_hour) // 24
        # One stable sort by day, then each day is a slice of the
        # range's rows, which keep their input order within the day.
        order = np.argsort(day_of_row, kind="stable")
        bounds = np.searchsorted(day_of_row[order], np.arange(n_days + 1))
        rows = order[bounds[0]:bounds[-1]]
        seal = colstore.RangeSeal(flows, rows, bounds - bounds[0], first_hour)
        with obs.span("flows/write-range") as span:
            span.set_metric("partitions", n_days)
            span.set_metric("flows", len(rows))
            try:
                for i, day in enumerate(
                        timebase.iter_days(start_day, end_day)):
                    self._write_partition(seal, i, day, fmt)
            finally:
                self._save_manifest()
        return n_days

    def _write_partition(self, seal: colstore.RangeSeal, i: int,
                         day: _dt.date, fmt: int) -> None:
        """Write ``seal``'s day ``i`` and list it in the in-memory manifest."""
        if fmt in (FORMAT_V2, FORMAT_V3):
            _, checksum = seal.write(i, self._partition_dir(day), fmt)
            # Drop a leftover v1 archive from a format switch.
            if self._partition_path(day).exists():
                self._partition_path(day).unlink()
        else:
            final = self._partition_path(day)
            # The temp name must end in .npz or numpy appends the suffix.
            temp = final.with_suffix(".tmp.npz")
            write_npz(seal.table(i), temp)
            checksum = file_sha256(temp)
            os.replace(temp, final)
            if self._partition_dir(day).exists():
                shutil.rmtree(self._partition_dir(day))
        entry: Dict[str, object] = {
            "flows": seal.rows(i),
            "bytes": seal.total_bytes(i),
            "sha256": checksum,
        }
        if fmt != FORMAT_V1:
            entry["format"] = fmt
        key = day.isoformat()
        self._manifest[key] = entry
        self._changed(key)

    def delete_day(self, day: _dt.date) -> None:
        """Remove a day's partition; missing days are a no-op."""
        key = day.isoformat()
        if key not in self._manifest:
            return
        path = self._partition_path(day)
        if path.exists():
            path.unlink()
        directory = self._partition_dir(day)
        if directory.exists():
            shutil.rmtree(directory)
        del self._manifest[key]
        self._changed(key)
        self._save_manifest()

    def migrate(self, to_format: int = FORMAT_V2) -> int:
        """Rewrite partitions stored in another format, in place.

        Each day is read fully (checksums verified), rewritten in
        ``to_format`` with the usual tmp+rename swap, and its manifest
        entry updated — so a crash mid-migration leaves every partition
        either fully old or fully new.  Returns the number of
        partitions rewritten; already-converted days are untouched.
        """
        if to_format not in _ALL_FORMATS:
            raise ValueError(f"unknown partition format {to_format!r}")
        migrated = 0
        for day in self.days():
            if self.partition_format(day) == to_format:
                continue
            flows = self.read_day(day)
            self.write_day(day, flows, partition_format=to_format)
            migrated += 1
        return migrated

    # -- reads ---------------------------------------------------------------------

    def _entry(self, day: _dt.date) -> Dict[str, object]:
        if day not in self:
            raise KeyError(f"no partition for {day}")
        return self._manifest[day.isoformat()]

    def open_partition(
        self, day: _dt.date
    ) -> Optional[colstore.ColumnarPartition]:
        """A :class:`~repro.flows.colstore.ColumnarPartition` handle, or
        ``None`` for v1 partitions.

        The sidecar is verified against the manifest hash and the
        *handle* is cached per ``(day, sha)``, so repeated queries pay
        one JSON parse and — for v3 — keep one ``segments.bin``
        mapping open instead of re-mmapping per scan.  Rewriting a day
        changes its manifest sha, which drops the stale handle.
        """
        entry = self._entry(day)
        if int(entry.get("format", FORMAT_V1)) not in (FORMAT_V2, FORMAT_V3):
            return None
        key = day.isoformat()
        cache_key = (key, entry.get("sha256"))
        partition = self._partitions.get(cache_key)
        if partition is None:
            directory = self._partition_dir(day)
            if not directory.exists():
                raise FlowStoreError(
                    f"partition directory for {day} is missing from "
                    f"{self._root}"
                )
            sidecar = colstore.read_sidecar(
                directory,
                str(entry["sha256"]) if entry.get("sha256") else None,
                f"partition {key}",
            )
            if int(sidecar["rows"]) != int(entry["flows"]):
                raise FlowStoreError(
                    f"partition for {day} is corrupt: sidecar reports "
                    f"{sidecar['rows']} rows, manifest {entry['flows']}"
                )
            partition = colstore.ColumnarPartition(
                key, self._partition_dir(day), sidecar
            )
            self._partitions[cache_key] = partition
        return partition

    def _read_day_v1(self, day: _dt.date) -> FlowTable:
        path = self._partition_path(day)
        if not path.exists():
            raise FlowStoreError(
                f"partition file for {day} is missing from {self._root}"
            )
        expected = self._entry(day).get("sha256")
        if expected is not None:
            actual = file_sha256(path)
            if actual != expected:
                raise FlowStoreError(
                    f"partition for {day} is corrupt: checksum "
                    f"{actual[:12]}… does not match the manifest's "
                    f"{str(expected)[:12]}…"
                )
        try:
            return read_npz(path)
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile) as exc:
            raise FlowStoreError(
                f"partition for {day} cannot be read: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def read_day(self, day: _dt.date) -> FlowTable:
        """Load one day's partition, verifying its content checksums.

        Raises ``KeyError`` if the day has no manifest entry and
        :class:`FlowStoreError` if the partition is missing, fails a
        checksum, or cannot be parsed.  v2 partitions are memory-mapped
        when the colstore is enabled and read fully into memory under
        ``REPRO_NO_COLSTORE``; either way every column is verified.
        """
        partition = self.open_partition(day)
        if partition is None:
            return self._read_day_v1(day)
        return partition.table(mmap=colstore.enabled())

    def read_range(
        self, start_day: _dt.date, end_day: _dt.date,
        require_complete: bool = False,
    ) -> FlowTable:
        """Load all partitions in a date range (inclusive).

        Missing days are skipped unless ``require_complete`` is set.
        """
        if end_day < start_day:
            raise ValueError("end_day precedes start_day")
        tables = []
        for day in timebase.iter_days(start_day, end_day):
            if day in self:
                tables.append(self.read_day(day))
            elif require_complete:
                raise KeyError(f"missing partition for {day}")
        return FlowTable.concat(tables)

    def read_week(self, week: timebase.Week,
                  require_complete: bool = True) -> FlowTable:
        """Load one named analysis week."""
        return self.read_range(week.start, week.end, require_complete)

    def iter_days(self) -> Iterator[tuple]:
        """Yield (day, flows) over all partitions in date order.

        Streams one partition at a time — pair with
        :class:`repro.core.streaming.StreamingAggregator` for traces
        larger than memory.
        """
        for day in self.days():
            yield day, self.read_day(day)


# -- per-process open cache ---------------------------------------------------

#: root path → (manifest identity, opened store).  Process-local by
#: construction: fork'd scan workers each start with a copy and then
#: diverge, so one worker's cache never aliases another's mmaps.
_OPEN_STORES: Dict[str, Tuple[Tuple[int, int], "FlowStore"]] = {}
_OPEN_LOCK = threading.Lock()


def open_cached(root: PathLike) -> FlowStore:
    """Open ``root`` through the per-process verified-open cache.

    Keyed by the manifest file's ``(mtime_ns, size)`` identity, so a
    store rewritten between queries is reopened (and re-verified)
    rather than served from a stale manifest, while repeat opens of an
    unchanged store reuse the parsed manifest *and* its verified
    sidecar cache.  This is what shard-scan workers call: the first
    shard a worker sees pays the manifest parse, every later shard is
    a dictionary hit.
    """
    path = Path(root)
    key = str(path)
    try:
        stat = (path / _MANIFEST).stat()
        identity = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        identity = (0, 0)
    with _OPEN_LOCK:
        cached = _OPEN_STORES.get(key)
        if cached is not None and cached[0] == identity:
            return cached[1]
    store = FlowStore(path)
    with _OPEN_LOCK:
        _OPEN_STORES[key] = (identity, store)
    return store
