"""Partitioned on-disk flow store.

Vantage-point captures span months (the EDU capture alone is 71 days);
analyses usually touch a handful of named weeks.  ``FlowStore`` keeps a
directory of per-day partitions plus a JSON manifest, so date-range
queries load only the partitions they need.

Every partition is one directory per day in the columnar v3 format
(see :mod:`repro.flows.colstore`): a single ``segments.bin`` of
per-column *encoded* parts (dictionary / delta+bit-pack / raw),
described by a sidecar.  Scans decode only the columns a query
references.

Writes are append-only at day granularity; re-writing a day replaces
its partition atomically (build under a temp name, then rename).

Every partition's manifest entry records ``"format": 3`` and the
SHA-256 of its sidecar, which in turn records per-part hashes.  Reads
verify the chain, so a truncated or corrupted partition raises a
:class:`FlowStoreError` instead of surfacing as a numpy internal error
(or, worse, as silently wrong data); the query planner turns that into
a per-partition failure rather than a crashed query.  An entry in any
other format (a store sealed by an older version) fails the same way:
stores are derived data, rebuilt with ``repro generate --store``.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import shutil
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro import timebase
from repro.flows import colstore
from repro.flows.colstore import FORMAT_V3, FlowStoreError
from repro.flows.table import FlowTable

__all__ = [
    "FORMAT_V3",
    "FlowStore",
    "FlowStoreError",
    "open_cached",
]

PathLike = Union[str, Path]

_MANIFEST = "manifest.json"


class FlowStore:
    """A date-partitioned flow archive under one directory."""

    def __init__(self, root: PathLike):
        """Open (or create) a store."""
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
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

    def state_token(self) -> str:
        """Hex digest identifying the store's current contents.

        Derived from the manifest (day set, flow/byte totals, formats,
        and the per-partition checksums), so any write, delete, or
        re-write changes it.  The query service keys its result cache
        on ``(query fingerprint, state token)`` — a mutated store can
        never serve stale cached results.

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

    def column_stats(
        self,
    ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, str]]:
        """Per-column storage stats aggregated over readable partitions.

        Returns ``(columns, unreadable)``.  ``columns`` maps column name
        to summed raw vs. stored bytes, the set of encodings chosen
        across partitions and the largest dictionary cardinality seen.
        ``unreadable`` maps each day whose partition cannot be opened
        (corrupt or missing sidecar, an old format) to its error; those
        days are not in the totals.  Backs ``repro store stats``.
        """
        totals: Dict[str, Dict[str, object]] = {}
        unreadable: Dict[str, str] = {}
        for day in self.days():
            try:
                partition = self.open_partition(day)
            except FlowStoreError as exc:
                unreadable[day.isoformat()] = str(exc)
                continue
            for name, stat in partition.encoding_stats().items():
                entry = totals.setdefault(name, {
                    "raw_nbytes": 0,
                    "stored_nbytes": 0,
                    "encodings": set(),
                    "max_cardinality": None,
                })
                entry["raw_nbytes"] += int(stat["raw_nbytes"])
                entry["stored_nbytes"] += int(stat["stored_nbytes"])
                entry["encodings"].add(str(stat["encoding"]))
                card = stat.get("cardinality")
                if card is not None:
                    prev = entry["max_cardinality"]
                    entry["max_cardinality"] = (
                        int(card) if prev is None else max(prev, int(card))
                    )
        for entry in totals.values():
            entry["encodings"] = sorted(entry["encodings"])
        return totals, unreadable

    def total_flows(self) -> int:
        """Flow records across all partitions (from the manifest)."""
        return sum(int(e["flows"]) for e in self._manifest.values())

    def total_bytes(self) -> int:
        """Traffic bytes across all partitions (from the manifest)."""
        return sum(int(e["bytes"]) for e in self._manifest.values())

    # -- writes -----------------------------------------------------------------

    def write_day(self, day: _dt.date, flows: FlowTable) -> None:
        """Store one day's flows, replacing any existing partition.

        Every flow must fall inside ``day``'s 24 hourly bins; mixing
        days in one partition would silently corrupt range queries.
        """
        start = timebase.hour_index(day, 0)
        hours = flows.column("hour")
        if len(flows) and (
            int(hours.min()) < start or int(hours.max()) >= start + 24
        ):
            raise ValueError(
                f"flows outside {day} cannot go into its partition"
            )
        self.write_range(flows, day, day)

    def write_range(
        self, flows: FlowTable, start_day: _dt.date, end_day: _dt.date,
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
                    self._write_partition(seal, i, day)
            finally:
                self._save_manifest()
        return n_days

    def _write_partition(self, seal: colstore.RangeSeal, i: int,
                         day: _dt.date) -> None:
        """Write ``seal``'s day ``i`` and list it in the in-memory manifest."""
        _, checksum = seal.write(i, self._partition_dir(day))
        entry: Dict[str, object] = {
            "flows": seal.rows(i),
            "bytes": seal.total_bytes(i),
            "sha256": checksum,
            "format": FORMAT_V3,
        }
        key = day.isoformat()
        self._manifest[key] = entry
        self._changed(key)

    def delete_day(self, day: _dt.date) -> None:
        """Remove a day's partition; missing days are a no-op."""
        key = day.isoformat()
        if key not in self._manifest:
            return
        directory = self._partition_dir(day)
        if directory.exists():
            shutil.rmtree(directory)
        del self._manifest[key]
        self._changed(key)
        self._save_manifest()

    # -- reads ---------------------------------------------------------------------

    def _entry(self, day: _dt.date) -> Dict[str, object]:
        if day not in self:
            raise KeyError(f"no partition for {day}")
        return self._manifest[day.isoformat()]

    def open_partition(self, day: _dt.date) -> colstore.ColumnarPartition:
        """A :class:`~repro.flows.colstore.ColumnarPartition` handle.

        The sidecar is verified against the manifest hash and the
        *handle* is cached per ``(day, sha)``, so repeated queries pay
        one JSON parse and keep one ``segments.bin`` mapping open
        instead of re-mmapping per scan.  Rewriting a day changes its
        manifest sha, which drops the stale handle.  Raises ``KeyError``
        for a day without a manifest entry and :class:`FlowStoreError`
        for one that cannot be served — including an entry whose
        ``format`` is missing (as v1 wrote it) or is not 3.
        """
        entry = self._entry(day)
        key = day.isoformat()
        if entry.get("format") != FORMAT_V3:
            found = (
                f"format {entry['format']!r}" if "format" in entry
                else "no format (a v1 archive)"
            )
            raise FlowStoreError(
                f"partition for {key} has {found}, not format "
                f"{FORMAT_V3}; {colstore.REBUILD_HINT}"
            )
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

    def read_day(self, day: _dt.date) -> FlowTable:
        """Load one day's partition, verifying its content checksums.

        Raises ``KeyError`` if the day has no manifest entry and
        :class:`FlowStoreError` if the partition is missing, fails a
        checksum, cannot be parsed, or is not in the v3 format.
        """
        return self.open_partition(day).table()

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
