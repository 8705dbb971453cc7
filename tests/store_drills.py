"""Hand-made store damage for the flow-store fault drills.

The store writes only the v3 partition format, so partitions in the
layouts older versions wrote are made here by hand:

* v1 — one compressed ``<day>.npz`` archive per day, and a manifest
  entry with a checksum but no ``format`` key;
* v2 — one directory per day of raw per-column ``.npy`` segments plus a
  ``sidecar.json`` with ``"format": 2``, and a manifest entry with
  ``"format": 2``.

Either takes the place of a day the store already lists.

:func:`add_old_sidecar_keys` gives a v3 day the sidecar keys earlier
v3 writers sealed and the reader no longer uses: an ``indexes`` block
of bitmap indexes and per-value ``values``/``counts`` lists on
dictionary columns.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import shutil
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.flows import colstore
from repro.flows.io import file_sha256, write_npz
from repro.flows.table import COLUMNS, FlowTable

MANIFEST = "manifest.json"


def _edit_manifest(root: Path, edit: Callable[[dict], None]) -> None:
    path = root / MANIFEST
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def age_partition(root: Path, day: dt.date, flows: FlowTable,
                  fmt: Optional[int]) -> None:
    """Replace ``day``'s partition with ``flows`` in an old layout.

    ``fmt=None`` writes a v1 archive and entry, ``fmt=2`` a v2
    directory and entry.  Reopen the store afterwards.
    """
    key = day.isoformat()
    shutil.rmtree(root / key)
    entry = {"flows": len(flows), "bytes": flows.total_bytes()}
    if fmt is None:
        archive = root / f"{key}.npz"
        write_npz(flows, archive)
        entry["sha256"] = file_sha256(archive)
    else:
        directory = root / key
        directory.mkdir()
        columns = {}
        for name in COLUMNS:
            column = flows.column(name)
            np.save(directory / f"{name}.npy", column)
            columns[name] = {
                "sha256": file_sha256(directory / f"{name}.npy"),
                "dtype": column.dtype.str,
                "nbytes": int(column.nbytes),
                "min": int(column.min()) if len(column) else None,
                "max": int(column.max()) if len(column) else None,
            }
        payload = json.dumps(
            {"format": fmt, "rows": len(flows), "columns": columns},
            sort_keys=True,
        ).encode("utf-8")
        (directory / colstore.SIDECAR).write_bytes(payload)
        entry["sha256"] = hashlib.sha256(payload).hexdigest()
        entry["format"] = fmt

    def _replace(manifest: dict) -> None:
        manifest[key] = entry

    _edit_manifest(root, _replace)


def rewrite_sidecar(root: Path, day: dt.date,
                    mutate: Callable[[dict], None]) -> None:
    """Hand-edit one sidecar and re-chain the manifest hash to it.

    Reopen the store afterwards.
    """
    path = root / day.isoformat() / colstore.SIDECAR
    sidecar = json.loads(path.read_text())
    mutate(sidecar)
    path.write_text(json.dumps(sidecar, indent=2, sort_keys=True))

    def _rechain(manifest: dict) -> None:
        manifest[day.isoformat()]["sha256"] = file_sha256(path)

    _edit_manifest(root, _rechain)


def add_old_sidecar_keys(root: Path, day: dt.date) -> None:
    """Put the keys earlier v3 writers sealed back into ``day``'s sidecar.

    Every dictionary column of at most 1024 values gets its sorted
    ``values`` and their ``counts``; each of at most 16 values also gets
    a bitmap index (one packed bit-row per value), appended as a
    checksummed part to ``segments.bin``.  Reopen the store afterwards.
    """
    data_path = root / day.isoformat() / colstore.DATA_FILE
    blob = bytearray(data_path.read_bytes())

    def _mutate(sidecar: dict) -> None:
        indexes = {}
        for name, meta in sidecar["columns"].items():
            if meta.get("encoding") != "dict" or meta["cardinality"] > 1024:
                continue
            codes = _part(blob, meta["parts"]["codes"])
            values = _part(blob, meta["parts"]["values"])
            meta["values"] = values.tolist()
            meta["counts"] = np.bincount(
                codes, minlength=values.size
            ).tolist()
            if values.size > 16 or not codes.size:
                continue
            bitmap = np.packbits(
                codes[None, :] == np.arange(values.size)[:, None], axis=1
            )
            blob.extend(b"\x00" * (-len(blob) % 64))
            offset = len(blob)
            data = bitmap.tobytes()
            blob.extend(data)
            indexes[name] = {
                "kind": "bitmap",
                "cardinality": int(values.size),
                "row_nbytes": int(bitmap.shape[1]),
                "part": {
                    "offset": offset,
                    "nbytes": len(data),
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "dtype": bitmap.dtype.str,
                    "count": int(bitmap.size),
                },
            }
        sidecar["indexes"] = indexes

    rewrite_sidecar(root, day, _mutate)
    data_path.write_bytes(bytes(blob))


def _part(blob: bytearray, meta: dict) -> np.ndarray:
    """One sealed part of ``segments.bin`` as an array."""
    offset = int(meta["offset"])
    return np.frombuffer(
        bytes(blob[offset:offset + int(meta["nbytes"])]),
        dtype=np.dtype(meta["dtype"]),
    )


def flip_byte(path: Path, offset: Optional[int] = None) -> None:
    """Invert one byte of ``path`` (by default the middle one)."""
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2 if offset is None else offset] ^= 0xFF
    path.write_bytes(bytes(payload))
