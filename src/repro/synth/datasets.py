"""Dataset materialization: keyed requests and a shared cache.

Experiments do not call the synthesizers directly for their heavyweight
inputs; they *declare* what they need as :class:`DatasetRequest` values
(vantage, date range, fidelity, profile subset, extras) and fetch them
through the active :class:`DatasetCache`.  Because requests are plain
hashable keys derived only from deterministic inputs, the cache can
memoize the expensive materializations — the EDU capture shared by
Figs 11/12, the ISP-CE/IXP-CE analysis weeks shared by Figs 7/9/10,
the per-member link utilizations shared by Fig 5 and §9 — so one
``run_all`` generates each of them exactly once.

Three request kinds are understood:

* ``flows`` — :meth:`repro.synth.vantage.VantagePoint.generate_flows`
  over an inclusive date range,
* ``remote-work`` — :meth:`repro.synth.scenario.Scenario.generate_remote_work_flows`
  for one analysis week (Fig 6),
* ``link-util`` — :func:`repro.synth.linkutil.member_day_utilization`
  for one IXP member roster and day (Fig 5, §9).

The cache has two tiers.  The **memory tier** memoizes materialized
objects for the life of the process.  The optional **disk tier**
(``DatasetCache(cache_dir=...)``, ``lockdown-effect run --cache-dir``)
persists each entry as one ``.npz`` archive under the cache directory,
keyed by the request, the scenario fingerprint, and a format version —
so a second process (or a second day of iterating on the same analysis
weeks) skips flow generation entirely.  Disk writes are atomic
(temp file + rename); loads are corruption-tolerant: an unreadable,
truncated, or version-mismatched archive counts as a disk miss and is
regenerated and rewritten in place.

Besides datasets, the memory tier keeps scenario-derived memos
(:meth:`DatasetCache.memo`; Fig 10's VPN candidates), never
flow-derived analysis output.  The query engine's parity with the
batch analyses of Figs 7/8 is a tier-1 test
(``tests/test_figures_pass.py``), not a figures-pass check.

Cache hits, misses, bypasses, resident bytes, and the disk tier's
``disk-{hits,misses,writes,bytes}`` flow into the :mod:`repro.obs`
registry under ``dataset-cache.*``.  The cache is thread-safe:
concurrent fetches of the same key materialize once, which is what
lets the parallel executor share it across workers.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import threading
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, Optional, Tuple, TypeVar, Union,
)

import numpy as np

import repro.obs as obs
from repro import timebase

#: Extra request parameters as a hashable (name, value) tuple.
Params = Tuple[Tuple[str, object], ...]

#: Request kinds the cache knows how to materialize.
KINDS = ("flows", "remote-work", "link-util")

#: Version of the on-disk archive layout.  Bumping it invalidates every
#: previously written archive (the version is part of the entry key).
#: v2: scenario fingerprints became canonical ScenarioSpec sha256s.
DISK_FORMAT = 2

PathLike = Union[str, Path]

T = TypeVar("T")


@dataclass(frozen=True)
class DatasetRequest:
    """One keyed, deterministic data requirement of an experiment.

    Equality *is* cache identity: two requests with the same fields
    (on scenarios with the same fingerprint) materialize to identical
    data, so everything in the key must be a deterministic input of the
    synthesizer — never a derived object.
    """

    kind: str
    vantage: str
    start: _dt.date
    end: _dt.date
    fidelity: float = 1.0
    profiles: Tuple[str, ...] = ()
    params: Params = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown dataset kind {self.kind!r}; have {KINDS}"
            )
        if self.end < self.start:
            raise ValueError("dataset range end precedes start")

    def param(self, name: str, default: object = None) -> object:
        """Look up one extra parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        """Short human-readable form (span names, logs)."""
        extra = f"@{self.fidelity:g}" if self.kind == "flows" else ""
        return f"{self.kind}/{self.vantage}/{self.start}..{self.end}{extra}"


def flows_request(
    vantage: str,
    start: _dt.date,
    end: _dt.date,
    fidelity: float = 1.0,
    profiles: Optional[Iterable[str]] = None,
) -> DatasetRequest:
    """A flow-table request over an inclusive date range."""
    return DatasetRequest(
        kind="flows",
        vantage=vantage,
        start=start,
        end=end,
        fidelity=float(fidelity),
        profiles=tuple(sorted(profiles)) if profiles is not None else (),
    )


def week_flows_request(
    vantage: str,
    week: timebase.Week,
    fidelity: float = 1.0,
    profiles: Optional[Iterable[str]] = None,
) -> DatasetRequest:
    """A flow-table request for one named analysis week."""
    return flows_request(vantage, week.start, week.end, fidelity, profiles)


def remote_work_request(
    week: timebase.Week, lockdown_active: bool
) -> DatasetRequest:
    """An enterprise remote-work flow request (Fig 6)."""
    return DatasetRequest(
        kind="remote-work",
        vantage="isp-ce",
        start=week.start,
        end=week.end,
        params=(("label", week.label), ("lockdown", bool(lockdown_active))),
    )


def link_util_request(
    ixp: str,
    day: _dt.date,
    growth: float,
    shape_name: str = "workday",
    seed_offset: int = 51,
) -> DatasetRequest:
    """A per-member day-utilization request (Fig 5, §9).

    ``growth`` is the vantage-level traffic multiplier for ``day``; it
    is part of the key, so it must be derived deterministically (it is:
    from the intensity model).
    """
    return DatasetRequest(
        kind="link-util",
        vantage=ixp,
        start=day,
        end=day,
        params=(
            ("growth", float(growth)),
            ("shape", shape_name),
            ("seed-offset", int(seed_offset)),
        ),
    )


def _scenario_fingerprint(scenario) -> str:
    """Deterministic identity of a scenario's synthetic world.

    Spec-built scenarios expose their
    :class:`~repro.synth.spec.ScenarioSpec`'s canonical sha256 (seed,
    populations, region timelines, events, vantage overrides); flows
    from two scenarios with the same fingerprint are bit-identical, so
    they may share cache entries — which lets one
    :class:`DatasetCache` serve a whole experiment grid without
    collisions.
    """
    fingerprint = getattr(scenario, "fingerprint", None)
    if fingerprint is not None:
        return str(fingerprint)
    return f"legacy/{scenario.seed}/{len(scenario.registry.all_asns())}"


def _materialize(scenario, request: DatasetRequest):
    """Generate the data behind one request (cache miss path)."""
    if request.kind == "flows":
        vantage = scenario.vantage(request.vantage)
        return vantage.generate_flows(
            request.start,
            request.end,
            fidelity=request.fidelity,
            profiles=request.profiles or None,
        )
    if request.kind == "remote-work":
        week = timebase.Week(request.start, str(request.param("label", "")))
        return scenario.generate_remote_work_flows(
            week, bool(request.param("lockdown", False))
        )
    if request.kind == "link-util":
        from repro.synth import linkutil as linkutil_synth

        members = scenario.members[request.vantage]
        return linkutil_synth.member_day_utilization(
            members,
            request.start,
            float(request.param("growth", 1.0)),
            seed=scenario.seed + int(request.param("seed-offset", 51)),
            shape_name=str(request.param("shape", "workday")),
        )
    raise ValueError(f"unknown dataset kind {request.kind!r}")


def _sizeof(value) -> int:
    """Approximate resident bytes of a materialized dataset."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, dict):
        return sum(
            int(getattr(v, "nbytes", 0)) for v in value.values()
        )
    return 0


# -- disk-tier serialization ------------------------------------------------

_COL_PREFIX = "col/"
_MEMBER_PREFIX = "member/"

#: Archive member holding the entry's identity token.
_TOKEN_KEY = "__token__"


def entry_token(fingerprint: str, request: DatasetRequest) -> str:
    """Canonical identity string of one disk-cache entry.

    Everything that determines the materialized bytes is in here — the
    archive format version, the scenario fingerprint, and every request
    field — so the token doubles as the hash input for the file name
    *and* as the verification record stored inside the archive (a stale
    or colliding file whose recorded token differs is simply a miss).
    """
    return json.dumps(
        {
            "format": DISK_FORMAT,
            "fingerprint": fingerprint,
            "kind": request.kind,
            "vantage": request.vantage,
            "start": request.start.isoformat(),
            "end": request.end.isoformat(),
            "fidelity": request.fidelity,
            "profiles": list(request.profiles),
            "params": [[name, value] for name, value in request.params],
        },
        sort_keys=True,
    )


def _disk_arrays(value) -> Dict[str, np.ndarray]:
    """Flatten a materialized dataset into named arrays for ``np.savez``."""
    from repro.flows.table import COLUMNS, FlowTable

    if isinstance(value, FlowTable):
        return {
            f"{_COL_PREFIX}{name}": value.column(name) for name in COLUMNS
        }
    if isinstance(value, dict):
        return {
            f"{_MEMBER_PREFIX}{int(member)}": np.asarray(series)
            for member, series in value.items()
        }
    raise TypeError(
        f"cannot persist dataset of type {type(value).__name__}"
    )


def _rebuild_from_arrays(kind: str, arrays: Dict[str, np.ndarray]):
    """Inverse of :func:`_disk_arrays` for one request kind."""
    from repro.flows.table import FlowTable

    if kind in ("flows", "remote-work"):
        columns = {
            name[len(_COL_PREFIX):]: arr
            for name, arr in arrays.items()
            if name.startswith(_COL_PREFIX)
        }
        return FlowTable(columns)  # validates missing/extra columns
    if kind == "link-util":
        return {
            int(name[len(_MEMBER_PREFIX):]): arr
            for name, arr in arrays.items()
            if name.startswith(_MEMBER_PREFIX)
        }
    raise ValueError(f"unknown dataset kind {kind!r}")


@dataclass
class CacheStats:
    """Counters describing one cache's lifetime activity.

    ``hits`` and ``misses`` describe the memory tier (``misses`` counts
    actual materializations).  The ``disk_*`` counters describe
    the optional disk tier: a ``disk_hit`` serves a fetch from an
    archive without materializing; a ``disk_miss`` is a fetch that had
    to materialize despite a configured disk tier (absent, corrupt, or
    version-mismatched archive).
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    entries: int = 0
    resident_bytes: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    disk_bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        base = {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "entries": self.entries,
            "resident_bytes": self.resident_bytes,
        }
        if self.disk_hits or self.disk_misses or self.disk_writes:
            base.update(
                disk_hits=self.disk_hits,
                disk_misses=self.disk_misses,
                disk_writes=self.disk_writes,
                disk_bytes=self.disk_bytes,
            )
        return base


class DatasetCache:
    """Memoizes dataset materializations, keyed by request.

    ``enabled=False`` turns the cache into a pass-through that still
    counts traffic (as bypasses) — useful for A/B timing and for the
    equivalence tests.  Fetches are thread-safe, and concurrent misses
    on the same key materialize exactly once (per-key locks).

    ``cache_dir`` adds the persistent disk tier: memory misses probe
    one ``.npz`` archive per entry before materializing, and every
    materialization is written back (atomic temp-file + rename, so
    concurrent processes sharing the directory never observe a torn
    archive).  The disk tier only serves the enabled cache — a
    pass-through cache never touches it — and :meth:`clear` drops the
    memory tier only.
    """

    def __init__(
        self, enabled: bool = True, cache_dir: Optional[PathLike] = None
    ):
        self.enabled = enabled
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: Dict[tuple, object] = {}
        self._memos: Dict[Tuple[str, str], object] = {}
        self._lock = threading.Lock()
        self._key_locks: Dict[tuple, threading.Lock] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, scenario, request: DatasetRequest) -> tuple:
        return (_scenario_fingerprint(scenario), request)

    def _record_hit(self) -> None:
        with self._lock:
            self.stats.hits += 1
        obs.get_registry().counter("dataset-cache.hits").inc()

    # -- disk tier ---------------------------------------------------------

    def entry_path(
        self, scenario, request: DatasetRequest
    ) -> Optional[Path]:
        """Where the disk tier stores (or would store) one entry.

        The file name carries the kind and vantage for humans and a
        hash of the full :func:`entry_token` for identity; the token
        itself is also recorded inside the archive and verified on
        load, so hash collisions and stale files degrade to misses.
        """
        if self.cache_dir is None:
            return None
        token = entry_token(_scenario_fingerprint(scenario), request)
        digest = hashlib.sha256(token.encode("utf-8")).hexdigest()[:20]
        name = f"{request.kind}-{request.vantage}-{digest}.npz"
        return self.cache_dir / name

    def _disk_load(self, path: Path, token: str, kind: str):
        """The entry stored at ``path``, or ``None`` on any defect.

        Missing file, truncated or corrupt archive, wrong/absent
        token (format-version bump, fingerprint change, hash
        collision), and rebuild failures all count as one disk miss —
        the caller regenerates and rewrites in place.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                if _TOKEN_KEY not in archive.files:
                    return None
                if str(archive[_TOKEN_KEY][()]) != token:
                    return None
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name != _TOKEN_KEY
                }
            return _rebuild_from_arrays(kind, arrays)
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile):
            return None

    def _disk_store(self, path: Path, token: str, value) -> int:
        """Atomically persist ``value`` at ``path``; bytes written.

        A failed write (read-only directory, disk full) is not an
        error — the run simply proceeds without the disk entry.
        """
        arrays = _disk_arrays(value)
        arrays[_TOKEN_KEY] = np.array(token)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
            return int(path.stat().st_size)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return 0

    def fetch(self, scenario, request: DatasetRequest):
        """The data for ``request``, materializing on first use."""
        if not self.enabled:
            with self._lock:
                self.stats.bypasses += 1
            obs.get_registry().counter("dataset-cache.bypasses").inc()
            return _materialize(scenario, request)
        key = self._key(scenario, request)
        with self._lock:
            if key in self._entries:
                entry = self._entries[key]
                hit = True
            else:
                hit = False
                key_lock = self._key_locks.setdefault(key, threading.Lock())
        if hit:
            self._record_hit()
            return entry
        with key_lock:
            with self._lock:
                if key in self._entries:
                    entry = self._entries[key]
                    hit = True
            if hit:
                self._record_hit()
                return entry
            registry = obs.get_registry()
            value = None
            path = self.entry_path(scenario, request)
            if path is not None:
                token = entry_token(
                    _scenario_fingerprint(scenario), request
                )
                with obs.span(f"dataset-disk/{request.describe()}"):
                    value = self._disk_load(path, token, request.kind)
                if value is not None:
                    with self._lock:
                        self.stats.disk_hits += 1
                    registry.counter("dataset-cache.disk-hits").inc()
                else:
                    with self._lock:
                        self.stats.disk_misses += 1
                    registry.counter("dataset-cache.disk-misses").inc()
            if value is None:
                with obs.span(f"dataset/{request.describe()}"):
                    value = _materialize(scenario, request)
                with self._lock:
                    self.stats.misses += 1
                registry.counter("dataset-cache.misses").inc()
                if path is not None:
                    written = self._disk_store(path, token, value)
                    if written:
                        with self._lock:
                            self.stats.disk_writes += 1
                            self.stats.disk_bytes += written
                        registry.counter("dataset-cache.disk-writes").inc()
                        registry.counter(
                            "dataset-cache.disk-bytes"
                        ).inc(written)
            nbytes = _sizeof(value)
            with self._lock:
                self._entries[key] = value
                self.stats.entries = len(self._entries)
                self.stats.resident_bytes += nbytes
            registry.counter("dataset-cache.bytes").inc(nbytes)
            registry.gauge("dataset-cache.entries").set(len(self._entries))
            return value

    def fetch_many(self, scenario, requests: Iterable[DatasetRequest]) -> list:
        """Fetch several requests in order."""
        return [self.fetch(scenario, request) for request in requests]

    def memo(self, scenario, name: str, build: Callable[[], T]) -> T:
        """``build()``, computed once per scenario fingerprint and ``name``.

        For immutable values derived from the scenario alone (Fig 10's
        VPN candidates, mined from the domain corpus), never from flows
        or analysis results.  Memory tier only: the disk tier stores no
        memo, a fresh cache builds again, and a pass-through cache
        (``enabled=False``) builds on every call.
        """
        if not self.enabled:
            return build()
        key = (_scenario_fingerprint(scenario), name)
        with self._lock:
            if key in self._memos:
                return self._memos[key]
        value = build()
        with self._lock:
            return self._memos.setdefault(key, value)

    def clear(self) -> None:
        """Drop every entry and memo (stats are kept)."""
        with self._lock:
            self._memos.clear()
            self._entries.clear()
            self._key_locks.clear()
            self.stats.entries = 0
            self.stats.resident_bytes = 0


#: The cache fetches go through; :func:`use_cache` swaps it temporarily.
_ACTIVE_CACHE = DatasetCache()


def get_cache() -> DatasetCache:
    """The currently active cache (default unless overridden)."""
    return _ACTIVE_CACHE


@contextmanager
def use_cache(cache: DatasetCache) -> Iterator[DatasetCache]:
    """Temporarily make ``cache`` the active cache.

    The active cache is process-global (worker threads spawned inside
    the block inherit it); nesting restores the previous cache on exit.
    """
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    try:
        yield cache
    finally:
        _ACTIVE_CACHE = previous


def fetch(scenario, request: DatasetRequest):
    """Fetch one request through the active cache."""
    return _ACTIVE_CACHE.fetch(scenario, request)


def fetch_many(scenario, requests: Iterable[DatasetRequest]) -> list:
    """Fetch several requests in order through the active cache."""
    return _ACTIVE_CACHE.fetch_many(scenario, requests)


def memo(scenario, name: str, build: Callable[[], T]) -> T:
    """:meth:`DatasetCache.memo` on the active cache."""
    return _ACTIVE_CACHE.memo(scenario, name, build)
