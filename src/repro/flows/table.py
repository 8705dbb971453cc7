"""Columnar flow table.

Every analysis in the reproduction consumes a :class:`FlowTable`: a
struct-of-arrays container for flow summaries, backed by numpy.  The
traces at the paper's vantage points contain billions of flows (5.2 B at
the EDU network alone), which rules out per-record Python objects for
anything but construction and debugging.

The table is immutable by convention: all operations return new tables
(views where possible) and never modify columns in place.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.flows import groupby
from repro.flows.groupby import GroupIndex
from repro.flows.record import (
    PROTO_ESP,
    PROTO_GRE,
    PROTO_ICMP,
    FlowRecord,
    proto_name,
)

#: Column names and dtypes, in canonical order.
COLUMNS: Mapping[str, np.dtype] = {
    "hour": np.dtype(np.int64),
    "src_ip": np.dtype(np.uint32),
    "dst_ip": np.dtype(np.uint32),
    "src_asn": np.dtype(np.int64),
    "dst_asn": np.dtype(np.int64),
    "proto": np.dtype(np.int16),
    "src_port": np.dtype(np.int32),
    "dst_port": np.dtype(np.int32),
    "n_bytes": np.dtype(np.int64),
    "n_packets": np.dtype(np.int64),
    "connections": np.dtype(np.int64),
}

#: Derived group-by keys the table knows how to compute from its
#: columns (in addition to the columns themselves).
DERIVED_KEYS = ("service_port", "transport")

#: Base columns each derived key is computed from.  The columnar store
#: uses this to expand a projected derived key into the physical
#: segments it must load.
DERIVED_BASE_COLUMNS: Mapping[str, Tuple[str, ...]] = {
    "service_port": ("proto", "src_port", "dst_port"),
    "transport": ("proto", "src_port", "dst_port"),
}

#: Radix packing (proto, service port) into one integer transport key.
_PORT_RADIX = 65536


def compute_service_port(
    proto: np.ndarray, src_port: np.ndarray, dst_port: np.ndarray
) -> np.ndarray:
    """Per-row service port from the raw port/protocol columns.

    The service sits on whichever side carries a non-ephemeral port
    (below 49152); when both or neither side is below the boundary the
    destination port is used, and port-less protocols report zero.
    Shared by :class:`FlowTable` and the columnar partition reader so
    derived keys are identical on every scan path.
    """
    src = np.asarray(src_port).astype(np.int64)
    dst = np.asarray(dst_port).astype(np.int64)
    ephemeral = 49152
    service = np.where((src < ephemeral) & (dst >= ephemeral), src, dst)
    portless = np.isin(proto, (PROTO_GRE, PROTO_ESP, PROTO_ICMP))
    return np.where(portless, 0, service)


def compute_transport(
    proto: np.ndarray, service_port: np.ndarray
) -> np.ndarray:
    """Combined ``proto * 65536 + service_port`` transport key array."""
    return np.asarray(proto).astype(np.int64) * _PORT_RADIX + service_port


def transport_label(key: int) -> str:
    """``PROTO/port`` label for one combined transport key.

    The inverse presentation of the ``transport`` derived key
    (``proto * 65536 + service_port``); port-less protocols render as
    the bare protocol name.  Shared by the table's label formatting and
    the query layer, which returns raw transport keys in result rows.
    """
    proto = int(key) // _PORT_RADIX
    port = int(key) % _PORT_RADIX
    if proto in (PROTO_GRE, PROTO_ESP, PROTO_ICMP):
        return proto_name(proto)
    return f"{proto_name(proto)}/{port}"


class FlowTable:
    """A columnar collection of flow summaries.

    Construct with :meth:`from_arrays` (generator / IO paths) or
    :meth:`from_records` (tests and examples).
    """

    __slots__ = ("_cols", "_derived", "_indexes")

    def __init__(self, columns: Dict[str, np.ndarray]):
        missing = set(COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"missing flow columns: {sorted(missing)}")
        extra = set(columns) - set(COLUMNS)
        if extra:
            raise ValueError(f"unknown flow columns: {sorted(extra)}")
        length = None
        cols: Dict[str, np.ndarray] = {}
        for name, dtype in COLUMNS.items():
            col = np.asarray(columns[name], dtype=dtype)
            if col.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = col.shape[0]
            elif col.shape[0] != length:
                raise ValueError(
                    f"column {name!r} has length {col.shape[0]}, "
                    f"expected {length}"
                )
            cols[name] = col
        self._cols = cols
        # Lazily memoized derived key arrays and group indexes.  The
        # table is immutable by convention, so both caches are valid
        # for its whole lifetime; ``dict.setdefault`` keeps concurrent
        # builds safe (worst case the race wastes one computation).
        self._derived: Dict[str, np.ndarray] = {}
        self._indexes: Dict[str, GroupIndex] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "FlowTable":
        """A table with zero flows."""
        return cls({name: np.empty(0, dtype=dt) for name, dt in COLUMNS.items()})

    @classmethod
    def from_arrays(cls, **columns: np.ndarray) -> "FlowTable":
        """Build a table from keyword column arrays.

        ``connections`` defaults to one per flow if omitted.
        """
        if not columns:
            return cls.empty()
        if "connections" not in columns:
            any_col = next(iter(columns.values()))
            columns["connections"] = np.ones(len(any_col), dtype=np.int64)
        return cls(dict(columns))

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowTable":
        """Build a table from an iterable of :class:`FlowRecord`."""
        records = list(records)
        columns = {
            name: np.fromiter(
                (getattr(r, name) for r in records),
                dtype=dtype,
                count=len(records),
            )
            for name, dtype in COLUMNS.items()
        }
        return cls(columns)

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> "FlowTable":
        """Concatenate tables in order."""
        if not tables:
            return cls.empty()
        columns = {
            name: np.concatenate([t._cols[name] for t in tables])
            for name in COLUMNS
        }
        result = cls(columns)
        registry = obs.get_registry()
        registry.counter("table.concats").inc()
        registry.counter("table.concat-rows").inc(len(result))
        return result

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return self._cols["hour"].shape[0]

    def __iter__(self) -> Iterator[FlowRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def __repr__(self) -> str:
        return f"FlowTable(n_flows={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return all(
            np.array_equal(self._cols[name], other._cols[name])
            for name in COLUMNS
        )

    def record(self, index: int) -> FlowRecord:
        """Materialize row ``index`` as a :class:`FlowRecord`."""
        return FlowRecord(
            **{name: int(self._cols[name][index]) for name in COLUMNS}
        )

    def column(self, name: str) -> np.ndarray:
        """Read-only view of a column array."""
        col = self._cols[name].view()
        col.flags.writeable = False
        return col

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """All columns (read-only views), keyed by name."""
        return {name: self.column(name) for name in COLUMNS}

    @property
    def nbytes(self) -> int:
        """Resident memory of the column arrays (cache accounting)."""
        return sum(col.nbytes for col in self._cols.values())

    # -- selection ---------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "FlowTable":
        """Select rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape[0] != len(self):
            raise ValueError("mask must be a boolean array of table length")
        result = FlowTable(
            {name: col[mask] for name, col in self._cols.items()}
        )
        registry = obs.get_registry()
        registry.counter("table.filters").inc()
        registry.counter("table.filter-rows-in").inc(len(self))
        registry.counter("table.filter-rows-out").inc(len(result))
        return result

    def take(self, indices: np.ndarray) -> "FlowTable":
        """The rows at integer ``indices``, in that order."""
        return FlowTable({name: col[indices] for name, col in self._cols.items()})

    def where(self, **conditions: object) -> "FlowTable":
        """Select rows matching equality/membership conditions per column.

        Scalar values test equality; sequences/sets test membership::

            table.where(proto=17, dst_port=[443, 4500])
        """
        for name in conditions:
            if name not in self._cols:
                raise KeyError(f"unknown column: {name!r}")
        mask = np.ones(len(self), dtype=bool)
        for name, wanted in conditions.items():
            col = self._cols[name]
            if isinstance(wanted, (set, frozenset, list, tuple, np.ndarray)):
                values = np.asarray(sorted(wanted) if isinstance(
                    wanted, (set, frozenset)) else list(wanted))
                mask &= np.isin(col, values)
            else:
                mask &= col == wanted
            if not mask.any():
                # No row can match anymore; skip the remaining columns.
                break
        return self.filter(mask)

    def between_hours(self, start: int, stop: int) -> "FlowTable":
        """Select flows with ``start <= hour < stop``."""
        hours = self._cols["hour"]
        return self.filter((hours >= start) & (hours < stop))

    # -- group indexes -----------------------------------------------------

    def key_array(self, key: str) -> np.ndarray:
        """The integer key array for ``key``: a column or a derived key.

        Derived keys (``service_port``, ``transport``) are computed once
        and memoized.
        """
        if key in COLUMNS:
            return self._cols[key]
        arr = self._derived.get(key)
        if arr is not None:
            return arr
        if key == "service_port":
            arr = self._compute_service_ports()
        elif key == "transport":
            arr = compute_transport(
                self._cols["proto"], self.key_array("service_port")
            )
        else:
            raise KeyError(
                f"unknown group key {key!r}; columns are {sorted(COLUMNS)} "
                f"and derived keys are {DERIVED_KEYS}"
            )
        arr.flags.writeable = False
        return self._derived.setdefault(key, arr)

    def group_index(self, key: str) -> GroupIndex:
        """The memoized :class:`~repro.flows.groupby.GroupIndex` for ``key``.

        Computed on first use and reused by every aggregation over the
        same key — the engine behind :meth:`bytes_by`,
        :meth:`connections_by`, :meth:`bytes_by_transport_key`,
        :meth:`hourly_bytes`, and :meth:`unique_ips_per_hour`.
        """
        index = self._indexes.get(key)
        if index is not None:
            groupby.record_reuse()
            return index
        index = GroupIndex.from_values(self.key_array(key))
        groupby.record_build(key, len(self))
        return self._indexes.setdefault(key, index)

    def _pair_index(self, left: str, right: str) -> Tuple[GroupIndex, int]:
        """Memoized composed index over the ``(left, right)`` pair key."""
        name = f"{left}×{right}"
        index = self._indexes.get(name)
        radix = max(self.group_index(right).n_groups, 1)
        if index is not None:
            groupby.record_reuse()
            return index, radix
        index, radix = self.group_index(left).compose(self.group_index(right))
        groupby.record_build(name, len(self))
        return self._indexes.setdefault(name, index), radix

    def _grouped_sums(
        self, key: str, value_column: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted unique keys and exact per-group sums of a column."""
        index = self.group_index(key)
        return index.values, index.sum(self._cols[value_column])

    # -- aggregation -------------------------------------------------------

    def total_bytes(self) -> int:
        """Sum of the byte counters."""
        return int(self._cols["n_bytes"].sum())

    def total_connections(self) -> int:
        """Sum of the connection counters."""
        return int(self._cols["connections"].sum())

    def hourly_bytes(self, start: int, stop: int) -> np.ndarray:
        """Byte volume per hourly bin over ``[start, stop)``.

        Returns an array of length ``stop - start``; hours with no flows
        are zero.
        """
        return self._bin_by_hour("n_bytes", start, stop)

    def hourly_connections(self, start: int, stop: int) -> np.ndarray:
        """Connection count per hourly bin over ``[start, stop)``."""
        return self._bin_by_hour("connections", start, stop)

    def _bin_by_hour(self, value_col: str, start: int, stop: int) -> np.ndarray:
        """Exact per-hour sums of ``value_col`` over ``[start, stop)``.

        Groups once over the full hour column (the index is shared by
        every range) and scatters the in-range group sums into the
        requested window.  Integer-exact: the old float64
        ``np.bincount`` weights rounded totals above 2**53.
        """
        if stop <= start:
            raise ValueError("stop must be greater than start")
        hours, sums = self._grouped_sums("hour", value_col)
        out = np.zeros(stop - start, dtype=np.int64)
        in_range = (hours >= start) & (hours < stop)
        out[hours[in_range] - start] = sums[in_range]
        return out

    def bytes_by(self, key_column: str) -> Dict[int, int]:
        """Total bytes grouped by the values of ``key_column``."""
        uniq, sums = self._grouped_sums(key_column, "n_bytes")
        return {int(k): int(v) for k, v in zip(uniq, sums)}

    def connections_by(self, key_column: str) -> Dict[int, int]:
        """Total connections grouped by the values of ``key_column``."""
        uniq, sums = self._grouped_sums(key_column, "connections")
        return {int(k): int(v) for k, v in zip(uniq, sums)}

    def unique_ips(self, side: str = "src") -> int:
        """Number of distinct addresses on one side (``"src"``/``"dst"``)."""
        if side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        return int(np.unique(self._cols[f"{side}_ip"]).shape[0])

    def unique_ips_per_hour(
        self, start: int, stop: int, side: str = "src"
    ) -> np.ndarray:
        """Distinct addresses per hourly bin over ``[start, stop)``."""
        if side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        # One distinct (hour, ip) pair per composed group; the pair
        # index is shared across ranges and with other aggregations
        # over the same columns.
        pair, radix = self._pair_index("hour", f"{side}_ip")
        hour_codes = (pair.values // radix).astype(np.intp)
        pair_hours = self.group_index("hour").values[hour_codes]
        in_range = (pair_hours >= start) & (pair_hours < stop)
        return np.bincount(
            pair_hours[in_range] - start, minlength=stop - start
        ).astype(np.int64)

    # -- transport keys ----------------------------------------------------

    def _compute_service_ports(self) -> np.ndarray:
        return compute_service_port(
            self._cols["proto"], self._cols["src_port"],
            self._cols["dst_port"],
        )

    def service_ports(self) -> np.ndarray:
        """Per-row service port: the well-known side of the flow.

        Flow exporters record ports on both sides; the service sits on
        whichever side carries a non-ephemeral port (below 49152).  When
        both or neither side is below the boundary, the destination port
        is used.  Port-less protocols report zero.  The array is
        computed once per table and returned read-only.
        """
        return self.key_array("service_port")

    @staticmethod
    def _transport_labels(transport_keys: np.ndarray) -> np.ndarray:
        """``PROTO/port`` labels for unique combined transport keys."""
        labels = np.empty(len(transport_keys), dtype=object)
        for j, key in enumerate(transport_keys):
            labels[j] = transport_label(key)
        return labels

    def transport_keys(self) -> np.ndarray:
        """Per-row ``PROTO/port`` labels (Fig 7 legend convention).

        Groups on the combined (proto, service port) integer key and
        formats one label per distinct key, so the Python-level string
        work is O(unique keys) rather than O(rows).
        """
        index = self.group_index("transport")
        return self._transport_labels(index.values)[index.codes]

    def bytes_by_transport_key(self) -> Dict[str, int]:
        """Total bytes per ``PROTO/port`` label, efficiently.

        Avoids materializing per-row label strings by grouping on the
        combined (proto, service port) integer key first; the grouping
        itself reuses the memoized transport index.
        """
        uniq, sums = self._grouped_sums("transport", "n_bytes")
        labels = self._transport_labels(uniq)
        result: Dict[str, int] = {}
        for label, total in zip(labels, sums):
            result[label] = result.get(label, 0) + int(total)
        return result

    def top_transport_keys(self, n: int) -> List[Tuple[str, int]]:
        """The ``n`` highest-volume transport keys, descending by bytes."""
        by_key = self.bytes_by_transport_key()
        ranked = sorted(by_key.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    # -- sorting and persistence helpers ------------------------------------

    def sort_by_hour(self) -> "FlowTable":
        """Rows ordered by time bin (stable)."""
        return self.take(np.argsort(self._cols["hour"], kind="stable"))

    def head(self, n: int) -> "FlowTable":
        """The first ``n`` rows."""
        return FlowTable({name: col[:n] for name, col in self._cols.items()})

    def sample(self, n: int, seed: int = 0) -> "FlowTable":
        """A uniform random sample of ``n`` rows (without replacement).

        When ``n`` covers the whole table the result is a *copy* with
        its own column arrays — never an alias of ``self`` — so callers
        can rely on the sample being independent of the source table.
        """
        if n >= len(self):
            return FlowTable(
                {name: col.copy() for name, col in self._cols.items()}
            )
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=n, replace=False)
        idx.sort()
        return self.take(idx)
