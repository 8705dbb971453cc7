"""Naive reference answers for query specs, in plain numpy.

The engine answers a :class:`~repro.query.QuerySpec` by planning,
pruning, decoding encoded partitions, grouping per partition and
merging partials.  This module answers the same spec the slow obvious
way — one boolean mask over the generated in-memory ``FlowTable``, one
``np.unique`` group-by, exact int64 segment sums and exact distinct
counts — so the benchmark can tell a fast answer from a right one.

It re-derives the two derived keys (``service_port``, ``transport``)
from the raw port and protocol columns itself instead of calling the
program's helpers, so a bug there cannot cancel out.

Exact aggregates must match bit for bit.  Distinct-count aggregates are
HyperLogLog estimates in the engine; they must lie within
``HLL_SIGMAS`` of the sketch's stated relative standard errors of the
exact count, plus ``HLL_SLACK``.  At small counts the sketch runs in
its linear-counting regime, where register collisions make the error
absolute (one or two) rather than relative; the slack covers that.
Six standard errors keep false alarms negligible across the ~10^5
group comparisons of one benchmark run, while a dropped or doubled
partition still shows in the exact aggregates beside it.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Hours since 2020-01-01 00:00 — the flow tables' time axis.
_EPOCH = _dt.date(2020, 1, 1)

#: Protocols without ports (ICMP, GRE, ESP): their service port is 0.
_PORTLESS = (1, 47, 50)

#: First ephemeral port; the service sits on the other side.
_EPHEMERAL = 49152

#: Tolerance for HyperLogLog estimates, in stated standard errors ...
HLL_SIGMAS = 6.0

#: ... plus this many distinct values.
HLL_SLACK = 2

_COLUMNS = (
    "hour", "src_ip", "dst_ip", "src_asn", "dst_asn", "proto",
    "src_port", "dst_port", "n_bytes", "n_packets", "connections",
)

_EXACT = {"bytes": "n_bytes", "packets": "n_packets",
          "connections": "connections"}
_DISTINCT = {"distinct_src_ips": "src_ip", "distinct_dst_ips": "dst_ip"}


def _hour0(day: _dt.date) -> int:
    return (day - _EPOCH).days * 24


class Reference:
    """Exact answers over one flow table (any row order)."""

    def __init__(self, table) -> None:
        hour = np.asarray(table.column("hour"), dtype=np.int64)
        order = np.argsort(hour, kind="stable")
        self._cols: Dict[str, np.ndarray] = {
            name: np.asarray(table.column(name)).astype(np.int64)[order]
            for name in _COLUMNS
        }
        proto = self._cols["proto"]
        src = self._cols["src_port"]
        dst = self._cols["dst_port"]
        service = np.where((src < _EPHEMERAL) & (dst >= _EPHEMERAL), src, dst)
        service = np.where(np.isin(proto, _PORTLESS), 0, service)
        self._cols["service_port"] = service
        self._cols["transport"] = proto * 65536 + service

    def _slice(self, spec) -> Dict[str, np.ndarray]:
        hour = self._cols["hour"]
        lo = np.searchsorted(hour, _hour0(spec.start), side="left")
        hi = np.searchsorted(hour, _hour0(spec.end) + 24, side="left")
        cols = {name: array[lo:hi] for name, array in self._cols.items()}
        mask = np.ones(hi - lo, dtype=bool)
        for predicate in spec.where:
            keys = cols[predicate.column]
            if predicate.op == "range":
                low, high = predicate.values
                mask &= (keys >= low) & (keys <= high)
            else:
                mask &= np.isin(keys, np.asarray(predicate.values))
        return {name: array[mask] for name, array in cols.items()}

    def answer(self, spec) -> List[Dict[str, object]]:
        """Result rows in the engine's layout and order."""
        cols = self._slice(spec)
        n = len(cols["hour"])
        if n == 0:
            return []
        key_arrays: List[np.ndarray] = []
        if spec.bucket == "hour":
            key_arrays.append(cols["hour"])
        elif spec.bucket == "day":
            key_arrays.append(_EPOCH.toordinal() + cols["hour"] // 24)
        key_arrays.extend(cols[key] for key in spec.group_by)
        # Group by the tuple of keys: number each key's distinct values,
        # fold the per-key numbers into one int64 (mixed radix), and
        # number those.  Sorted order of the fold is tuple order.
        uniques: List[np.ndarray] = []
        inverse = np.zeros(n, dtype=np.int64)
        for array in key_arrays:
            values, codes = np.unique(array, return_inverse=True)
            uniques.append(values)
            inverse = inverse * len(values) + codes.reshape(-1)
        combined, inverse = np.unique(inverse, return_inverse=True)
        inverse = inverse.reshape(-1)
        n_groups = len(combined)
        groups = np.zeros((n_groups, len(uniques)), dtype=np.int64)
        for k in range(len(uniques) - 1, -1, -1):
            radix = len(uniques[k])
            groups[:, k] = uniques[k][combined % radix]
            combined = combined // radix
        order = np.argsort(inverse, kind="stable")
        starts = np.searchsorted(inverse[order], np.arange(n_groups))
        values: Dict[str, np.ndarray] = {}
        for aggregate in spec.aggregates:
            if aggregate == "flows":
                values[aggregate] = np.bincount(inverse, minlength=n_groups)
            elif aggregate in _EXACT:
                column = cols[_EXACT[aggregate]][order]
                values[aggregate] = np.add.reduceat(column, starts)
            else:
                # Addresses are 32-bit: (group, address) packs into one
                # int64, and each distinct pair is one distinct address.
                pairs = np.unique(
                    (inverse << 32) | cols[_DISTINCT[aggregate]]
                )
                values[aggregate] = np.bincount(
                    pairs >> 32, minlength=n_groups
                )
        names = spec.key_names
        rows: List[Dict[str, object]] = []
        for g in range(n_groups):
            row: Dict[str, object] = {}
            for name, value in zip(names, groups[g]):
                if name == "day":
                    row[name] = _dt.date.fromordinal(int(value)).isoformat()
                else:
                    row[name] = int(value)
            for aggregate in spec.aggregates:
                row[aggregate] = int(values[aggregate][g])
            rows.append(row)
        return rows


def mismatch(spec, expected: Sequence[Dict[str, object]],
             got: Sequence[Dict[str, object]], hll_error: float) -> str:
    """Why ``got`` is not a right answer for ``spec`` ('' if it is)."""
    if len(expected) != len(got):
        return f"{len(got)} rows, expected {len(expected)}"
    names: Tuple[str, ...] = tuple(spec.key_names)
    for want, have in zip(expected, got):
        for name in names:
            if want[name] != have.get(name):
                return f"key {name}={have.get(name)!r}, expected {want[name]!r}"
        for aggregate in spec.aggregates:
            value = have.get(aggregate)
            truth = int(want[aggregate])
            if aggregate in _DISTINCT:
                allowed = HLL_SIGMAS * hll_error * truth + HLL_SLACK
                if value is None or abs(int(value) - truth) > allowed:
                    return (f"{aggregate}={value} outside {truth}"
                            f"±{allowed:.1f} at {want}")
            elif value != truth:
                return f"{aggregate}={value}, expected {truth} at {want}"
    return ""
