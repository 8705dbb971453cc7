"""Plain-numpy reference answers to query specs.

The engine plans, prunes, decodes encoded partitions, picks a scan
strategy per day and merges per-partition partials.  :func:`evaluate`
answers the same :class:`~repro.query.QuerySpec` over the in-memory
``FlowTable`` the obvious way: one boolean mask, ``np.unique`` over the
key columns, int64 ``np.add.at`` sums and exact ``np.unique`` distinct
counts — no store, planner, pool or ``GroupIndex``.  The derived keys
(``service_port``, ``transport``) are re-derived here from the raw port
and protocol columns, so a bug in the helpers the engine shares with
``FlowTable`` cannot cancel out.

:func:`assert_matches` compares an engine result with the reference:
key columns and ``flows``/``bytes``/``packets``/``connections`` exactly,
distinct counts within ``HLL_SIGMAS`` of the result's stated
HyperLogLog relative error.  With ``sketch=True`` the reference instead
sketches its own matched rows and groups with
:class:`~repro.flows.hll.GroupedRegisters` at the spec's precision, and
the distinct counts must equal the engine's exactly: a check that holds
at every precision, where the relative bound does not describe
HyperLogLog's small-range bias at ``hll_p=4``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import timebase
from repro.flows.hll import GroupedRegisters
from repro.flows.table import FlowTable

#: Distinct-count tolerance, in the result's stated relative errors.
HLL_SIGMAS = 3.0

#: Protocols without ports (ICMP, GRE, ESP) report service port 0.
_PORTLESS = (1, 47, 50)

#: First ephemeral port; the service sits on the other side.
_EPHEMERAL = 49152

_SUMS = {"bytes": "n_bytes", "packets": "n_packets",
         "connections": "connections"}
_DISTINCT = {"distinct_src_ips": "src_ip", "distinct_dst_ips": "dst_ip"}


def _key(flows: FlowTable, name: str) -> np.ndarray:
    """One key or predicate column as int64, derived keys re-derived."""
    if name not in ("service_port", "transport"):
        return flows.column(name).astype(np.int64)
    proto = flows.column("proto").astype(np.int64)
    src = flows.column("src_port").astype(np.int64)
    dst = flows.column("dst_port").astype(np.int64)
    service = np.where((src < _EPHEMERAL) & (dst >= _EPHEMERAL), src, dst)
    service[np.isin(proto, _PORTLESS)] = 0
    return service if name == "service_port" else proto * 65536 + service


def evaluate(flows: FlowTable, spec,
             sketch: bool = False) -> Dict[str, np.ndarray]:
    """``spec``'s answer over ``flows``: one int64 array per key and
    aggregate, rows sorted by key tuple, plus ``"_matched"`` (the
    number of rows that passed the date range and predicates).

    Distinct counts are exact, or with ``sketch`` the rounded
    HyperLogLog estimates of each group's values at ``spec.hll_p``.
    """
    first = timebase.hour_index(spec.start, 0)
    hours = flows.column("hour").astype(np.int64)
    mask = (hours >= first) & (hours < timebase.hour_index(spec.end, 0) + 24)
    for predicate in spec.where:
        values = _key(flows, predicate.column)
        if predicate.op == "range":
            mask &= (values >= predicate.values[0]) & \
                (values <= predicate.values[-1])
        else:
            mask &= np.isin(values, predicate.values)
    rows = np.flatnonzero(mask)
    keys = []
    for name in spec.key_names:
        if name == "hour":
            keys.append(hours[rows])
        elif name == "day":
            keys.append(spec.start.toordinal() + (hours[rows] - first) // 24)
        else:
            keys.append(_key(flows, name)[rows])
    if not len(rows):
        groups = np.zeros((0, len(keys)), dtype=np.int64)
        inverse = np.zeros(0, dtype=np.int64)
    elif keys:
        groups, inverse = np.unique(
            np.stack(keys, axis=1), axis=0, return_inverse=True
        )
    else:
        groups = np.zeros((1, 0), dtype=np.int64)
        inverse = np.zeros(len(rows), dtype=np.int64)
    inverse = inverse.reshape(-1)
    n_groups = len(groups)
    out = {name: groups[:, k] for k, name in enumerate(spec.key_names)}
    for aggregate in spec.aggregates:
        if aggregate == "flows":
            values = np.ones(len(rows), dtype=np.int64)
        elif aggregate in _SUMS:
            values = flows.column(_SUMS[aggregate])[rows].astype(np.int64)
        else:
            values = flows.column(_DISTINCT[aggregate])[rows].astype(np.int64)
            if sketch:
                registers = GroupedRegisters.from_values(
                    values, inverse, p=spec.hll_p
                )
                out[aggregate] = np.rint(
                    registers.counts(n_groups)
                ).astype(np.int64)
                continue
            pairs = np.unique(np.stack([inverse, values], axis=1), axis=0)
            out[aggregate] = np.bincount(pairs[:, 0], minlength=n_groups)
            continue
        totals = np.zeros(n_groups, dtype=np.int64)
        np.add.at(totals, inverse, values)
        out[aggregate] = totals
    out["_matched"] = np.int64(len(rows))
    return out


def assert_matches(result, flows: FlowTable, spec,
                   sketch: bool = False) -> None:
    """Assert the engine's ``result`` for ``spec`` equals the reference.

    ``sketch`` compares distinct counts exactly with the reference's
    own HyperLogLog estimates (see :func:`evaluate`).
    """
    expected = evaluate(flows, spec, sketch)
    assert result.key_names == spec.key_names
    assert result.rows_matched == int(expected["_matched"])
    for name in spec.key_names:
        assert np.array_equal(result.arrays[name], expected[name]), name
    for aggregate in spec.aggregates:
        got = result.arrays[aggregate]
        exact = expected[aggregate]
        if aggregate in _DISTINCT and not sketch:
            assert got.shape == exact.shape, aggregate
            bound = HLL_SIGMAS * result.hll_error * exact
            assert np.all(np.abs(got - exact) <= bound), aggregate
        else:
            assert np.array_equal(got, exact), aggregate
