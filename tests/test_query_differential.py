"""Differential test: the query engine against the plain-numpy reference.

Hypothesis draws :class:`~repro.query.QuerySpec`s over a small store
built to sit on the engine's edge cases, and every answer must equal
:func:`tests.query_reference.assert_matches`' evaluation of the
in-memory table.  The store holds:

* byte counts near 1e14, so a day's sums pass 2**53 and only exact
  int64 arithmetic gets them right;
* an empty day, pruned from the manifest;
* a day on which every column but ``hour`` and the counters holds a
  single value (a one-entry dictionary, a zone with min == max);
* days whose zone maps differ, so predicates drawn at, just inside and
  just outside a day's min/max decide whether zone pruning may skip it.

Predicates draw present values, values absent from a day's dictionary
and values outside a column's dtype, on physical columns and on the
derived ``service_port``/``transport`` keys; ``hour`` windows straddle
day boundaries.  Specs take 0-2 group keys, every time bucket, and
distinct counts at HyperLogLog precisions 4, 12 and 18, compared
exactly with the reference's own sketch of its rows.  Every example
runs inline; a fixed, derandomized subset of whole-range specs also
runs through a 2-wide :class:`~repro.query.procpool.ScanPool`.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
from repro.flows.store import FlowStore
from repro.flows.table import COLUMNS, FlowTable
from repro.query import QuerySpec, execute_query
from repro.query.procpool import ScanPool
from tests.query_reference import _key, assert_matches

START = dt.date(2020, 3, 2)
DAYS = 5
END = START + dt.timedelta(days=DAYS - 1)
#: Day offsets: no rows at all, and single-valued columns.
EMPTY_DAY = 2
SINGLE_VALUE_DAY = 3

#: Columns and derived keys predicates and group-bys are drawn from.
KEYS = ("hour", "proto", "src_port", "dst_port", "src_asn", "dst_asn",
        "src_ip", "connections", "service_port", "transport")
GROUP_KEYS = ("proto", "service_port", "transport", "dst_port",
              "src_asn", "dst_asn", "hour")
AGGREGATES = ("bytes", "packets", "connections", "flows",
              "distinct_src_ips", "distinct_dst_ips")

#: Values just outside each physical column's dtype.
_OUT_OF_DTYPE = {
    "int16": (-(2**15) - 1, 2**15, 70_000),
    "int32": (-(2**31) - 1, 2**31),
    "uint32": (-1, 2**32),
    "int64": (-(2**63), 2**63 - 1),
}


def _day_table(rng: np.random.Generator, day: int, n: int,
               single_valued: bool = False) -> dict:
    first = timebase.hour_index(START, 0) + 24 * day
    hour = first + np.sort(rng.integers(0, 24, n))
    if single_valued:
        constant = {
            "src_ip": np.uint32(167772161), "dst_ip": np.uint32(3232235521),
            "src_asn": 3320, "dst_asn": 15169, "proto": 17,
            "src_port": 3478, "dst_port": 50_000,
        }
        columns = {
            name: np.full(n, value, dtype=COLUMNS[name])
            for name, value in constant.items()
        }
    else:
        ports = np.array([53, 80, 443, 443, 1194, 3478, 8801]) + day
        service = rng.choice(ports, n)
        ephemeral = rng.integers(49152, 65536, n)
        outbound = rng.random(n) < 0.5
        columns = {
            "src_ip": rng.integers(0, 400 * (day + 1), n) + 167772160,
            "dst_ip": rng.zipf(1.4, n) % 2000 + 3232235520,
            "src_asn": rng.choice([3320, 15169, 16509, 32934 + day], n),
            "dst_asn": rng.choice([3320, 8075, 13335], n),
            "proto": rng.choice([6, 17, 47][: 2 + day % 2], n),
            "src_port": np.where(outbound, ephemeral, service),
            "dst_port": np.where(outbound, service, ephemeral),
        }
    columns["hour"] = hour
    columns["n_bytes"] = rng.integers(5 * 10**13, 2 * 10**14, n)
    columns["n_packets"] = rng.integers(1, 10**9, n)
    columns["connections"] = rng.integers(1, 4 + day, n)
    return {name: np.asarray(columns[name], dtype=COLUMNS[name])
            for name in COLUMNS}


def _build_table() -> FlowTable:
    rng = np.random.default_rng(26)
    sizes = {0: 700, 1: 500, EMPTY_DAY: 0, SINGLE_VALUE_DAY: 60, 4: 400}
    days = [
        _day_table(rng, day, sizes[day], day == SINGLE_VALUE_DAY)
        for day in range(DAYS)
    ]
    table = FlowTable.from_arrays(**{
        name: np.concatenate([day[name] for day in days])
        for name in COLUMNS
    })
    # Seal rows out of hour order, as captures arrive.
    return table.take(rng.permutation(len(table)))


TABLE = _build_table()


def _value_pool(name: str) -> list:
    """Predicate values for ``name``: present, zone edges, absent, and
    outside the column's dtype."""
    values = _key(TABLE, name)
    hours = TABLE.column("hour")
    first = timebase.hour_index(START, 0)
    present = np.unique(values)
    pool = set(present[::max(1, len(present) // 12)].tolist())
    for day in range(DAYS):
        in_day = (hours >= first + 24 * day) & (hours < first + 24 * day + 24)
        if not in_day.any():
            continue
        lo, hi = int(values[in_day].min()), int(values[in_day].max())
        pool.update((lo - 1, lo, lo + 1, hi - 1, hi, hi + 1))
    absent = np.setdiff1d(present + 1, present)
    pool.update(absent[:3].tolist())
    if name in COLUMNS:
        pool.update(_OUT_OF_DTYPE[COLUMNS[name].name])
    return sorted(pool)


POOLS = {name: _value_pool(name) for name in KEYS}


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(KEYS))
    pool = POOLS[column]
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.sampled_from(pool),
                                      min_size=2, max_size=2)))
        return column, {"min": lo, "max": hi}
    return column, draw(st.lists(st.sampled_from(pool),
                                 min_size=1, max_size=4))


@st.composite
def query_specs(draw, whole_range=False):
    """Specs over ranges that may overrun the store; ``whole_range``
    fixes the range to the store's days, so a pool gets days to shard."""
    offsets = [0, DAYS - 1] if whole_range else sorted(
        draw(st.lists(st.integers(-1, DAYS), min_size=2, max_size=2))
    )
    start, end = (START + dt.timedelta(days=o) for o in offsets)
    bucket = draw(st.sampled_from((None, "hour", "day")))
    keys = [k for k in GROUP_KEYS if k != bucket]
    group_by = draw(st.lists(st.sampled_from(keys), max_size=2,
                             unique=True))
    where = dict(draw(st.lists(predicates(), max_size=2,
                               unique_by=lambda p: p[0])))
    aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                               max_size=3, unique=True))
    return QuerySpec.build(
        vantage="fixture", start=start, end=end, where=where,
        group_by=group_by, aggregates=aggregates, bucket=bucket,
        hll_p=draw(st.sampled_from((4, 12, 18))),
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = FlowStore(tmp_path_factory.mktemp("differential") / "fixture")
    store.write_range(TABLE, START, END)
    return store


@pytest.fixture(scope="module")
def pool():
    with ScanPool(2) as scan_pool:
        yield scan_pool


def test_store_has_its_edge_cases(store):
    assert store.day_flows(START + dt.timedelta(days=EMPTY_DAY)) == 0
    single = store.open_partition(START + dt.timedelta(days=SINGLE_VALUE_DAY))
    assert single.sidecar["columns"]["proto"]["cardinality"] == 1
    assert single.zone("dst_port") == (50_000, 50_000)
    day_bytes = [
        int(store.open_partition(day).hour_preaggregates()[1].sum())
        for day in store.days()
    ]
    assert max(day_bytes) > 2**53


@settings(max_examples=250, deadline=None, derandomize=True)
@given(spec=query_specs())
def test_inline_matches_reference(store, spec):
    result = execute_query(store, spec)
    assert result.partitions_failed == []
    assert_matches(result, TABLE, spec, sketch=True)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=query_specs(whole_range=True))
def test_scan_pool_matches_reference(store, pool, spec):
    result = execute_query(store, spec, pool=pool)
    assert result.partitions_failed == []
    assert_matches(result, TABLE, spec, sketch=True)
    inline = execute_query(store, spec)
    assert result.rows == inline.rows
    assert result.rows_scanned == inline.rows_scanned
