"""Seeded inputs: store ranges and query streams for each workload.

Everything here is a pure function of the benchmark seed, so two runs
with one seed see the same inputs and the program under test only ever
receives the generated specs.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.query import QuerySpec

VANTAGE = "isp-ce"

#: Eight whole weeks, Monday 2020-02-03 to Sunday 2020-03-29: the
#: pre-lockdown baseline and the first lockdown weeks.
START = _dt.date(2020, 2, 3)
END = _dt.date(2020, 3, 29)
DAYS = (END - START).days + 1

#: Dashboard windows are one week long.
WINDOW_DAYS = 7

#: Dashboard stream composition.  ``repeat`` replays one of the last
#: ``REPEAT_WINDOW`` specs verbatim (a result-cache hit unless that
#: query is still running); the four shapes draw fresh specs.  Sorted
#: by latency the mix is: hits (0-10%), sidecar hourly (10-20%),
#: ``proto`` projection (20-70%), ``service_port`` bitmap filter
#: (70-80%), wide ``transport`` + HLL (80-100%).  So the median of all
#: queries (50%) and of the cache misses (50% of 90%) sit well inside
#: the ``proto`` band, and p90 mid-band in ``transport_hll``.
SHARES: Tuple[Tuple[str, float], ...] = (
    ("repeat", 0.10),
    ("hourly", 0.10),
    ("proto", 0.50),
    ("service_port", 0.10),
    ("transport_hll", 0.20),
)
REPEAT_WINDOW = 8
SHAPES = tuple(name for name, _ in SHARES if name != "repeat")


def _window(start_offset: int) -> Tuple[_dt.date, _dt.date]:
    first = START + _dt.timedelta(days=start_offset)
    return first, first + _dt.timedelta(days=WINDOW_DAYS - 1)


def shape_pool(shape: str) -> List[QuerySpec]:
    """Every distinct spec of one dashboard shape (seed-independent).

    Each shape varies its one-week window over the store (50 starts)
    and a small choice of aggregates or filter values that leave the
    shape's cost alone.  The four pools hold 500 specs, about four
    times the service's default 128-entry result cache.
    """
    specs: List[QuerySpec] = []
    for offset in range(DAYS - WINDOW_DAYS + 1):
        first, last = _window(offset)
        if shape == "hourly":
            for aggregates in (("bytes",), ("flows",), ("bytes", "flows")):
                specs.append(QuerySpec.build(
                    VANTAGE, first, last, aggregates=aggregates,
                    bucket="hour",
                ))
        elif shape == "proto":
            for aggregates in (("bytes",), ("packets",), ("flows",)):
                specs.append(QuerySpec.build(
                    VANTAGE, first, last, group_by=["proto"],
                    aggregates=aggregates,
                ))
        elif shape == "service_port":
            for proto in (6, 17):
                specs.append(QuerySpec.build(
                    VANTAGE, first, last, where={"proto": proto},
                    group_by=["service_port"], aggregates=["bytes", "flows"],
                ))
        elif shape == "transport_hll":
            for aggregate in ("bytes", "connections"):
                specs.append(QuerySpec.build(
                    VANTAGE, first, last, group_by=["transport"],
                    aggregates=[aggregate, "distinct_dst_ips"],
                ))
        else:
            raise ValueError(f"unknown dashboard shape {shape!r}")
    return specs


def dashboard_stream(seed: int) -> Iterator[Tuple[str, QuerySpec]]:
    """An endless seeded stream of ``(shape, spec)`` for the dashboard.

    A fresh draw takes the next spec of its shape's pool in a seeded
    permutation, so a spec comes back only after its whole pool has
    gone by — long after the cache evicted it.  A repeat replays one
    of the last few specs and is labelled ``repeat``.
    """
    rng = np.random.default_rng([seed, 1])
    pools: Dict[str, List[QuerySpec]] = {}
    cursors: Dict[str, int] = {}
    for shape in SHAPES:
        pool = shape_pool(shape)
        pools[shape] = [pool[i] for i in rng.permutation(len(pool))]
        cursors[shape] = 0
    names = [name for name, _ in SHARES]
    weights = np.array([share for _, share in SHARES])
    recent: List[QuerySpec] = []
    while True:
        name = names[int(rng.choice(len(names), p=weights))]
        if name == "repeat" and recent:
            yield name, recent[int(rng.integers(len(recent)))]
            continue
        if name == "repeat":
            name = SHAPES[0]
        pool = pools[name]
        spec = pool[cursors[name] % len(pool)]
        cursors[name] += 1
        recent = (recent + [spec])[-REPEAT_WINDOW:]
        yield name, spec


#: Bulk-scan variants: full-range per-day ``transport`` tables with an
#: HLL distinct count, differing only in the exact aggregate beside it.
BULK_AGGREGATES = (
    ("bytes", "distinct_dst_ips"),
    ("packets", "distinct_dst_ips"),
    ("connections", "distinct_dst_ips"),
    ("flows", "distinct_dst_ips"),
)


def bulk_stream(seed: int) -> Iterator[QuerySpec]:
    """An endless seeded stream of full-range bulk-scan specs."""
    rng = np.random.default_rng([seed, 2])
    specs = [
        QuerySpec.build(
            VANTAGE, START, END, group_by=["transport"],
            aggregates=aggregates, bucket="day",
        )
        for aggregates in BULK_AGGREGATES
    ]
    while True:
        yield specs[int(rng.integers(len(specs)))]
