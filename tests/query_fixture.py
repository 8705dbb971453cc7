"""A seeded fixture store and the ``repro query --json`` golden file.

``tests/data/query_json_golden.json`` holds the answers of
:data:`GOLDEN_QUERIES` on the store :func:`write_fixture_store`
builds, recorded from the engine that kept one dense HyperLogLog
sketch per group.  Timing fields are left out.  To re-record with the
``repro`` package on ``PYTHONPATH``::

    python -m tests.query_fixture tests/data/query_json_golden.json
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

from repro import cli, timebase
from repro.flows.store import FlowStore
from repro.flows.table import FlowTable

GOLDEN = Path(__file__).parent / "data" / "query_json_golden.json"

#: The fixture covers three days of seeded synthetic flows.
START = dt.date(2020, 3, 2)
DAYS = 3
END = START + dt.timedelta(days=DAYS - 1)

#: ``repro query`` arguments recorded in :data:`GOLDEN`.
GOLDEN_QUERIES: Dict[str, Sequence[str]] = {
    "transport-by-day": [
        "--group-by", "transport", "--agg", "bytes,distinct_dst_ips",
        "--bucket", "day",
    ],
    "hourly-distinct": [
        "--agg", "flows,distinct_src_ips", "--bucket", "hour",
    ],
    "udp-services": [
        "--where", "proto=17", "--group-by", "service_port",
        "--agg", "bytes,packets,connections",
    ],
    "sidecar-totals": ["--agg", "bytes,flows"],
    "two-keys-p4": [
        "--group-by", "proto,service_port", "--agg",
        "distinct_dst_ips,flows", "--hll-p", "4",
    ],
    "whole-range-p18": [
        "--agg", "distinct_src_ips,distinct_dst_ips", "--hll-p", "18",
    ],
}

#: Result fields that are timings, not answers.
VOLATILE = ("wall_s", "stages")


def fixture_table() -> FlowTable:
    """Seeded flows over :data:`DAYS` days (numpy's RNG only)."""
    rng = np.random.default_rng(2020)
    n = 6000
    first_hour = timebase.hour_index(START, 0)
    ports = np.array([53, 80, 443, 443, 443, 1194, 3478, 8801])
    service = ports[rng.integers(0, len(ports), n)]
    ephemeral = rng.integers(49152, 65536, n)
    outbound = rng.random(n) < 0.5
    return FlowTable.from_arrays(
        hour=(first_hour + rng.integers(0, 24 * DAYS, n)).astype(np.int64),
        src_ip=(rng.integers(0, 5000, n) + 167772160).astype(np.uint32),
        dst_ip=(rng.zipf(1.3, n) % 3000 + 3232235520).astype(np.uint32),
        src_asn=rng.choice([3320, 15169, 16509, 32934], n).astype(np.int64),
        dst_asn=rng.choice([3320, 8075, 13335], n).astype(np.int64),
        proto=rng.choice([6, 17], n, p=[0.7, 0.3]).astype(np.int16),
        src_port=np.where(outbound, ephemeral, service).astype(np.int32),
        dst_port=np.where(outbound, service, ephemeral).astype(np.int32),
        n_bytes=rng.integers(40, 2**40, n).astype(np.int64),
        n_packets=rng.integers(1, 10_000, n).astype(np.int64),
        connections=rng.integers(1, 4, n).astype(np.int64),
    )


def write_fixture_store(root: Path) -> FlowStore:
    """Seal :func:`fixture_table` into a store at ``root``."""
    store = FlowStore(root)
    store.write_range(fixture_table(), START, END)
    return store


def run_query_json(store_dir: Path, args: Sequence[str]) -> dict:
    """One ``repro query --json`` run, timing fields removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([
            "query", "--store", str(store_dir), "--vantage", "fixture",
            "--start", START.isoformat(), "--end", END.isoformat(),
            "--json", *args,
        ])
    if code != 0:
        raise RuntimeError(f"repro query {args} exited {code}")
    payload = json.loads(out.getvalue())
    for name in VOLATILE:
        payload.pop(name)
    return payload


def main(argv: Sequence[str]) -> int:
    target = Path(argv[0]) if argv else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "fixture"
        write_fixture_store(store_dir)
        recorded = {
            name: run_query_json(store_dir, args)
            for name, args in GOLDEN_QUERIES.items()
        }
    target.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
