"""Digests pinning synthesis and seal output bit for bit.

``tests/data/synth_seal_golden.json`` holds sha256 digests of:

* ``hourly_traffic`` for every vantage over the study period, in the
  default world and in :func:`event_spec`'s world;
* one ``generate_flows`` table;
* ``generate_enterprise_flows`` for a pre-lockdown week, a lockdown
  week and a lockdown week at reduced intensity;
* ``segments.bin`` and ``sidecar.json`` of every partition of two
  fixture stores (one sealed from a table in shuffled hour order), plus
  each store's state token.

The digests were recorded from the per-day intensity loop and the
mask-per-day seal, so any change to float evaluation order, flow
sampling or partition encoding shows up as a mismatch.  To re-record
with the ``repro`` package on ``PYTHONPATH`` (only when output is meant
to change)::

    python -m tests.synth_seal_fixture tests/data/synth_seal_golden.json
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

from repro import build_scenario, timebase
from repro.flows.store import FlowStore
from repro.flows.table import FlowTable
from repro.synth import events as ev
from repro.synth import remotework
from repro.synth.scenario import Scenario
from repro.synth.spec import ScenarioSpec
from tests import query_fixture

GOLDEN = Path(__file__).parent / "data" / "synth_seal_golden.json"

#: Flow-table fixture: two ISP-CE days around the CE lockdown ramp.
FLOWS_VANTAGE = "isp-ce"
FLOWS_START = dt.date(2020, 3, 16)
FLOWS_END = dt.date(2020, 3, 17)
FLOWS_FIDELITY = 0.2

#: Enterprise-flow fixtures: (label, week start, lockdown, intensity).
ENTERPRISE_WEEKS = (
    ("pre-lockdown", dt.date(2020, 2, 20), False, 1.0),
    ("lockdown", dt.date(2020, 3, 19), True, 1.0),
    ("partial", dt.date(2020, 4, 23), True, 0.4),
)


def event_spec() -> ScenarioSpec:
    """A world with a second wave, a holiday, a demand shift and a
    WFH reversal, each inside the study period."""
    return ScenarioSpec(
        name="golden-events",
        events=(
            ev.SecondWave(
                timebase.Region.CENTRAL_EUROPE,
                dt.date(2020, 4, 27), dt.date(2020, 5, 3),
            ),
            ev.Holiday(dt.date(2020, 3, 4), dt.date(2020, 3, 5)),
            ev.DemandShift(
                ev.Envelope(dt.date(2020, 2, 10), ramp_days=3,
                            plateau_days=10, decay_days=4),
                1.4, vantages=("isp-ce", "ixp-ce"), profiles=("vod",),
            ),
            ev.WFHReversal(ev.Envelope(dt.date(2020, 4, 20), ramp_days=14)),
        ),
    )


def digest_arrays(arrays: Sequence[np.ndarray]) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def digest_table(table: FlowTable) -> str:
    """Digest of every column of a flow table, in schema order."""
    return digest_arrays([table.column(name) for name in table.columns])


def hourly_digests(scenario: Scenario) -> Dict[str, str]:
    """``hourly_traffic`` digest per vantage over the study period."""
    out = {}
    for name in sorted(scenario.vantages):
        series = scenario.vantage(name).hourly_traffic(
            timebase.STUDY_START, timebase.STUDY_END
        )
        out[name] = digest_arrays(
            [np.asarray([series.start_hour]), series.values]
        )
    return out


def enterprise_digests(scenario: Scenario) -> Dict[str, str]:
    eyeballs = scenario.registry.eyeball_asns(timebase.Region.CENTRAL_EUROPE)
    out = {}
    for label, start, lockdown, intensity in ENTERPRISE_WEEKS:
        table = remotework.generate_enterprise_flows(
            scenario.registry, scenario.prefix_map,
            scenario.enterprise_behaviors, eyeballs,
            timebase.Week(start), lockdown, seed=77, intensity=intensity,
        )
        out[label] = digest_table(table)
    return out


def flows_fixture(scenario: Scenario) -> FlowTable:
    """The :data:`FLOWS_VANTAGE` table the flow and store digests use."""
    return scenario.vantage(FLOWS_VANTAGE).generate_flows(
        FLOWS_START, FLOWS_END, FLOWS_FIDELITY
    )


def store_digests(store: FlowStore) -> Dict[str, object]:
    """Per-partition file digests plus the store's state token."""
    parts = {}
    for day in store.days():
        directory = store.root / day.isoformat()
        for name in ("segments.bin", "sidecar.json"):
            data = (directory / name).read_bytes()
            parts[f"{day.isoformat()}/{name}"] = hashlib.sha256(
                data
            ).hexdigest()
    return {"files": parts, "state_token": store.state_token()}


def seal_digests(scenario: Scenario, tmp: Path) -> Dict[str, object]:
    """Digests of the query fixture store (rows in shuffled hour
    order) and a synthetic store whose last day is empty."""
    query_store = query_fixture.write_fixture_store(tmp / "query")
    synth_store = FlowStore(tmp / "synth")
    synth_store.write_range(
        flows_fixture(scenario), FLOWS_START,
        FLOWS_END + dt.timedelta(days=1),
    )
    return {
        "query-fixture": store_digests(query_store),
        "synth": store_digests(synth_store),
    }


def record() -> Dict[str, object]:
    scenario = build_scenario()
    events = build_scenario(spec=event_spec())
    with tempfile.TemporaryDirectory() as tmp:
        stores = seal_digests(scenario, Path(tmp))
    return {
        "hourly_traffic": {
            "default": hourly_digests(scenario),
            "events": hourly_digests(events),
        },
        "generate_flows": digest_table(flows_fixture(scenario)),
        "enterprise_flows": enterprise_digests(scenario),
        "stores": stores,
    }


def main(argv: Sequence[str]) -> int:
    target = Path(argv[0]) if argv else GOLDEN
    target.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
