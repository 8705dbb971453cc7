"""Synthesis and seal output stay bit-identical to the recorded digests.

See :mod:`tests.synth_seal_fixture` for what is pinned and how to
re-record it.
"""

from __future__ import annotations

import json

import pytest

from repro import build_scenario
from tests import synth_seal_fixture as fixture


@pytest.fixture(scope="module")
def golden():
    return json.loads(fixture.GOLDEN.read_text())


@pytest.fixture(scope="module")
def event_scenario():
    return build_scenario(spec=fixture.event_spec())


def test_hourly_traffic_default_world(golden, scenario):
    assert fixture.hourly_digests(scenario) == (
        golden["hourly_traffic"]["default"]
    )


def test_hourly_traffic_event_world(golden, event_scenario):
    assert fixture.hourly_digests(event_scenario) == (
        golden["hourly_traffic"]["events"]
    )


def test_generate_flows(golden, scenario):
    table = fixture.flows_fixture(scenario)
    assert fixture.digest_table(table) == golden["generate_flows"]


def test_enterprise_flows(golden, scenario):
    assert fixture.enterprise_digests(scenario) == golden["enterprise_flows"]


def test_sealed_partitions(golden, scenario, tmp_path):
    assert fixture.seal_digests(scenario, tmp_path) == golden["stores"]
