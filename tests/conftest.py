"""Shared fixtures.

The scenario and the expensive flow tables are session-scoped: they are
deterministic, read-only inputs, so sharing them across tests is safe
and keeps the suite fast.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro import build_scenario, timebase
from repro.experiments import PipelineConfig


@pytest.fixture(scope="session")
def scenario():
    """The default synthetic world."""
    return build_scenario()


@pytest.fixture(scope="session")
def fast_config():
    """Low-fidelity pipeline configuration for tests."""
    return PipelineConfig.fast()


@pytest.fixture(scope="session")
def isp_base_week_flows(scenario):
    """ISP-CE flows for the macro base week (Feb 19-25)."""
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["base"], fidelity=0.5
    )


@pytest.fixture(scope="session")
def isp_stage1_week_flows(scenario):
    """ISP-CE flows for the macro stage-1 week (Mar 18-24)."""
    return scenario.isp_ce.generate_week_flows(
        timebase.MACRO_WEEKS["stage1"], fidelity=0.5
    )


@pytest.fixture(scope="session")
def edu_capture_flows(scenario, fast_config):
    """EDU flows for the full 72-day capture period."""
    return scenario.edu.generate_flows(
        timebase.EDU_CAPTURE_START,
        timebase.EDU_CAPTURE_END,
        fidelity=fast_config.edu_fidelity,
    )
