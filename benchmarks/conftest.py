"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures at full
pipeline fidelity, asserts the paper's qualitative shape, and prints
the reproduced rows/series (run with ``-s`` to see them).

Per-benchmark wall times are recorded with :class:`repro.obs` timer
instruments and appended to ``BENCH_results.json`` at the repo root,
so successive runs accumulate a perf trajectory.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import build_scenario
from repro.obs.metrics import MetricsRegistry
from repro.experiments import PipelineConfig

#: Where the perf trajectory accumulates (repo root).
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"

#: Timers keyed by test node id, for the current pytest session.
_BENCH_REGISTRY = MetricsRegistry()


@pytest.fixture(scope="session")
def scenario():
    """The default synthetic world, shared across benchmarks."""
    return build_scenario()


@pytest.fixture(scope="session")
def config():
    """Full (benchmark) sampling fidelity."""
    return PipelineConfig()


def _report(result) -> None:
    print(f"\n=== {result.experiment_id}: {result.title} ===")
    for name, value in sorted(result.metrics.items()):
        print(f"  {name:42s} {value:10.3f}")
    for name, ok in result.checks.items():
        print(f"  [{'ok' if ok else 'XX'}] {name}")
    if result.rendered:
        print(result.rendered)


@pytest.fixture(scope="session")
def report():
    """Printer for a reproduced experiment (metrics, checks, sketch)."""
    return _report


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Time every benchmark body with a timer instrument."""
    with _BENCH_REGISTRY.timer(item.nodeid).time():
        yield


def _load_history(path: Path) -> list:
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    runs = payload.get("runs")
    return runs if isinstance(runs, list) else []


def pytest_sessionfinish(session, exitstatus):
    """Append this session's wall times to ``BENCH_results.json``."""
    # snapshot() returns stats dicts; take total wall seconds per test.
    benchmarks = {
        name: round(stats["total"], 4)
        for name, stats in sorted(
            _BENCH_REGISTRY.snapshot()["timers"].items()
        )
        if stats.get("count")
    }
    if not benchmarks:
        return
    history = _load_history(BENCH_RESULTS_PATH)
    history.append(
        {
            "timestamp": round(time.time(), 3),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "exit_status": int(exitstatus),
            "wall_s": benchmarks,
        }
    )
    BENCH_RESULTS_PATH.write_text(
        json.dumps({"runs": history}, indent=2) + "\n"
    )
