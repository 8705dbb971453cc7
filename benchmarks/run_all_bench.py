#!/usr/bin/env python
"""Benchmark ``run_all`` across dataset-cache modes.

Times the full experiment sweep five ways —

* ``cache-off`` — every experiment materializes its own data (the old
  monolith's behavior),
* ``cache-cold`` — shared dataset cache, starting empty,
* ``cache-warm`` — same cache, second sweep (everything hits),
* ``disk-cold`` — fresh cache with an empty disk tier (materializes
  everything and writes the ``.npz`` archives),
* ``disk-warm`` — fresh memory tier over the now-populated disk tier
  (a new process reusing a previous run's archives; zero flow
  generation),

plus an optional ``--jobs N`` sweep on up to N worker threads —
recorded as ``threads-N`` — and appends one entry to ``BENCH_results.json`` in the
repo's ``{"runs": [...]}`` history format.  The script exits non-zero
— and records ``exit_status`` — if any experiment's checks fail in any
mode or the modes disagree, so a cache- or executor-induced regression
cannot slip through as a "fast" result.  ``--fail-on-regression`` additionally compares the
warm-memory sweep against the latest recorded baseline with the same
fidelity and fails on a >20% slowdown (tune with
``--regression-threshold``).

Usage::

    python benchmarks/run_all_bench.py            # default fidelity
    python benchmarks/run_all_bench.py --fast --jobs 4
    python benchmarks/run_all_bench.py --fast --fail-on-regression
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.experiments import PipelineConfig, run_all  # noqa: E402
from repro.synth import datasets  # noqa: E402
from repro.synth.scenario import build_scenario  # noqa: E402

#: wall_s key prefix, matching the pytest-style keys already in the file.
KEY = "benchmarks/run_all_bench.py::run_all"


def _checks(results) -> Dict[str, Dict[str, bool]]:
    return {
        r.experiment_id: {k: bool(v) for k, v in r.checks.items()}
        for r in results
    }


def _timed(scenario, config, cache, jobs: int = 1) -> Tuple[object, float]:
    with datasets.use_cache(cache):
        t0 = time.perf_counter()
        results = run_all(scenario, config, jobs=jobs)
        return results, time.perf_counter() - t0


def _latest_baseline(
    history: Dict[str, list], key: str, fast: bool
) -> Optional[float]:
    """The most recent recorded wall time for ``key`` at this fidelity."""
    for run in reversed(history.get("runs", [])):
        if bool(run.get("fast")) != fast:
            continue
        baseline = (run.get("wall_s") or {}).get(key)
        if baseline:
            return float(baseline)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="use the test-suite fidelity (CI smoke mode)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="additionally time a parallel sweep with N workers",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_results.json"),
        help="benchmark history file (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="disk-tier directory for the disk-cold/disk-warm sweeps "
             "(default: a throwaway temp directory)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero if the warm sweep is slower than the latest "
             "recorded baseline by more than the threshold",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=0.20,
        metavar="FRACTION",
        help="allowed warm-sweep slowdown vs. the recorded baseline "
             "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    config = PipelineConfig.fast() if args.fast else PipelineConfig()
    scenario = build_scenario()
    walls: Dict[str, float] = {}
    sweeps: Dict[str, Dict[str, Dict[str, bool]]] = {}

    off_results, walls[f"{KEY}[cache-off]"] = _timed(
        scenario, config, datasets.DatasetCache(enabled=False)
    )
    sweeps["cache-off"] = _checks(off_results)

    shared = datasets.DatasetCache()
    cold_results, walls[f"{KEY}[cache-cold]"] = _timed(
        scenario, config, shared
    )
    sweeps["cache-cold"] = _checks(cold_results)
    warm_results, walls[f"{KEY}[cache-warm]"] = _timed(
        scenario, config, shared
    )
    sweeps["cache-warm"] = _checks(warm_results)

    if args.cache_dir:
        disk_dir, owned_dir = Path(args.cache_dir), False
    else:
        disk_dir = Path(tempfile.mkdtemp(prefix="lockdown-bench-cache-"))
        owned_dir = True
    try:
        disk_cold_results, walls[f"{KEY}[disk-cold]"] = _timed(
            scenario, config, datasets.DatasetCache(cache_dir=disk_dir)
        )
        sweeps["disk-cold"] = _checks(disk_cold_results)
        # a fresh memory tier over the populated archives — the
        # "second process on the same analysis weeks" workload
        disk_warm_cache = datasets.DatasetCache(cache_dir=disk_dir)
        disk_warm_results, walls[f"{KEY}[disk-warm]"] = _timed(
            scenario, config, disk_warm_cache
        )
        sweeps["disk-warm"] = _checks(disk_warm_results)
        disk_materialized = disk_warm_cache.stats.misses
    finally:
        if owned_dir:
            shutil.rmtree(disk_dir, ignore_errors=True)

    pools: Dict[str, Dict[str, object]] = {}
    if args.jobs > 1:
        mode = f"threads-{args.jobs}"
        with datasets.use_cache(datasets.DatasetCache()):
            t0 = time.perf_counter()
            pool_results = run_all(
                scenario, config, jobs=args.jobs, on_error="capture"
            )
            walls[f"{KEY}[{mode}]"] = time.perf_counter() - t0
        sweeps[mode] = _checks(pool_results)
        pools[mode] = {"kind": "thread", "jobs": args.jobs}

    problems: List[str] = []
    baseline = sweeps["cache-off"]
    for mode, outcome in sweeps.items():
        for experiment_id, checks in outcome.items():
            failed = [name for name, ok in checks.items() if not ok]
            if failed:
                problems.append(f"{mode}: {experiment_id} failed {failed}")
        if outcome != baseline:
            problems.append(f"{mode}: check outcomes differ from cache-off")
    if disk_materialized:
        problems.append(
            f"disk-warm: {disk_materialized} dataset(s) materialized "
            f"despite warm archives"
        )

    history_path = Path(args.output)
    if history_path.exists():
        payload = json.loads(history_path.read_text())
    else:
        payload = {"runs": []}

    for key, wall in walls.items():
        print(f"{key:55s} {wall:8.3f} s")
    off = walls[f"{KEY}[cache-off]"]
    cold = walls[f"{KEY}[cache-cold]"]
    warm = walls[f"{KEY}[cache-warm]"]
    disk_warm = walls[f"{KEY}[disk-warm]"]
    print(
        f"cold sweep saves {off - cold:.3f} s over cache-off "
        f"({off / cold:.2f}x); warm sweep runs {off / warm:.2f}x; "
        f"warm disk runs {off / disk_warm:.2f}x with no generation"
    )
    if args.fail_on_regression:
        warm_key = f"{KEY}[cache-warm]"
        recorded = _latest_baseline(payload, warm_key, args.fast)
        if recorded is None:
            print("no recorded warm baseline at this fidelity; "
                  "skipping regression gate")
        else:
            limit = recorded * (1.0 + args.regression_threshold)
            print(
                f"regression gate: warm {warm:.3f} s vs. recorded "
                f"{recorded:.3f} s (limit {limit:.3f} s)"
            )
            if warm > limit:
                problems.append(
                    f"cache-warm: {warm:.3f} s exceeds recorded baseline "
                    f"{recorded:.3f} s by more than "
                    f"{args.regression_threshold:.0%}"
                )

    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    status = 1 if problems else 0

    payload["runs"].append(
        {
            "timestamp": round(time.time(), 3),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "fast": bool(args.fast),
            "exit_status": status,
            "wall_s": {k: round(v, 4) for k, v in sorted(walls.items())},
            **({"pools": pools} if pools else {}),
        }
    )
    history_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"appended run to {history_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
