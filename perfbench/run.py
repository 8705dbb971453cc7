"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off.
``--trace 1`` makes a separate traced run: half of ``--seconds``
untraced, then one traced set-up and half of ``--seconds`` traced, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out PATH`` also writes the full record (environment stamp, every
metric, the first wrong answers) as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _measure(cls, seed: int, tmp: Path, seconds: float):
    """Untraced: repeated set-ups, one timed loop, the answer check."""
    workload = cls(seed, tmp)
    setups = []
    for index in range(workload.setup_repeats):
        if index:
            workload.teardown()
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    try:
        workload.run(seconds)
        workload.check()
    finally:
        workload.teardown()
    return workload, statistics.median(setups)


def _measure_traced(cls, seed: int, tmp: Path, seconds: float):
    """Traced: one set-up and one timed loop with telemetry on."""
    import repro.obs as obs
    from perfbench.common import Layers

    layers = Layers()
    workload = cls(seed, tmp, layers)
    gc.collect()
    obs.configure(telemetry=True)
    try:
        t0 = time.perf_counter()
        workload.setup()
        layers.wall += time.perf_counter() - t0
        try:
            workload.run(seconds)
        finally:
            obs.reset()
        workload.check()
    finally:
        obs.reset()
        workload.teardown()
    return workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from perfbench.common import env_stamp, peak_rss_mb
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Scratch space — the stores, and the program's own temporary
    # directories — stays inside the checkout.
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        if args.trace:
            plain, _ = _measure(cls, args.seed, tmp, args.seconds / 2)
            traced = _measure_traced(cls, args.seed, tmp, args.seconds / 2)
            runs = (plain, traced)
            base = plain.end_to_end()["ops_per_s"]
            values = {m["name"]: 0.0 for m in spec["per_layer"]}
            values.update(traced.trace)
            values.update(traced.layers.metrics())
            values["trace.ops"] = traced.ops
            values["obs.trace_overhead_pct"] = 100.0 * (
                base - traced.end_to_end()["ops_per_s"]) / base
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            workload, setup_s = _measure(cls, args.seed, tmp, args.seconds)
            runs = (workload,)
            values = workload.end_to_end()
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb()
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    errors = [error for run in runs for error in run.errors]
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    stamp = env_stamp(ROOT)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"samples {len(runs[-1].latencies)}  "
          f"attempted {attempted}  failed {failed}")
    for error in errors:
        print(f"wrong: {error}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": stamp, "attempted": attempted, "failed": failed,
                  "errors": errors, "metrics": metrics}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
