"""Export experiment results as reproducible artifacts.

Writes one directory per pipeline run:

    output/
      summary.json            run-level index: id, title, pass/fail
      telemetry.json          run manifest: seed, config, git SHA,
                              span tree, metrics (write_run only)
      <experiment>/
        metrics.json          measured values + check outcomes
        rendered.txt          the text sketch of the figure
        series.csv            numeric series where the experiment
                              exposes them (one column per curve)

These artifacts are what a downstream user plots with their own
tooling; the experiments' checks assert the shapes, this module
persists the numbers.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.obs.manifest import RunManifest, build_manifest
from repro.experiments import ExperimentResult

PathLike = Union[str, Path]


def _series_for(result: ExperimentResult) -> Dict[str, List[float]]:
    """Extract flat numeric series from an experiment's data payload.

    Best-effort and intentionally conservative: only shapes we know how
    to flatten become CSV columns.
    """
    data = result.data
    series: Dict[str, List[float]] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, np.ndarray) and value.ndim == 1:
                series[str(key)] = [float(v) for v in value]
            elif hasattr(value, "values") and isinstance(
                getattr(value, "values"), (tuple, np.ndarray)
            ):
                values = getattr(value, "values")
                series[str(key)] = [float(v) for v in values]
    return series


def export_result(result: ExperimentResult, directory: PathLike) -> Path:
    """Write one experiment's artifacts; returns its directory."""
    target = Path(directory) / result.experiment_id
    target.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "passed": result.passed,
        "metrics": {k: float(v) for k, v in result.metrics.items()},
        "checks": dict(result.checks),
    }
    with (target / "metrics.json").open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    (target / "rendered.txt").write_text(result.rendered + "\n")
    series = _series_for(result)
    if series:
        lengths = {len(v) for v in series.values()}
        if len(lengths) == 1:
            with (target / "series.csv").open("w", newline="") as handle:
                writer = csv.writer(handle)
                names = sorted(series)
                writer.writerow(names)
                for row in zip(*(series[n] for n in names)):
                    writer.writerow([f"{v:.6g}" for v in row])
    return target


def export_results(
    results: Sequence[ExperimentResult], directory: PathLike
) -> Path:
    """Write all experiments plus a run-level summary index."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    index = []
    for result in results:
        export_result(result, root)
        index.append(
            {
                "experiment": result.experiment_id,
                "title": result.title,
                "passed": result.passed,
                "failed_checks": result.failed_checks(),
            }
        )
    with (root / "summary.json").open("w") as handle:
        json.dump(index, handle, indent=2)
    return root


def write_run(
    results: Sequence[ExperimentResult],
    directory: PathLike,
    manifest: Optional[RunManifest] = None,
) -> Path:
    """Write all artifacts plus a ``telemetry.json`` run manifest.

    Without an explicit ``manifest``, one is assembled from the
    process-global tracer and metrics registry (see :mod:`repro.obs`);
    with telemetry disabled that still records versions, the git SHA,
    and per-experiment check outcomes — the span tree is just empty.
    """
    root = export_results(results, directory)
    if manifest is None:
        manifest = build_manifest(results)
    manifest.write(root / "telemetry.json")
    return root
