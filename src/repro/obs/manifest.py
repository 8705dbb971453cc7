"""Run manifests: what ran, with what inputs, on which code.

A :class:`RunManifest` pins down one pipeline run well enough to
re-execute it: scenario seed, :class:`~repro.experiments.PipelineConfig`,
git SHA, interpreter and numpy versions, per-experiment check outcomes,
the full span tree, and the metrics-registry snapshot.  It serializes
to the ``telemetry.json`` written next to ``summary.json`` by
:func:`repro.report.export.write_run`, and the CLI's ``telemetry``
subcommand pretty-prints it via :func:`format_manifest`.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

#: Version marker for the telemetry payload layout.
SCHEMA = "lockdown-effect/telemetry@1"

PathLike = Union[str, Path]


def git_sha(root: Optional[PathLike] = None) -> Optional[str]:
    """The current commit SHA, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


@dataclasses.dataclass
class RunManifest:
    """Everything needed to identify and audit one pipeline run."""

    seed: Optional[int] = None
    #: Identity of the generated world ({"name": ..., "fingerprint":
    #: ...}); empty for manifests written before scenario specs existed.
    scenario: Dict[str, object] = dataclasses.field(default_factory=dict)
    config: Dict[str, float] = dataclasses.field(default_factory=dict)
    git_sha: Optional[str] = None
    python: str = ""
    numpy: str = ""
    platform: str = ""
    created_at: float = 0.0
    experiments: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict
    )
    trace: Dict[str, object] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: How the run was executed ({"name": "parallel", "jobs": 4, ...},
    #: with a nested ``dataset_cache`` dict carrying the cache stats —
    #: including the disk tier's ``disk_*`` counters and ``cache_dir``
    #: when ``run --cache-dir`` was active); empty for manifests
    #: written before the executor existed.
    executor: Dict[str, object] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation."""
        payload = dataclasses.asdict(self)
        payload["schema"] = SCHEMA
        return payload

    def write(self, path: PathLike) -> Path:
        """Serialize to ``path`` as JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return target

    @classmethod
    def load(cls, path: PathLike) -> "RunManifest":
        """Read a manifest previously written with :meth:`write`."""
        with Path(path).open() as handle:
            payload = json.load(handle)
        payload.pop("schema", None)
        return cls(**payload)


def build_manifest(
    results: Sequence[object],
    seed: Optional[int] = None,
    config: Optional[object] = None,
    tracer: Optional[object] = None,
    registry: Optional[object] = None,
    executor: Optional[Dict[str, object]] = None,
    scenario: Optional[object] = None,
) -> RunManifest:
    """Assemble a manifest from experiment results and the obs globals.

    ``results`` are :class:`~repro.experiments.ExperimentResult` objects
    (duck-typed to avoid a circular import); ``tracer``/``registry``
    default to the process-global ones from :mod:`repro.obs`.
    """
    from repro import obs

    tracer = tracer if tracer is not None else obs.get_tracer()
    registry = registry if registry is not None else obs.get_registry()
    if config is not None and dataclasses.is_dataclass(config):
        config_dict = dataclasses.asdict(config)
    elif isinstance(config, dict):
        config_dict = dict(config)
    else:
        config_dict = {}
    scenario_info: Dict[str, object] = {}
    if scenario is not None:
        # Duck-typed Scenario: its fingerprint keys dataset-cache
        # entries, so recording it makes cache reuse auditable.
        scenario_info["fingerprint"] = str(
            getattr(scenario, "fingerprint", "")
        )
        spec = getattr(scenario, "spec", None)
        if spec is not None:
            scenario_info["name"] = spec.name
    experiments: Dict[str, Dict[str, object]] = {}
    for result in results:
        experiments[result.experiment_id] = {
            "title": result.title,
            "passed": result.passed,
            "n_checks": len(result.checks),
            "failed_checks": result.failed_checks(),
            "n_metrics": len(result.metrics),
        }
    return RunManifest(
        seed=seed,
        scenario=scenario_info,
        config=config_dict,
        git_sha=git_sha(),
        python=sys.version.split()[0],
        numpy=np.__version__,
        platform=platform.platform(),
        created_at=time.time(),
        experiments=experiments,
        trace=tracer.to_dict(),
        metrics=registry.snapshot(),
        executor=dict(executor) if executor else {},
    )


def _format_span(span: Dict[str, object], depth: int,
                 lines: List[str]) -> None:
    indent = "  " * depth
    name = f"{indent}{span['name']}"
    metrics = span.get("metrics") or {}
    suffix = ""
    if metrics:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(metrics.items()))
        suffix = f"  [{rendered}]"
    if span.get("error"):
        suffix += f"  !{span['error']}"
    lines.append(
        f"{name:44s} total {float(span['wall_ms']):10.1f} ms  "
        f"self {float(span['self_ms']):10.1f} ms{suffix}"
    )
    for child in span.get("children") or []:
        _format_span(child, depth + 1, lines)


def format_manifest(payload: Dict[str, object], top: int = 10) -> str:
    """Human-readable rendering of a ``telemetry.json`` payload."""
    lines: List[str] = ["run manifest"]
    for key in ("seed", "git_sha", "python", "numpy", "platform"):
        value = payload.get(key)
        if value is not None and value != "":
            lines.append(f"  {key:10s} {value}")
    scenario = payload.get("scenario") or {}
    if scenario:
        rendered = ", ".join(
            f"{k}={v}" for k, v in sorted(scenario.items())
        )
        lines.append(f"  scenario   {rendered}")
    config = payload.get("config") or {}
    if config:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
        lines.append(f"  config     {rendered}")
    executor = payload.get("executor") or {}
    if executor:
        flat = {k: v for k, v in executor.items() if not isinstance(v, dict)}
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(flat.items()))
        lines.append(f"  executor   {rendered}")
        for key, nested in sorted(executor.items()):
            if isinstance(nested, dict):
                rendered = ", ".join(
                    f"{k}={v}" for k, v in sorted(nested.items())
                )
                lines.append(f"    {key}: {rendered}")
    experiments = payload.get("experiments") or {}
    if experiments:
        n_passed = sum(1 for e in experiments.values() if e.get("passed"))
        lines.append(
            f"  experiments {n_passed}/{len(experiments)} passed"
        )
        for name, entry in experiments.items():
            if not entry.get("passed"):
                failed = ", ".join(entry.get("failed_checks") or [])
                lines.append(f"    FAIL {name}: {failed}")
    spans = (payload.get("trace") or {}).get("spans") or []
    if spans:
        lines.append("")
        lines.append("span tree (total / self wall time):")
        for span in spans:
            _format_span(span, 1, lines)
    counters = (payload.get("metrics") or {}).get("counters") or {}
    if counters:
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        lines.append("")
        lines.append(f"top counters ({min(top, len(ranked))}):")
        for name, value in ranked[:top]:
            lines.append(f"  {name:40s} {value:>14,}")
    timers = (payload.get("metrics") or {}).get("timers") or {}
    if timers:
        lines.append("")
        lines.append("timers:")
        for name, stats in sorted(timers.items()):
            if not stats.get("count"):
                continue
            lines.append(
                f"  {name:40s} n={stats['count']:<5d} "
                f"total={stats['total']:.3f}s p50={stats['p50']:.3f}s "
                f"max={stats['max']:.3f}s"
            )
    return "\n".join(lines)
