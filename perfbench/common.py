"""Shared helpers: environment stamp, memory, quantiles, layer clock."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

#: The program's layers, in pipeline order.  A traced run splits each
#: workload's wall time across these plus an ``unattributed`` rest.
LAYERS = ("synth", "core", "experiments", "flows", "query", "procpool")

#: Stamp fields that must agree before two results may be compared.
ENV_KEYS = ("cores", "start_method", "python", "numpy")


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; 0 if empty."""
    if not len(values):
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: Path) -> str:
    # Only ask git inside a checkout that has its own .git, so the
    # lookup never climbs into directories above the checkout.
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_digest(root: Path) -> str:
    """sha256 over the program's sources: identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp(root: Path) -> Dict[str, object]:
    """Where and on what a result was measured."""
    from repro.query import procpool

    method = procpool.start_method() if procpool.processes_supported() \
        else "thread"
    return {
        "sha": _git_sha(root),
        "src_digest": _src_digest(root),
        "cores": len(os.sched_getaffinity(0)),
        "start_method": method,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def comparable(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Stamp fields on which two results differ (empty: comparable)."""
    return [key for key in ENV_KEYS if a.get(key) != b.get(key)]


def outermost(spans: Iterable, prefix: Union[str, Tuple[str, ...]]
              ) -> Iterator:
    """Spans named ``prefix...`` (any of a tuple) not nested in another."""
    for span in spans:
        if span.name.startswith(prefix):
            yield span
        else:
            yield from outermost(span.children, prefix)


class Layers:
    """Wall-clock attribution for one traced run.

    Workloads add the seconds each layer spent inside the run's timed
    intervals; ``wall`` accumulates those intervals.  Whatever the
    layers do not explain is reported as ``unattributed``, so the
    reported parts always sum to the wall time.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.wall = 0.0

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds

    @contextmanager
    def timed(self, layer: str) -> Iterator[None]:
        """Attribute the body's wall time to ``layer``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(layer, time.perf_counter() - t0)

    def metrics(self) -> Dict[str, float]:
        out = {f"layer.{name}_s": value for name, value in self.seconds.items()}
        out["layer.unattributed_s"] = self.wall - sum(self.seconds.values())
        out["layer.wall_s"] = self.wall
        return out


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
