"""Pipeline observability: metrics, tracing spans, logs, run manifests.

The package keeps one process-global :class:`~repro.obs.metrics.MetricsRegistry`
and one :class:`~repro.obs.trace.Tracer`.  Both default to no-op
implementations, so the instrumentation woven through the hot paths
(:mod:`repro.experiments`, :mod:`repro.synth.flowgen`,
:mod:`repro.flows.table`, :mod:`repro.query`) is effectively free
until someone opts in::

    from repro import obs

    obs.configure(telemetry=True, log_level="INFO")
    results = run_all()
    manifest = obs.build_manifest(results, seed=20200316)
    manifest.write("telemetry.json")

``lockdown-effect run --telemetry PATH`` does exactly this and the
``telemetry`` subcommand pretty-prints the result.

Instrumented code uses the module-level helpers, which always resolve
the *current* globals::

    with obs.span("flowgen/vod") as span:
        ...
        span.set_metric("flows", n)
    obs.counter("flowgen.flows").inc(n)

Guard work that only computes metric inputs with :func:`enabled` so the
disabled path stays zero-cost.
"""

from __future__ import annotations

from typing import IO, Optional, Union

from repro.obs.logs import (
    JsonFormatter,
    configure_logging,
    get_logger,
    log_event,
    reset_logging,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    format_manifest,
    git_sha,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
)
from repro.obs.prom import render_registry, render_snapshot
from repro.obs.server import MetricsServer
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "MetricsServer",
    "NullRegistry",
    "NullTracer",
    "RunManifest",
    "SlowQueryLog",
    "Span",
    "Timer",
    "Tracer",
    "build_manifest",
    "configure",
    "configure_logging",
    "counter",
    "enabled",
    "format_manifest",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "git_sha",
    "histogram",
    "log_event",
    "prometheus_text",
    "render_registry",
    "render_snapshot",
    "reset",
    "reset_logging",
    "set_registry",
    "set_tracer",
    "span",
    "timer",
]

_registry: MetricsRegistry = NullRegistry()
_tracer: Tracer = NullTracer()
_enabled: bool = False


def enabled() -> bool:
    """Whether telemetry (metrics + tracing) is currently collected."""
    return _enabled


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry (a no-op one by default)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> None:
    """Install ``registry`` as the process-global metrics registry."""
    global _registry, _enabled
    _registry = registry
    _enabled = registry.enabled or _tracer.enabled


def get_tracer() -> Tracer:
    """The process-global tracer (a no-op one by default)."""
    return _tracer


def set_tracer(tracer: Tracer) -> None:
    """Install ``tracer`` as the process-global tracer."""
    global _tracer, _enabled
    _tracer = tracer
    _enabled = _registry.enabled or tracer.enabled


def configure(
    telemetry: bool = True,
    log_level: Optional[Union[int, str]] = None,
    log_stream: Optional[IO[str]] = None,
    json_logs: bool = True,
) -> None:
    """Entry point: enable telemetry and/or structured logging.

    ``telemetry=True`` installs a fresh registry and tracer (dropping
    anything previously collected); ``log_level`` additionally routes
    ``repro.*`` log events to ``log_stream`` (default stderr) as JSON.
    """
    if telemetry:
        set_registry(MetricsRegistry())
        set_tracer(Tracer())
    if log_level is not None:
        configure_logging(log_level, stream=log_stream, json_output=json_logs)


def reset() -> None:
    """Back to the defaults: no-op telemetry, unconfigured logging."""
    set_registry(NullRegistry())
    set_tracer(NullTracer())
    reset_logging()


def span(name: str):
    """Open a span on the current tracer (no-op when disabled)."""
    return _tracer.span(name)


def counter(name: str) -> Counter:
    """Look up a counter on the current registry."""
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """Look up a gauge on the current registry."""
    return _registry.gauge(name)


def histogram(name: str) -> Histogram:
    """Look up a histogram on the current registry."""
    return _registry.histogram(name)


def timer(name: str) -> Timer:
    """Look up a timer on the current registry."""
    return _registry.timer(name)


def prometheus_text() -> str:
    """The current registry in Prometheus text exposition format."""
    return render_registry(_registry)
