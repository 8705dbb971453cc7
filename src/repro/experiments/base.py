"""Experiment registry: declarative specs and shared result types.

Each module in :mod:`repro.experiments` defines one ``run_*`` function
and self-registers it with the :func:`register` decorator, declaring

* its id and title (``fig01`` … ``fig12``, ``table1``/``2``, ``disc09``),
* the paper anchor it reproduces (``"Fig. 1"``, ``"Table 2"``, ``"§9"``),
* the datasets it needs, as a function producing
  :class:`~repro.synth.datasets.DatasetRequest` keys from
  ``(scenario, config)`` — the executor uses these to pre-materialize
  shared inputs and to schedule experiments as their data becomes
  ready,
* whether it needs a scenario at all (the tables do not).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.synth.datasets import DatasetRequest


@dataclass(frozen=True)
class PipelineConfig:
    """Sampling fidelity for the flow-level experiments."""

    flow_fidelity: float = 1.0  # weekly flow tables (Figs 5-10)
    survey_fidelity: float = 0.15  # long-period flows (Figs 4, 8)
    edu_fidelity: float = 5.0  # EDU capture (Figs 11, 12)

    @classmethod
    def fast(cls) -> "PipelineConfig":
        """Cheaper settings for unit/integration tests."""
        return cls(flow_fidelity=0.5, survey_fidelity=0.08, edu_fidelity=3.0)


@dataclass
class ExperimentResult:
    """Outcome of one reproduced table or figure."""

    experiment_id: str
    title: str
    metrics: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    rendered: str = ""
    data: object = None

    @property
    def passed(self) -> bool:
        """Whether checks were recorded and every one held.

        An empty check dict means the experiment never got far enough
        to assert anything (e.g. it crashed mid-run), which must not
        read as a pass.
        """
        return bool(self.checks) and all(self.checks.values())

    def failed_checks(self) -> List[str]:
        """Names of checks that did not hold."""
        return [name for name, ok in self.checks.items() if not ok]


#: Produces an experiment's dataset requests from (scenario, config).
DatasetsFn = Callable[..., Tuple[DatasetRequest, ...]]

Runner = Callable[..., ExperimentResult]


def _no_datasets(scenario: object = None,
                 config: object = None) -> Tuple[DatasetRequest, ...]:
    return ()


def traced_experiment(
    func: Optional[Runner] = None, *, experiment_id: Optional[str] = None
) -> Runner:
    """Wrap a ``run_*`` function in a tracing span and run counters.

    Usable bare (``@traced_experiment`` — the id is taken from the
    function name) or with an explicit id (as :func:`register` does).
    No-op (beyond a couple of attribute lookups) while telemetry is
    disabled.
    """
    if func is None:
        return functools.partial(traced_experiment, experiment_id=experiment_id)
    span_id = experiment_id or func.__name__[len("run_"):]

    @functools.wraps(func)
    def wrapper(*args: object, **kwargs: object) -> ExperimentResult:
        with obs.span(f"experiment/{span_id}") as span:
            result = func(*args, **kwargs)
            span.set_metric("checks", len(result.checks))
            span.set_metric("failed-checks", len(result.failed_checks()))
            span.set_metric("metrics", len(result.metrics))
        registry = obs.get_registry()
        registry.counter("experiments.runs").inc()
        registry.counter("experiments.checks").inc(len(result.checks))
        if not result.passed:
            registry.counter("experiments.failed").inc()
        return result

    return wrapper


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, anchor, needs, and runner."""

    id: str
    title: str
    anchor: str
    runner: Runner
    datasets: DatasetsFn = _no_datasets
    needs_scenario: bool = True

    def dataset_requests(
        self, scenario, config: Optional[PipelineConfig]
    ) -> Tuple[DatasetRequest, ...]:
        """The experiment's declared dataset keys for this run."""
        return tuple(self.datasets(scenario, config or PipelineConfig()))


#: Registered experiments in paper order (insertion order of modules).
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(
    experiment_id: str,
    title: str,
    anchor: str,
    *,
    datasets: Optional[DatasetsFn] = None,
    needs_scenario: bool = True,
) -> Callable[[Runner], Runner]:
    """Decorator: trace the runner and add its spec to the registry.

    Returns the traced runner, so the module-level ``run_*`` name is
    instrumented too.
    """

    def decorate(func: Runner) -> Runner:
        if experiment_id in REGISTRY:
            raise ValueError(
                f"experiment {experiment_id!r} registered twice"
            )
        runner = traced_experiment(func, experiment_id=experiment_id)
        REGISTRY[experiment_id] = ExperimentSpec(
            id=experiment_id,
            title=title,
            anchor=anchor,
            runner=runner,
            datasets=datasets or _no_datasets,
            needs_scenario=needs_scenario,
        )
        return runner

    return decorate


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one spec by id; raises ``ValueError`` for unknown ids."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"have {sorted(REGISTRY)}"
        ) from None


def all_specs() -> List[ExperimentSpec]:
    """Every registered spec, in paper order."""
    return list(REGISTRY.values())


def resolve_specs(
    experiment_ids: Optional[Sequence[str]] = None,
) -> List[ExperimentSpec]:
    """Specs for the given ids (default: all), preserving request order."""
    if experiment_ids is None:
        return all_specs()
    return [get_spec(experiment_id) for experiment_id in experiment_ids]
