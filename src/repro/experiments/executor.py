"""Running registered experiments: :func:`run_all` and :func:`run_experiment`.

:func:`run_all` is the one way experiments run, whatever the caller
(``repro run``, ``repro report``, the scenario grid, ``perfbench``).
It takes specs and returns
:class:`~repro.experiments.base.ExperimentResult` objects in paper
order:

* ``jobs <= 1`` runs the experiments one by one on the calling thread.
  Each runner fetches its own datasets, so ``dataset/`` spans nest
  under its ``experiment/`` span.
* ``jobs > 1`` runs them on a thread pool with dataset-ready
  scheduling: every distinct
  :class:`~repro.synth.datasets.DatasetRequest` is materialized once on
  the pool, and an experiment is submitted as soon as all of its
  declared datasets are in the cache.  Experiments that share a key
  (e.g. Figs 11/12's EDU capture) never materialize it twice.  The
  pool is ``jobs`` wide, capped by the run's schedulable work and the
  machine's cores; its ``executor/parallel`` span records that width.

Both give identical metrics and checks, because every dataset key is a
deterministic function of the scenario and config.  With
``on_error="capture"`` an experiment that raises becomes a failed
result (and an ``experiment-crashed`` log event) instead of ending the
run.
"""

from __future__ import annotations

import concurrent.futures as _cf
import logging
import os
from typing import Dict, List, Optional, Sequence, Set

import repro.obs as obs
from repro.experiments.base import (
    ExperimentResult,
    ExperimentSpec,
    PipelineConfig,
    get_spec,
    resolve_specs,
)
from repro.synth import datasets as datasets_mod
from repro.synth.datasets import DatasetRequest
from repro.synth.scenario import Scenario, build_scenario

_LOGGER = obs.get_logger("experiments")


def _crash_result(spec: ExperimentSpec, exc: BaseException) -> ExperimentResult:
    """A failed result standing in for an experiment that raised."""
    error = f"{type(exc).__name__}: {exc}"
    obs.log_event(
        _LOGGER, "experiment-crashed", level=logging.ERROR,
        experiment=spec.id, error=error,
    )
    result = ExperimentResult(spec.id, spec.title)
    result.checks["experiment crashed"] = False
    result.rendered = f"CRASH: {error}"
    result.data = exc
    return result


def _run_one(
    spec: ExperimentSpec,
    scenario: Optional[Scenario],
    config: Optional[PipelineConfig],
    on_error: str,
) -> ExperimentResult:
    try:
        return spec.runner(scenario, config)
    except Exception as exc:
        if on_error == "capture":
            return _crash_result(spec, exc)
        raise


def _width(
    jobs: int,
    specs: Sequence[ExperimentSpec],
    needs: Dict[str, Set[DatasetRequest]],
    n_datasets: int,
) -> int:
    """Threads the run can actually keep busy.

    A fixed ``--jobs N`` pool is counterproductive when the schedulable
    width is smaller: threads beyond the number of runnable tasks
    (distinct datasets plus dataset-free experiments, later at most one
    task per experiment) or beyond the machine's cores only add
    GIL/scheduler contention — on a single-core container a ``--jobs
    4`` run measured *slower* than serial.  Cap the pool by both.
    """
    ready_now = sum(1 for spec in specs if not needs[spec.id])
    schedulable = max(n_datasets + ready_now, len(specs))
    return max(1, min(jobs, schedulable, os.cpu_count() or 1))


def _run_parallel(
    specs: Sequence[ExperimentSpec],
    scenario: Optional[Scenario],
    config: Optional[PipelineConfig],
    jobs: int,
    on_error: str,
) -> List[ExperimentResult]:
    """Dataset-ready scheduling on a thread pool.

    Phase 1 submits every distinct dataset request to the pool (the
    cache's per-key locks make concurrent fetches of the same key
    materialize once).  Phase 2 submits each experiment the moment the
    last of its declared datasets lands; experiments without declared
    datasets start immediately.  Results come back in paper order
    regardless of completion order.
    """
    cache = datasets_mod.get_cache()
    results: Dict[str, ExperimentResult] = {}
    pending = list(specs)
    outstanding: Set[_cf.Future] = set()
    experiment_ids: Dict[_cf.Future, str] = {}
    dataset_keys: Dict[_cf.Future, DatasetRequest] = {}
    first_error: Optional[BaseException] = None
    with obs.span("executor/parallel") as span:
        span.set_metric("experiments", len(specs))
        span.set_metric("jobs", jobs)
        # Which dataset keys gate which experiments.  With the cache
        # disabled there is nothing to share, so everything starts
        # immediately and each runner materializes its own data.
        needs: Dict[str, Set[DatasetRequest]] = {}
        distinct: Dict[DatasetRequest, None] = {}
        for spec in specs:
            requests = (
                spec.dataset_requests(scenario, config)
                if scenario is not None and cache.enabled
                else ()
            )
            needs[spec.id] = set(requests)
            for request in requests:
                distinct.setdefault(request)
        width = _width(jobs, specs, needs, len(distinct))
        with _cf.ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="repro-exp"
        ) as pool:

            def submit_ready() -> None:
                nonlocal pending
                still_waiting = []
                for spec in pending:
                    if needs[spec.id]:
                        still_waiting.append(spec)
                        continue
                    future = pool.submit(
                        _run_one, spec, scenario, config, on_error
                    )
                    experiment_ids[future] = spec.id
                    outstanding.add(future)
                pending = still_waiting

            for request in distinct:
                future = pool.submit(cache.fetch, scenario, request)
                dataset_keys[future] = request
                outstanding.add(future)
            submit_ready()
            while outstanding:
                done, _ = _cf.wait(
                    outstanding, return_when=_cf.FIRST_COMPLETED
                )
                outstanding.difference_update(done)
                for future in done:
                    if future in dataset_keys:
                        # A materialization error is not fatal here: the
                        # gated runner refetches the key and raises (or
                        # captures) with proper attribution.
                        future.exception()
                        request = dataset_keys[future]
                        for waiting in needs.values():
                            waiting.discard(request)
                    else:
                        experiment_id = experiment_ids[future]
                        try:
                            results[experiment_id] = future.result()
                        except BaseException as exc:
                            if first_error is None:
                                first_error = exc
                            pending = []
                if first_error is None:
                    submit_ready()
        span.set_metric("width", width)
    if first_error is not None:
        raise first_error
    return [results[spec.id] for spec in specs if spec.id in results]


def run_experiment(
    experiment_id: str,
    scenario: Optional[Scenario] = None,
    config: Optional[PipelineConfig] = None,
) -> ExperimentResult:
    """Run one experiment by id (``fig01`` ... ``fig12``, ``table1``/``2``)."""
    spec = get_spec(experiment_id)
    if scenario is None and spec.needs_scenario:
        scenario = build_scenario()
    return spec.runner(scenario, config)


def run_all(
    scenario: Optional[Scenario] = None,
    config: Optional[PipelineConfig] = None,
    *,
    experiment_ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    on_error: str = "raise",
) -> List[ExperimentResult]:
    """Run every experiment (or a subset) in paper order.

    ``jobs <= 1`` runs them inline on the calling thread; ``jobs > 1``
    runs them on the dataset-ready thread pool (see the module
    docstring).  ``on_error="capture"`` converts a crashing experiment
    into a failed :class:`ExperimentResult` instead of propagating the
    exception.
    """
    specs = resolve_specs(experiment_ids)
    if scenario is None and any(spec.needs_scenario for spec in specs):
        scenario = build_scenario()
    if jobs <= 1:
        return [_run_one(spec, scenario, config, on_error) for spec in specs]
    return _run_parallel(specs, scenario, config, jobs, on_error)
