"""Scenario-grid experiment runner.

An :class:`Experiment` sweeps a grid of declarative
:class:`~repro.synth.spec.ScenarioSpec` world descriptions ×
``nb_repeats`` reseeded repetitions through the existing experiment
registry/executor and the fingerprint-keyed
:class:`~repro.synth.datasets.DatasetCache`:

* every repeat derives its seed with
  :func:`~repro.synth.seeds.child_seed` (repeat 0 keeps the spec's own
  seed, so single-repeat grids reproduce plain ``run_all`` results),
* every cell runs the paper analyses *blind* — they see only generated
  flows and aggregates — and additionally re-derives each planted
  shift declared in the spec's :class:`~repro.synth.spec.Expectation`
  list from those same data products,
* all cells share one dataset cache: entry tokens are keyed by each
  world's canonical fingerprint, so scenarios never collide and
  repeated requests within a cell are shared across analyses,
* with ``cell_procs > 1`` the grid's cells are distributed across
  worker *processes* (``repro experiment --procs N``): each cell is an
  independent (scenario, repeat) world, so cells scale without GIL
  contention; workers keep a private per-process dataset cache, and
  cell payloads come back as picklable results,
* cross-run statistics (per-metric mean/std/min/max, per-check and
  per-expectation pass rates, wall times, cache stats) are aggregated
  into a JSON-serializable grid manifest.

The design follows the ``scenarios_list``/``nb_repeats`` experiment
grid of mplc-style reproducibility harnesses.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.experiments.base import ExperimentResult, PipelineConfig
from repro.experiments.executor import run_all
from repro.synth import datasets
from repro.synth.scenario import Scenario, build_scenario
from repro.synth.seeds import child_seed
from repro.synth.spec import Expectation, ScenarioSpec, spec_from_dict

#: Version marker for the grid-manifest payload layout.
GRID_SCHEMA = "lockdown-effect/experiment-grid@1"


def repeat_seed(spec: ScenarioSpec, repeat: int) -> int:
    """The root seed of one repetition of a scenario.

    Repeat 0 keeps the spec's own seed (a one-repeat grid reproduces a
    plain run bit for bit); later repeats derive collision-free child
    seeds so their worlds are independent draws of the same spec.
    """
    if repeat == 0:
        return spec.seed
    return child_seed(spec.seed, f"repeat-{repeat}")


def measure_expectation(
    scenario: Scenario,
    expectation: Expectation,
    config: Optional[PipelineConfig] = None,
) -> float:
    """Re-derive one planted shift blind from generated data products.

    Returns the measured window-over-baseline ratio.  Only generated
    outputs are consulted — hourly aggregate series for
    ``"volume-shift"``, sampled flow tables fetched through the dataset
    cache for ``"flow-shift"`` — never the event parameters that
    planted the shift.
    """
    profiles = expectation.profiles or None

    def mean_hourly_volume(start, end) -> float:
        if expectation.kind == "volume-shift":
            series = scenario.vantage(expectation.vantage).hourly_traffic(
                start, end, profiles=profiles
            )
            return series.total() / len(series)
        fidelity = (config or PipelineConfig()).survey_fidelity
        table = datasets.fetch(
            scenario,
            datasets.flows_request(
                expectation.vantage, start, end, fidelity, profiles=profiles
            ),
        )
        hours = 24 * ((end - start).days + 1)
        return float(np.sum(table.column("n_bytes"))) / hours

    window = mean_hourly_volume(*expectation.window)
    baseline = mean_hourly_volume(*expectation.baseline)
    if baseline <= 0:
        raise ValueError(
            f"expectation {expectation.label or expectation.kind!r}: "
            "baseline window has no traffic"
        )
    return window / baseline


def _expectation_holds(expectation: Expectation, ratio: float) -> bool:
    if expectation.min_ratio is not None and ratio < expectation.min_ratio:
        return False
    if expectation.max_ratio is not None and ratio > expectation.max_ratio:
        return False
    return True


def run_grid_cell(
    spec: ScenarioSpec,
    repeat: int,
    experiment_ids: Optional[Sequence[str]],
    config: Optional[PipelineConfig],
    jobs: int,
    cache: Optional[datasets.DatasetCache] = None,
) -> Dict[str, object]:
    """Build one (scenario, repeat) world and run its analyses.

    The cell body shared by the in-process grid loop and the
    process-distributed path: derive the repeat seed, build the world,
    run the registered analyses with crash capture, then re-derive
    every planted expectation blind.  Top-level so process workers can
    import it by reference.
    """
    seed = repeat_seed(spec, repeat)
    derived = spec.with_seed(seed)
    started = time.perf_counter()
    if cache is None:
        cache = datasets.DatasetCache()
    with obs.span(f"grid/{spec.name}/repeat-{repeat}"):
        scenario = build_scenario(spec=derived)
        with datasets.use_cache(cache):
            results = run_all(
                scenario,
                config,
                experiment_ids=experiment_ids,
                jobs=jobs,
                on_error="capture",
            )
            expectations = []
            for expectation in spec.expectations:
                ratio = measure_expectation(scenario, expectation, config)
                expectations.append(
                    (expectation, ratio,
                     _expectation_holds(expectation, ratio))
                )
    return {
        "seed": seed,
        "fingerprint": derived.fingerprint,
        "results": results,
        "expectations": expectations,
        "wall_s": time.perf_counter() - started,
    }


#: Per-worker dataset cache for process-distributed cells: one cache
#: per worker process, shared by every cell that worker runs (cells on
#: the same scenario fingerprint share entries; different scenarios
#: are token-isolated as usual).
_GRID_WORKER_CACHE: Optional[datasets.DatasetCache] = None


def _portable_result(result: ExperimentResult) -> ExperimentResult:
    """Make a result safe to ship across the process boundary.

    ``data`` is a free-form attachment (arrays, exceptions, figure
    payloads); anything that does not pickle is dropped rather than
    failing the cell — metrics, checks, and rendered output are what
    the grid manifest consumes.
    """
    try:
        pickle.dumps(result.data, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        result.data = None
    return result


def _grid_cell_in_process(
    spec: ScenarioSpec,
    repeat: int,
    experiment_ids: Optional[Sequence[str]],
    config: Optional[PipelineConfig],
    jobs: int,
) -> Dict[str, object]:
    """Worker-side grid cell: private cache, picklable payload."""
    global _GRID_WORKER_CACHE
    if _GRID_WORKER_CACHE is None:
        _GRID_WORKER_CACHE = datasets.DatasetCache()
    cell = run_grid_cell(
        spec, repeat, experiment_ids, config, jobs,
        cache=_GRID_WORKER_CACHE,
    )
    cell["results"] = [_portable_result(result) for result in cell["results"]]
    return cell


def _stats(values: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


class Experiment:
    """A scenario grid: ``scenarios_list`` × ``nb_repeats`` analysis runs."""

    def __init__(
        self,
        scenarios_list: Sequence[ScenarioSpec] = (),
        nb_repeats: int = 1,
        experiment_ids: Optional[Sequence[str]] = None,
        config: Optional[PipelineConfig] = None,
        jobs: int = 1,
        cache: Optional[datasets.DatasetCache] = None,
        name: str = "experiment-grid",
        cell_procs: int = 1,
    ):
        if nb_repeats < 1:
            raise ValueError("nb_repeats must be >= 1")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if cell_procs < 1:
            raise ValueError("cell_procs must be >= 1")
        self.name = name
        self.scenarios_list: List[ScenarioSpec] = []
        for spec in scenarios_list:
            self.add_scenario(spec)
        self.nb_repeats = nb_repeats
        self.experiment_ids = (
            tuple(experiment_ids) if experiment_ids is not None else None
        )
        self.config = config
        self.jobs = jobs
        #: Worker processes cells are distributed across (1 = in
        #: process); falls back to the in-process loop on platforms
        #: without fork/forkserver or under ``REPRO_NO_PROCPOOL``.
        self.cell_procs = cell_procs
        #: One fingerprint-keyed cache shared by every grid cell.
        self.cache = cache if cache is not None else datasets.DatasetCache()

    def add_scenario(self, spec) -> None:
        """Append one scenario (a spec or its dict form) to the grid."""
        if isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"scenarios must be ScenarioSpec or dict, got {type(spec)!r}"
            )
        if any(s.name == spec.name for s in self.scenarios_list):
            raise ValueError(f"duplicate scenario name {spec.name!r}")
        self.scenarios_list.append(spec)

    # -- execution ---------------------------------------------------------

    def _ids_for(self, spec: ScenarioSpec) -> Optional[Sequence[str]]:
        """Experiment ids one scenario runs (None = full registry)."""
        if spec.experiments:
            return spec.experiments
        return self.experiment_ids

    def _run_cell(
        self, spec: ScenarioSpec, repeat: int
    ) -> Dict[str, object]:
        """Build one world and run its analyses + blind re-derivations."""
        return run_grid_cell(
            spec, repeat, self._ids_for(spec), self.config, self.jobs,
            cache=self.cache,
        )

    def _cell_pool_kind(self) -> str:
        """How cells will execute: ``"process"`` or ``"serial"``."""
        if self.cell_procs <= 1:
            return "serial"
        from repro.query import procpool

        return "process" if procpool.processes_supported() else "serial"

    def _run_cells(self) -> Dict[str, List[Dict[str, object]]]:
        """All (scenario, repeat) cells, keyed by scenario name.

        With ``cell_procs > 1`` on a capable platform, cells fan out
        across a process pool and land back in grid order; otherwise
        they run in process, sequentially, sharing ``self.cache``.
        """
        if self._cell_pool_kind() != "process":
            return {
                spec.name: [
                    self._run_cell(spec, repeat)
                    for repeat in range(self.nb_repeats)
                ]
                for spec in self.scenarios_list
            }
        import concurrent.futures as _cf
        import multiprocessing

        from repro.query import procpool

        width = min(
            self.cell_procs,
            max(1, len(self.scenarios_list) * self.nb_repeats),
        )
        cells: Dict[str, List[Optional[Dict[str, object]]]] = {
            spec.name: [None] * self.nb_repeats
            for spec in self.scenarios_list
        }
        with _cf.ProcessPoolExecutor(
            max_workers=width,
            mp_context=multiprocessing.get_context(procpool.start_method()),
        ) as pool:
            futures = {
                pool.submit(
                    _grid_cell_in_process, spec, repeat,
                    self._ids_for(spec), self.config, self.jobs,
                ): (spec.name, repeat)
                for spec in self.scenarios_list
                for repeat in range(self.nb_repeats)
            }
            for future in _cf.as_completed(futures):
                name, repeat = futures[future]
                cells[name][repeat] = future.result()
        return cells  # type: ignore[return-value]

    def run(self) -> Dict[str, object]:
        """Run the full grid and return the aggregated manifest."""
        grid_started = time.perf_counter()
        cell_pool = self._cell_pool_kind()
        all_cells = self._run_cells()
        scenarios: Dict[str, Dict[str, object]] = {
            spec.name: self._aggregate(spec, all_cells[spec.name])
            for spec in self.scenarios_list
        }
        manifest: Dict[str, object] = {
            "schema": GRID_SCHEMA,
            "name": self.name,
            "nb_repeats": self.nb_repeats,
            "jobs": self.jobs,
            "cell_procs": self.cell_procs,
            "cell_pool": cell_pool,
            "config": (
                {
                    "flow_fidelity": (self.config or PipelineConfig()).flow_fidelity,
                    "survey_fidelity": (self.config or PipelineConfig()).survey_fidelity,
                    "edu_fidelity": (self.config or PipelineConfig()).edu_fidelity,
                }
            ),
            "scenarios": scenarios,
            "wall_s": time.perf_counter() - grid_started,
            "dataset_cache": self.cache.stats.to_dict(),
            "passed": all(
                entry["passed"] for entry in scenarios.values()
            ),
        }
        return manifest

    def _aggregate(
        self, spec: ScenarioSpec, cells: List[Dict[str, object]]
    ) -> Dict[str, object]:
        """Cross-repeat statistics for one scenario."""
        experiments: Dict[str, Dict[str, object]] = {}
        result_lists: Dict[str, List[ExperimentResult]] = {}
        for cell in cells:
            for result in cell["results"]:
                result_lists.setdefault(result.experiment_id, []).append(
                    result
                )
        for experiment_id, results in result_lists.items():
            metrics: Dict[str, Dict[str, float]] = {}
            for name in sorted(results[0].metrics):
                values = [
                    float(r.metrics[name])
                    for r in results
                    if name in r.metrics
                ]
                if values:
                    metrics[name] = _stats(values)
            checks = {
                name: sum(
                    1 for r in results if r.checks.get(name)
                ) / len(results)
                for name in sorted(results[0].checks)
            }
            experiments[experiment_id] = {
                "repeats": len(results),
                "pass_rate": sum(1 for r in results if r.passed)
                / len(results),
                "checks": checks,
                "metrics": metrics,
            }
        expectations: List[Dict[str, object]] = []
        for index in range(len(spec.expectations)):
            entries = [cell["expectations"][index] for cell in cells]
            expectation = entries[0][0]
            ratios = [ratio for _, ratio, _ in entries]
            holds = [held for _, _, held in entries]
            expectations.append(
                {
                    "label": expectation.label
                    or f"{expectation.kind}/{expectation.vantage}",
                    "kind": expectation.kind,
                    "vantage": expectation.vantage,
                    "bounds": [
                        expectation.min_ratio, expectation.max_ratio
                    ],
                    "ratios": ratios,
                    "ratio": _stats(ratios),
                    "pass_rate": sum(holds) / len(holds),
                    "passed": all(holds),
                }
            )
        all_results = [r for cell in cells for r in cell["results"]]
        passed = all(r.passed for r in all_results) and all(
            entry["passed"] for entry in expectations
        )
        return {
            "fingerprint": spec.fingerprint,
            "seeds": [cell["seed"] for cell in cells],
            "fingerprints": [cell["fingerprint"] for cell in cells],
            "experiments": experiments,
            "expectations": expectations,
            "wall_s": float(sum(cell["wall_s"] for cell in cells)),
            "passed": passed,
        }


def load_grid(path) -> Dict[str, object]:
    """Load a grid spec file (plain python, executed with ``runpy``).

    The file must define either ``GRID`` (a dict with ``scenarios`` and
    optionally ``name``/``repeats``) or ``SCENARIOS`` (a list of
    scenario dicts / :class:`~repro.synth.spec.ScenarioSpec` objects).
    Returns ``{"name": ..., "scenarios": [ScenarioSpec, ...],
    "repeats": ... or None}``.
    """
    import runpy
    from pathlib import Path

    namespace = runpy.run_path(str(path))
    if "GRID" in namespace:
        payload = dict(namespace["GRID"])
        raw = payload.get("scenarios", ())
        name = str(payload.get("name", Path(path).stem))
        repeats = payload.get("repeats")
    elif "SCENARIOS" in namespace:
        raw = namespace["SCENARIOS"]
        name = Path(path).stem
        repeats = None
    else:
        raise ValueError(
            f"spec file {path} defines neither GRID nor SCENARIOS"
        )
    specs = [
        entry if isinstance(entry, ScenarioSpec) else spec_from_dict(entry)
        for entry in raw
    ]
    if not specs:
        raise ValueError(f"spec file {path} declares no scenarios")
    return {
        "name": name,
        "scenarios": specs,
        "repeats": None if repeats is None else int(repeats),
    }


def format_grid_manifest(manifest: Mapping[str, object]) -> str:
    """Human-readable one-screen summary of a grid manifest."""
    lines = [
        f"experiment grid '{manifest['name']}': "
        f"{len(manifest['scenarios'])} scenario(s) x "
        f"{manifest['nb_repeats']} repeat(s) "
        f"in {float(manifest['wall_s']):.1f}s"
    ]
    for name, entry in manifest["scenarios"].items():
        verdict = "pass" if entry["passed"] else "FAIL"
        lines.append(
            f"  [{verdict}] {name}  "
            f"(fingerprint {str(entry['fingerprint'])[:12]}..., "
            f"{float(entry['wall_s']):.1f}s)"
        )
        for experiment_id, agg in entry["experiments"].items():
            rate = agg["pass_rate"]
            if rate < 1.0:
                failing = [
                    check for check, check_rate in agg["checks"].items()
                    if check_rate < 1.0
                ]
                lines.append(
                    f"      {experiment_id}: pass rate {rate:.2f} "
                    f"({', '.join(failing)})"
                )
        for expectation in entry["expectations"]:
            stats = expectation["ratio"]
            bounds = expectation["bounds"]
            lines.append(
                f"      {'ok ' if expectation['passed'] else 'MISS'} "
                f"{expectation['label']}: ratio "
                f"{stats['mean']:.3f} "
                f"[{stats['min']:.3f}, {stats['max']:.3f}] "
                f"vs bounds [{bounds[0]}, {bounds[1]}]"
            )
    cache = manifest.get("dataset_cache") or {}
    if cache:
        lines.append(
            f"  dataset cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses"
        )
    return "\n".join(lines)
