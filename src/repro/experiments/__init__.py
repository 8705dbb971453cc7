"""Per-experiment modules behind a declarative registry.

Importing this package imports every experiment module in paper order;
each one self-registers via :func:`repro.experiments.base.register`,
populating :data:`REGISTRY` (rich :class:`ExperimentSpec` objects).

The public entry points are :func:`run_experiment` and
:func:`run_all` (with optional ``jobs=N`` parallelism) from
:mod:`repro.experiments.executor`.
"""

from __future__ import annotations

from repro.experiments.base import (
    REGISTRY,
    ExperimentResult,
    ExperimentSpec,
    PipelineConfig,
    all_specs,
    get_spec,
    register,
    resolve_specs,
    traced_experiment,
)

# Import order == paper order; it determines REGISTRY order
# and hence the order run_all executes and reports in.
from repro.experiments.fig01 import run_fig01
from repro.experiments.fig02 import run_fig02
from repro.experiments.fig03 import run_fig03
from repro.experiments.fig04 import run_fig04
from repro.experiments.fig05 import run_fig05
from repro.experiments.fig06 import run_fig06
from repro.experiments.fig07 import run_fig07
from repro.experiments.fig08 import run_fig08
from repro.experiments.fig09 import run_fig09
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.tables import run_table1, run_table2
from repro.experiments.disc09 import run_disc09

from repro.experiments.executor import run_all, run_experiment
from repro.experiments.runner import (
    Experiment,
    format_grid_manifest,
    load_grid,
    measure_expectation,
    repeat_seed,
    run_grid_cell,
)

__all__ = [
    "Experiment",
    "REGISTRY",
    "ExperimentResult",
    "ExperimentSpec",
    "PipelineConfig",
    "all_specs",
    "format_grid_manifest",
    "get_spec",
    "load_grid",
    "measure_expectation",
    "register",
    "repeat_seed",
    "resolve_specs",
    "run_all",
    "run_disc09",
    "run_experiment",
    "run_fig01",
    "run_fig02",
    "run_fig03",
    "run_fig04",
    "run_fig05",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_grid_cell",
    "run_table1",
    "run_table2",
    "traced_experiment",
]
