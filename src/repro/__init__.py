"""Reproduction of "The Lockdown Effect" (IMC 2020).

Public API:

* :func:`repro.synth.build_scenario` — construct the synthetic world,
* :mod:`repro.core` — the paper's analyses (one module per figure
  family),
* :mod:`repro.experiments` — end-to-end experiment registry and
  runners regenerating every table and figure,
* :mod:`repro.flows` / :mod:`repro.netbase` / :mod:`repro.dns` — the
  substrates (flow tables, network metadata, domain corpus).
"""

__version__ = "1.0.0"

from repro.synth import Scenario, build_scenario

__all__ = ["Scenario", "build_scenario", "__version__"]
