"""repro.api: the unified experiment API (spec -> registry -> engine -> store).

One declarative front door runs every paper deliverable:

>>> from repro.api import run
>>> report = run("figure4", scale="ci", backend="vectorized")
>>> print(report.render())

* :class:`ExperimentSpec` / :class:`Budget` — declarative experiment
  descriptions (designs x hidden sizes x envs x seeds x budget), JSON
  round-trippable and content-addressable.
* :mod:`~repro.api.registry` — named specs: ``figure4``, ``figure5``,
  ``table2`` (alias), ``table3``, plus :func:`register_experiment` for
  user scenarios.
* :func:`run` — the single engine; every trial routes through
  :class:`~repro.parallel.sweep.SweepRunner` on the serial, vectorized or
  process backend.
* :class:`ArtifactStore` — content-addressed per-trial results on disk,
  giving ``repro run`` cheap resume and cross-run caching.
* ``python -m repro`` (:mod:`~repro.api.cli`) — ``list`` / ``run`` /
  ``report`` from the shell.
"""

from repro.api.engine import BACKENDS, RunReport, TrialRecord, run
from repro.api.registry import (
    CI_BUDGET,
    RegisteredExperiment,
    get_entry,
    get_spec,
    list_experiments,
    register_alias,
    register_experiment,
    unregister_experiment,
)
from repro.api.spec import Budget, EXPERIMENT_KINDS, ExperimentSpec
from repro.api.store import ArtifactStore, default_store_root, trial_key

__all__ = [
    "ArtifactStore",
    "BACKENDS",
    "Budget",
    "CI_BUDGET",
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "RegisteredExperiment",
    "RunReport",
    "TrialRecord",
    "default_store_root",
    "get_entry",
    "get_spec",
    "list_experiments",
    "register_alias",
    "register_experiment",
    "run",
    "trial_key",
    "unregister_experiment",
]
