"""The one front door: ``run(spec_or_name)`` executes any experiment spec.

Every trial — serial, vectorized, process-pooled or distributed — goes
through :class:`~repro.parallel.sweep.SweepRunner`, one engine with
interchangeable backends.  On top of that single code path the engine adds:

* **registry resolution** — pass ``"figure4"`` instead of building a spec;
* **artifact-store caching** — with a store attached, finished trials are
  content-addressed on disk and later runs of the same (or an overlapping)
  spec complete from cache instead of retraining;
* **uniform reporting** — the returned :class:`RunReport` renders the
  paper's tables/CSVs through :mod:`repro.api.reports`.

Library calls default to ``store=None`` (pure, no disk writes); the CLI
attaches a store so ``repro run`` resumes for free.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.api.registry import get_spec
from repro.api.spec import ExperimentSpec
from repro.api.store import ArtifactStore, trial_key
from repro.parallel.sweep import SweepRunner, SweepTask
from repro.training.records import TrainingResult
from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.api.engine")

#: Accepted ``backend=`` values (superset of SweepRunner's: same names).
BACKENDS = SweepRunner.BACKENDS


@dataclass
class TrialRecord:
    """One executed (or cache-restored) trial of a run."""

    task: SweepTask
    result: TrainingResult
    backend_used: str            #: "lockstep" | "process" | "serial" | "distributed"
    cached: bool = False         #: True when restored from the artifact store


@dataclass
class RunReport:
    """Everything one :func:`run` call produced, in spec grid order."""

    spec: ExperimentSpec
    backend: str
    trials: List[TrialRecord] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    store_root: Optional[str] = None
    resource_report: Optional[object] = None   #: set for kind="resource_table"
    #: Autoscaled distributed runs only: the :class:`~repro.fleet.FleetReport`
    #: of scale-up/drain events (``None`` otherwise).
    fleet_report: Optional[object] = None

    @property
    def cached_count(self) -> int:
        return sum(record.cached for record in self.trials)

    @property
    def executed_count(self) -> int:
        return len(self.trials) - self.cached_count

    def backend_counts(self) -> Dict[str, int]:
        return dict(Counter(record.backend_used for record in self.trials))

    def results(self) -> List[TrainingResult]:
        return [record.result for record in self.trials]

    # -------------------------------------------------------------- reporting
    # Thin delegates to repro.api.reports so presentation stays in one module.
    def summary_rows(self, *, platform=None) -> List[Dict[str, object]]:
        from repro.api import reports

        return reports.summary_rows(self, platform=platform)

    def render(self, *, platform=None) -> str:
        from repro.api import reports

        return reports.render(self, platform=platform)

    def summary_csv(self, *, platform=None) -> str:
        from repro.api import reports

        return reports.summary_csv(self, platform=platform)

    def to_training_curve_result(self):
        from repro.api import reports

        return reports.training_curve_result(self)

    def to_execution_time_result(self, *, platform=None):
        from repro.api import reports

        return reports.execution_time_result(self, platform=platform)


def run(spec_or_name: Union[str, ExperimentSpec], *, backend: str = "auto",
        scale: str = "paper", out: Optional[str] = None,
        store: Optional[ArtifactStore] = None, resume: bool = True,
        cache_only: bool = False, max_workers: Optional[int] = None,
        bind: Optional[str] = None, checkpoint_every: int = 0,
        lease_batch: Optional[int] = None, progress_every: int = 0,
        save_policy: bool = False, autoscale=None,
        journal: Optional[str] = None) -> RunReport:
    """Execute an experiment spec (or registered name) and return its report.

    Parameters
    ----------
    spec_or_name:
        An :class:`ExperimentSpec`, or the name of a registered experiment
        (``"figure4"``, ``"table3"``, a user-registered name, ...).
    backend:
        ``"auto"`` (vectorized with serial fallback), ``"vectorized"``,
        ``"process"``, ``"serial"`` or ``"distributed"`` — forwarded to
        :class:`~repro.parallel.sweep.SweepRunner`.  Every backend produces
        identical results; the choice is purely about throughput.
    scale:
        ``"paper"`` or ``"ci"`` — which registered variant a *name* resolves
        to.  Ignored when a spec object is passed.
    out:
        Artifact-store root.  Shorthand for ``store=ArtifactStore(out)``.
    store:
        An explicit :class:`ArtifactStore`.  ``None`` (and no ``out``) runs
        without caching — nothing is written to disk.
    resume:
        With a store attached, load cached trials instead of retraining
        (default).  ``False`` forces re-execution (artifacts are rewritten
        and stale mid-trial state snapshots are discarded).
    cache_only:
        Do not train at all: every trial must already be in the store
        (raises ``RuntimeError`` otherwise).  This is ``repro report``.
    max_workers:
        Pool size for the process backend, or the local worker count for
        the distributed backend.  ``None`` falls back to the spec's own
        :attr:`~repro.api.spec.ExperimentSpec.max_workers` hint (specs can
        cap per-trial workers without CLI flags), then to the runner's
        default.
    bind:
        Distributed backend only: ``"HOST:PORT"`` on which the broker
        accepts external ``repro worker --connect`` processes.
    checkpoint_every:
        Serial backend with a store: persist mid-trial training state every
        N episodes so an interrupted run resumes *inside* a trial
        (bit-for-bit).  0 disables.
    lease_batch:
        Distributed backend: cap on the tasks per worker lease, trained
        lock-step.  The default ``None`` leases each worker its share of
        the head task's lock-step key (see
        :func:`repro.distributed.run_distributed_sweep`).
    progress_every:
        Serial/vectorized backends: stream per-trial progress to stderr
        every N episodes.  0 disables.
    save_policy:
        Persist every freshly trained trial's final agent into the store
        (``trials/<key>/policy.pkl``) so ``repro serve`` can host it.
        Requires a store; serial/vectorized/process backends only (the
        distributed backend's agents live in worker processes).  Cached
        trials are *not* retrained just to produce a policy — pass
        ``resume=False`` to force a training pass that saves them.
    autoscale:
        Distributed backend only: ``True`` or a
        :class:`~repro.fleet.AutoscaleConfig` to run the worker fleet
        under the elastic autoscaler instead of a fixed ``max_workers``
        (see :class:`~repro.fleet.FleetAutoscaler`).  The fleet's
        :class:`~repro.fleet.FleetReport` is returned on
        :attr:`RunReport.fleet_report`; trial results are byte-identical
        to every other backend regardless of the scaling schedule.
    journal:
        Distributed backend only (``repro run --journal PATH``): the
        broker's crash-safety write-ahead journal.  An existing journal is
        replayed before serving, so re-running the same command after a
        broker SIGKILL resumes the sweep (completed trials done, in-flight
        leases requeued) instead of restarting it.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if isinstance(spec_or_name, ExperimentSpec):
        spec = spec_or_name
    else:
        spec = get_spec(spec_or_name, scale=scale)
    if store is None and out is not None:
        store = ArtifactStore(out)
    if save_policy and store is None:
        raise ValueError("save_policy requires a store (pass out= or store=)")
    if autoscale and backend != "distributed":
        raise ValueError("autoscale requires --backend distributed "
                         "(only the broker's worker fleet is elastic)")
    if journal and backend != "distributed":
        raise ValueError("journal requires --backend distributed (it logs "
                         "broker queue transitions; other backends resume "
                         "from the artifact store instead)")
    if max_workers is None:
        max_workers = spec.max_workers

    start = time.perf_counter()
    if spec.kind == "resource_table":
        return _run_resource_table(spec, backend, start)

    tasks = spec.tasks()
    records: Dict[Tuple[str, str, int, int], TrialRecord] = {}

    # ---- cache pass ------------------------------------------------------
    misses: List[SweepTask] = []
    for task in tasks:
        cached = store.load_trial(task) if (store is not None and resume) else None
        if cached is not None:
            result, backend_used = cached
            records[task.key()] = TrialRecord(task, result, backend_used, cached=True)
        else:
            misses.append(task)
    if cache_only and misses:
        missing = ", ".join(f"{t.design}/{t.env_id}/h{t.n_hidden}/t{t.trial}"
                            for t in misses[:5])
        raise RuntimeError(
            f"{len(misses)} of {len(tasks)} trials are not in the artifact store "
            f"(first: {missing}); run `repro run {spec.name}` first")

    # ---- execute misses through the one sweep engine ---------------------
    if misses:
        if backend == "distributed":
            # Catch bad bind addresses / unwritable stores / silly worker
            # counts before any broker thread or worker process exists —
            # a PreflightError here beats a socket traceback mid-sweep.
            from repro.distributed.preflight import run_preflight

            # `--workers 0` with a bind address is the documented
            # external-fleet mode (only `repro worker --connect` processes
            # serve the grid), so the local-worker-count check is skipped.
            run_preflight(
                bind=bind,
                store_root=str(store.root) if store is not None else None,
                workers=(None if max_workers == 0 and bind is not None
                         else max_workers))
        _LOGGER.info("run started", spec=spec.name, backend=backend,
                     trials=len(tasks), cached=len(tasks) - len(misses))
        # Trials are checkpointed as they finish (serial: one at a time;
        # elsewhere: one lock-step group), so an interrupted paper-scale run
        # resumes mid-grid.  The distributed backend checkpoints through its
        # broker, every other backend through the runner callback.  The
        # serial backend additionally gets the store for *mid-trial* state
        # checkpointing (checkpoint_every), resuming inside a trial.
        runner_store = (store if backend in ("distributed", "serial")
                        or save_policy else None)
        checkpoint = (None if store is None or backend == "distributed"
                      else _trial_checkpointer(store, backend))
        sweep = SweepRunner(misses, backend=backend, max_workers=max_workers,
                            store=runner_store, bind=bind,
                            checkpoint_every=checkpoint_every,
                            resume_trial_state=resume,
                            lease_batch=lease_batch,
                            progress_every=progress_every,
                            save_policies=save_policy,
                            autoscale=autoscale,
                            journal=journal).run(checkpoint)
        for (task, result), backend_used in zip(sweep.entries, sweep.backends_used):
            records[task.key()] = TrialRecord(task, result, backend_used)
        fleet_report = sweep.fleet_report
    else:
        fleet_report = None

    report = RunReport(
        spec=spec,
        backend=backend,
        trials=[records[task.key()] for task in tasks],
        wall_time_seconds=time.perf_counter() - start,
        store_root=str(store.root) if store is not None else None,
        fleet_report=fleet_report,
    )
    if store is not None and not cache_only:
        # cache_only is `repro report` — a read, which must not overwrite the
        # run record's provenance (the backend that actually produced it).
        store.save_run(spec, [trial_key(task) for task in tasks],
                       backend=backend,
                       backends_used=[r.backend_used for r in report.trials])
        from repro import telemetry

        if telemetry.enabled():
            # runs/<spec_hash>.telemetry.json — this process's metrics, span
            # tree and transport traffic, next to the run record.
            store.save_telemetry(spec.spec_hash, telemetry.snapshot())
    _LOGGER.info("run finished", spec=spec.name,
                 seconds=round(report.wall_time_seconds, 2),
                 cached=report.cached_count, executed=report.executed_count)
    return report


def _trial_checkpointer(store: ArtifactStore, backend: str):
    """A ``SweepRunner`` callback persisting each trial as it completes.

    The callback contract carries no ``backend_used``, so the execution path
    is recomputed here with the sweep's own routing rule — ``auto`` resolves
    to vectorized, where every trial lock-steps (batched or generic
    strategy, both recorded ``"lockstep"``).
    """
    effective = "vectorized" if backend == "auto" else backend
    backend_used = effective if effective in ("serial", "process") else "lockstep"

    def checkpoint(task: SweepTask, result: TrainingResult) -> None:
        store.save_trial(task, result, backend_used=backend_used)

    return checkpoint


def _run_resource_table(spec: ExperimentSpec, backend: str,
                        start: float) -> RunReport:
    """Resource-table specs have no trials: evaluate the area model directly."""
    from repro.api.reports import resource_table

    report = RunReport(spec=spec, backend=backend)
    report.resource_report = resource_table(spec.hidden_sizes)
    report.wall_time_seconds = time.perf_counter() - start
    return report


__all__ = ["BACKENDS", "RunReport", "TrialRecord", "run"]
