"""Front door of the distributed backend: broker + local worker fleet.

:func:`run_distributed_sweep` is what ``SweepRunner(backend="distributed")``
calls.  It starts a :class:`~repro.distributed.broker.SweepBroker` in the
calling process, optionally auto-spawns ``n_workers`` local worker
processes pointed at it (the ``repro run --backend distributed --workers N``
path — no address juggling needed for single-host use), waits for the grid
to drain, and returns results in task order.  Passing ``bind="HOST:PORT"``
instead publishes the broker on a routable interface for external
``python -m repro worker --connect`` fleets; both kinds of worker can serve
the same broker at once.

Fault behaviour: a worker that dies mid-trial is detected by its dropped
connection (or lease timeout for hangs) and its tasks are requeued — the
sweep converges as long as at least one worker remains.  If *every*
auto-spawned worker is dead and no external worker is connected, the
coordinator raises instead of waiting forever.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.distributed.broker import SweepBroker
from repro.distributed.protocol import parse_address
from repro.distributed.worker import WorkerOptions, run_worker
from repro.parallel.pool import default_max_workers, limit_blas_threads
from repro.parallel.sweep import SweepTask
from repro.training.records import TrainingResult
from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.distributed.coordinator")

#: Default broker-side lease timeout for locally spawned fleets.  Local
#: workers heartbeat every ``WorkerOptions.heartbeat_interval`` (2 s), so
#: this tolerates several missed beats before declaring a worker dead.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0


def _local_worker_main(host: str, port: int, worker_id: str,
                       heartbeat_interval: float) -> None:
    """Module-level target so worker processes start under fork *and* spawn.

    Each worker is one lane of the fleet, so it runs BLAS on one thread.
    """
    limit_blas_threads()
    run_worker(host, port, WorkerOptions(worker_id=worker_id,
                                         heartbeat_interval=heartbeat_interval))


def spawn_local_workers(host: str, port: int, n_workers: int, *,
                        heartbeat_interval: float = 2.0,
                        context: str = "spawn") -> List[mp.Process]:
    """Start ``n_workers`` daemon worker processes against one broker.

    The default start method is ``spawn``, not the platform default: the
    broker's accept/monitor threads are already running when the fleet
    starts, and forking a multi-threaded process can deadlock the child on
    locks held mid-fork (Python 3.12+ warns about exactly this).  The
    worker target is module-level and its arguments picklable, so spawn
    costs only interpreter start-up.
    """
    ctx = mp.get_context(context)
    processes = []
    for i in range(n_workers):
        process = ctx.Process(
            target=_local_worker_main,
            args=(host, port, f"local-{i}", heartbeat_interval),
            daemon=True, name=f"repro-worker-{i}")
        process.start()
        processes.append(process)
    return processes


def run_distributed_sweep(
        tasks: Sequence[SweepTask], *,
        n_workers: Optional[int] = None,
        bind: Optional[str] = None,
        store=None,
        callback: Optional[Callable[[SweepTask, TrainingResult], None]] = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        timeout: Optional[float] = None,
        lease_batch: Optional[int] = None,
        autoscale=None,
        on_fleet_report: Optional[Callable[[object], None]] = None,
        journal=None,
) -> List[Tuple[TrainingResult, str]]:
    """Execute ``tasks`` on a worker fleet; ``(result, backend_used)`` per task.

    Parameters
    ----------
    tasks:
        The sweep grid; results come back in this order.  An empty grid
        returns ``[]`` without binding a socket or spawning anything.
    n_workers:
        Local worker processes to auto-spawn.  ``None`` picks one per task
        capped by the CPU count — except when ``bind`` is given, where it
        defaults to 0 (external workers are expected to connect).
    bind:
        ``"HOST:PORT"`` to listen for external ``repro worker`` processes;
        default is loopback on an ephemeral port (auto-spawned fleet only).
    store:
        Artifact store handed to the broker for per-trial checkpointing.
    heartbeat_timeout:
        Broker-side lease timeout (see :class:`SweepBroker`).
    timeout:
        Overall wall-clock bound; ``TimeoutError`` when exceeded.
    lease_batch:
        Cap on the tasks per worker lease, trained lock-step.  The default
        ``None`` leases each worker of a fixed fleet its share of the head
        task's lock-step key, ``ceil(tasks with the key / n_workers)``, so
        compatible trials batch while non-batchable ones (DQN, FPGA,
        unregularized OS-ELM) still go out one at a time and spread across
        the fleet.  An autoscaled or external-only (``n_workers=0``) fleet
        has no fixed size, so it leases up to ``lease_batch`` tasks, or 1
        by default (see :class:`SweepBroker`).
    autoscale:
        ``True`` or an :class:`~repro.fleet.AutoscaleConfig` to replace the
        fixed ``n_workers`` fleet with a
        :class:`~repro.fleet.FleetAutoscaler`: the fleet starts at the
        config's ``min_workers``, grows toward ``max_workers`` on queue
        backlog and drains idle workers gracefully — results are
        byte-identical to a fixed fleet (and to the serial backend) under
        any scaling schedule.  ``n_workers`` is ignored for local spawning
        (external ``bind`` workers may still connect and are observed, but
        only autoscaler-spawned processes are retired by signal).
    on_fleet_report:
        Callback receiving the final :class:`~repro.fleet.FleetReport`
        after an autoscaled sweep (ignored without ``autoscale``); the
        report's broker counters are authoritative, filled directly from
        the broker after the grid drains.
    journal:
        Path (or :class:`~repro.distributed.journal.SweepJournal`) for the
        broker's crash-safety write-ahead journal; an existing journal is
        replayed so a killed sweep resumes instead of restarting (see
        :class:`SweepBroker`).  Default ``None``: no journaling.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if bind is not None:
        host, port = parse_address(bind)
        if n_workers is None:
            n_workers = 0
    else:
        host, port = "127.0.0.1", 0
        if n_workers is None:
            n_workers = default_max_workers(len(tasks))
        if n_workers <= 0 and not autoscale:
            raise ValueError("n_workers must be positive when no bind address "
                             "is given (nobody could ever serve the queue)")

    # Only a fixed local fleet has a size the key share can divide by.
    fleet_size = n_workers if n_workers > 0 and not autoscale else None
    broker = SweepBroker(tasks, host=host, port=port, store=store,
                         heartbeat_timeout=heartbeat_timeout, callback=callback,
                         lease_batch=lease_batch, fleet_size=fleet_size,
                         journal=journal)
    broker.start()
    bound_host, bound_port = broker.address
    autoscaler = None
    if autoscale:
        # Deferred import: repro.fleet's supervisor spawns through this
        # module's _local_worker_main, so a top-level import would cycle.
        from repro.fleet import AutoscaleConfig, FleetAutoscaler

        config = (autoscale if isinstance(autoscale, AutoscaleConfig)
                  else AutoscaleConfig())
        autoscaler = FleetAutoscaler(bound_host, bound_port, config=config)
        autoscaler.start()
        workers: List[mp.Process] = []   # the autoscaler owns the fleet
        _LOGGER.info("fleet autoscaling enabled",
                     min_workers=config.min_workers,
                     max_workers=config.max_workers)
    else:
        workers = spawn_local_workers(bound_host, bound_port, n_workers)
    if bind is not None:
        _LOGGER.info("broker accepting external workers",
                     address=f"{bound_host}:{bound_port}",
                     local_workers=n_workers)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while not broker.join(timeout=0.2):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"distributed sweep incomplete after {timeout}s "
                    f"({broker.completed_count}/{len(tasks)} trials)")
            if (workers and not any(w.is_alive() for w in workers)
                    and broker.active_connections == 0):
                # The auto-spawned fleet is gone and nothing external is
                # connected either — with a bind address a live external
                # worker keeps the sweep waiting, a fully dead fleet never.
                # (An autoscaled fleet has no fixed `workers` list; its
                # min_workers floor respawns crashed workers instead.)
                raise RuntimeError(
                    "every local worker exited before the sweep finished "
                    f"({broker.completed_count}/{len(tasks)} trials done) "
                    "and no external worker is connected; see worker stderr "
                    "for the crash")
        return broker.results()
    finally:
        if autoscaler is not None:
            # Stop the control loop and retire leftovers *before* closing
            # the broker, so the shutdown itself drains gracefully; then
            # overwrite the report's counters with broker-side truth.
            autoscaler.stop(retire_fleet=True)
            autoscaler.report.broker_counters = {
                "drains_requested": broker.drains_requested,
                "drains_completed": broker.drains_completed,
                "drain_requeued_tasks": broker.drain_requeued_tasks,
                "requeued_tasks": broker.requeued_tasks,
            }
            _LOGGER.info("fleet report", summary=autoscaler.report.summary())
            if on_fleet_report is not None:
                on_fleet_report(autoscaler.report)
        broker.close()
        for worker in workers:
            worker.join(timeout=2.0)
            if worker.is_alive():   # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=1.0)


__all__ = ["DEFAULT_HEARTBEAT_TIMEOUT", "run_distributed_sweep",
           "spawn_local_workers"]
