"""The worker side of the distributed sweep backend.

``run_worker`` is what ``python -m repro worker --connect HOST:PORT``
executes: connect to a :class:`~repro.distributed.broker.SweepBroker`, lease
:class:`~repro.parallel.sweep.SweepTask`s, train each lease lock-step
through :func:`repro.parallel.sweep.execute_tasks`, and stream each
:class:`~repro.training.records.TrainingResult` back as soon as its
lock-step group has trained.  Lock-step replays the serial trainer
bit-for-bit — the worker adds transport, never arithmetic.

While a lease trains and delivers, a daemon thread sends ``HEARTBEAT``
frames so the broker keeps its undelivered tasks leased through
arbitrarily long trials; if this process dies instead, the dropped
connection (or, for a hang, the lease timeout) makes the broker requeue
them: only the group in training is lost work.

Graceful retirement: the worker installs SIGTERM/SIGINT handlers (main
thread only) that request a *drain* instead of killing the process — the
in-flight lease batch finishes, every result is delivered and acked, the
broker is told ``DRAIN``, and only then does the loop exit.  A second
signal skips the grace and dies immediately (the broker's lease requeue
covers the abandoned tasks).  The broker can also retire the worker from
its side: a ``DRAIN`` reply to ``GET`` makes the loop exit at the same
clean batch boundary.  Either way, retiring a worker loses no leases: this
is the actuation primitive of :class:`repro.fleet.FleetAutoscaler`.

Reconnect: with ``WorkerOptions(reconnect=RetryPolicy(...))`` a
lost broker connection no longer ends the worker — it backs off on the
policy's deterministic schedule, reconnects, sends ``HELLO`` again under the
*same* worker id (so broker accounting reconciles the gap as a
reconnection, not a new worker), redelivers the trained results the cut
stranded (the rest of the group in flight; dedup absorbs a copy whose
original landed) and resumes pulling tasks.  A result lost mid-``RESULT``
is therefore never lost twice: either the broker journaled/acked it, or
the requeued lease is retrained — both converge on the same bits.
Without a policy (the default, and what the coordinator's auto-spawned
fleets use) the pre-1.8 behaviour is unchanged: broker gone means the
worker's job is done.

Workers may attach their own :class:`~repro.api.store.ArtifactStore`
(``repro worker --store DIR``).  A store-equipped worker answers tasks it
has already trained from cache, trains only the misses and checkpoints
fresh results locally, so a worker fleet sharing a filesystem converges
even across broker restarts.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.distributed import protocol
from repro.parallel.pool import blas_threads
from repro.parallel.sweep import SweepTask, execute_tasks
from repro.training.records import TrainingResult
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy

_LOGGER = get_logger("repro.distributed.worker")

#: ``backend_used`` recorded for trials executed by the worker fleet.
DISTRIBUTED_BACKEND = "distributed"

#: Max lease batch this worker names in every ``GET`` payload; the broker
#: caps this worker's leases (a lock-step key share, or an explicit
#: ``lease_batch``) at it.
LEASE_CAPACITY = 1024


@dataclass(frozen=True)
class WorkerOptions:
    """Knobs of one worker loop (all optional; defaults suit the CLI)."""

    worker_id: Optional[str] = None      #: default: ``<hostname>-<pid>-<uuid4[:8]>``
    store_root: Optional[str] = None     #: local artifact cache (resume + checkpoint)
    heartbeat_interval: float = 2.0      #: seconds between keep-alive frames mid-trial
    max_tasks: Optional[int] = None      #: stop after N trials (tests/failure injection)
    connect_timeout: float = 10.0        #: seconds to wait for the broker socket and its WELCOME
    handle_signals: bool = True          #: SIGTERM/SIGINT -> graceful drain (main thread only)
    drain_event: Optional[threading.Event] = field(default=None, compare=False)
    """Optional externally-owned drain trigger (tests drive in-thread workers
    with it; the CLI leaves it ``None`` and relies on the signal handlers)."""
    reconnect: Optional[RetryPolicy] = None
    """Survive broker outages: back off on this policy's schedule and
    re-``HELLO`` under the same worker id instead of exiting.  Each outage
    gets a fresh policy run (the attempt cap / deadline bounds *one*
    outage, not the worker's lifetime); a policy exhausted mid-outage
    raises :class:`~repro.utils.retry.RetryError`.  ``None`` keeps the
    legacy exit-on-disconnect behaviour."""
    idle_timeout: Optional[float] = 60.0
    """Seconds to wait for any single broker reply before declaring the
    connection dead (half-open TCP to a SIGKILLed broker otherwise hangs
    the worker forever).  Generous on purpose: the broker answers every
    frame promptly — only trial *training* takes long, and the worker
    never blocks on the socket during training.  ``None`` restores the
    pre-1.8 unbounded wait."""
    connect_factory: Optional[Callable[[str, int, Optional[float]], socket.socket]] = (
        field(default=None, compare=False))
    """Socket factory ``(host, port, timeout) -> socket`` replacing
    ``socket.create_connection`` — the fault-injection seam
    (:meth:`repro.chaos.FaultPlan.connect` plugs in here)."""


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _install_drain_handlers(drain: threading.Event,
                            worker_id: str) -> List[Tuple[int, object]]:
    """SIGTERM/SIGINT -> set ``drain``; a second signal dies immediately.

    Signal handlers can only live in the main thread — from anywhere else
    (tests running ``run_worker`` in a thread) this is a no-op.  Returns the
    ``(signum, previous_handler)`` pairs so the caller can restore them.
    """
    if threading.current_thread() is not threading.main_thread():
        return []

    def handler(signum, frame):
        if drain.is_set():
            # Second signal: the operator means it.  Die now; the broker's
            # lease requeue covers whatever was in flight.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        drain.set()
        _LOGGER.info("signal received; draining", worker=worker_id,
                     signum=signum)

    previous: List[Tuple[int, object]] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous.append((signum, signal.signal(signum, handler)))
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            continue
    return previous


class _WorkerState:
    """What survives across one worker's broker connections."""

    __slots__ = ("completed", "undelivered", "reconnects")

    def __init__(self) -> None:
        self.completed = 0
        #: Results computed but not yet acked when a connection died:
        #: ``(task index, result, was_cached)``.  Flushed first thing after every
        #: reconnect; the broker's dedup absorbs any copy whose original
        #: RESULT actually landed before the cut.
        self.undelivered: List[Tuple[int, TrainingResult, bool]] = []
        self.reconnects = 0


def run_worker(host: str, port: int,
               options: WorkerOptions = WorkerOptions()) -> int:
    """Serve one broker until ``SHUTDOWN``/``DRAIN``; returns tasks completed.

    With ``options.reconnect`` set, a lost connection (including a failed
    initial connect) is retried on the policy's backoff schedule instead of
    ending the worker; see the module docstring for the redelivery
    semantics.  An exhausted policy raises
    :class:`~repro.utils.retry.RetryError`.
    """
    worker_id = options.worker_id or default_worker_id()
    drain = options.drain_event if options.drain_event is not None else threading.Event()
    restore = (_install_drain_handlers(drain, worker_id)
               if options.handle_signals else [])

    def on_retry(attempt: int, delay: float, error: BaseException) -> None:
        _LOGGER.warning("broker unreachable; backing off", worker=worker_id,
                        attempt=attempt, delay=round(delay, 3), error=str(error))

    state = _WorkerState()
    store = None
    if options.store_root is not None:
        from repro.api.store import ArtifactStore   # deferred: avoids an import cycle

        store = ArtifactStore(options.store_root)
    sessions = 0
    clock = None      # live only while one outage is being retried
    try:
        while not drain.is_set():
            try:
                sock, info = protocol.dial(
                    host, port, worker_id, role="broker",
                    timeout=options.connect_timeout,
                    connect_factory=options.connect_factory)
            except protocol.HandshakeError as error:
                if not error.transient:
                    raise
                if options.reconnect is None:
                    if not error.connected:
                        raise
                    # A broker that hangs up mid-handshake is shutting down.
                    _LOGGER.info("broker connection closed", worker=worker_id)
                    break
                if clock is None:
                    clock = options.reconnect.clock()
                clock.failed(error, on_retry=on_retry)   # sleeps or raises
                continue
            clock = None    # handshook: the next outage starts fresh
            sessions += 1
            if sessions > 1:
                state.reconnects += 1
                telemetry.count("worker.reconnects")
                _LOGGER.info("worker reconnected", worker=worker_id,
                             session=sessions)
            outcome = _serve_connection(sock, info, worker_id, store, drain,
                                        options, state)
            if outcome != "lost":
                break
            if options.reconnect is None:
                # Pre-1.8 behaviour: the broker is gone — sweep finished (it
                # tears the port down as soon as the grid drains) or it
                # died; either way the worker's job here is over.
                _LOGGER.info("broker connection closed", worker=worker_id)
                break
            _LOGGER.warning("broker connection lost; reconnecting",
                            worker=worker_id,
                            undelivered=len(state.undelivered))
    finally:
        for signum, previous in restore:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass
    # After training, so scipy's BLAS is loaded and the count is the live one.
    _LOGGER.info("worker exiting", worker=worker_id,
                 completed=state.completed, reconnects=state.reconnects,
                 blas_threads=blas_threads())
    return state.completed


def _serve_connection(sock: socket.socket, info: dict, worker_id: str, store,
                      drain: threading.Event, options: WorkerOptions,
                      state: _WorkerState) -> str:
    """One handshaken connection's GET/RESULT loop; why it ended.

    Returns ``"lost"``, ``"shutdown"``, ``"drain"`` or ``"max_tasks"``;
    transport errors end the connection as ``"lost"`` instead of raising.
    """
    send_lock = threading.Lock()

    def send(kind: str, payload=None) -> None:
        with send_lock:
            protocol.send_message(sock, kind, payload)

    def deliver(outcomes: List[Tuple[int, TrainingResult, bool]]) -> int:
        """RESULT -> ACK each ``(index, result, was_cached)``; how many landed.

        A lost broker stashes the rest, all trained, for redelivery."""
        for done, (index, result, was_cached) in enumerate(outcomes):
            try:
                send(protocol.RESULT, (index, result, DISTRIBUTED_BACKEND))
                kind, fresh = protocol.recv_message(sock)
                if kind != protocol.ACK:
                    raise protocol.ProtocolError(f"expected ACK, got {kind!r}")
            except protocol.ProtocolError:
                raise
            except (ConnectionError, OSError):
                _LOGGER.warning("broker lost mid-result", worker=worker_id,
                                task=index, stranded=len(outcomes) - done)
                state.undelivered.extend(outcomes[done:])
                return done
            state.completed += 1
            telemetry.count("distributed.worker.tasks_completed")
            if not fresh:
                telemetry.count("distributed.worker.duplicate_acks")
            if was_cached:
                telemetry.count("distributed.worker.cache_hits")
            _LOGGER.info("task done", worker=worker_id, task=index,
                         cached=was_cached, accepted=fresh)
        return len(outcomes)

    try:
        # The broker answers every frame promptly (training happens on our
        # side, between frames), so each reply wait is bounded: a half-open
        # connection to a dead broker times out into the reconnect path
        # instead of hanging the worker forever.
        sock.settimeout(options.idle_timeout)
        _LOGGER.info("worker registered", worker=worker_id,
                     tasks=info.get("tasks"))
        # Flush results stranded by a previous outage before asking for new
        # work — the broker requeued those leases when the old connection
        # dropped, so each redelivery is acked fresh (it beat the requeued
        # copy) or as a duplicate (someone retrained it first); both bits
        # are identical, so either answer is fine.
        stranded, state.undelivered = state.undelivered, []
        delivered = deliver(stranded)
        telemetry.count("distributed.worker.redelivered_results", delivered)
        if delivered < len(stranded):
            return "lost"
        while options.max_tasks is None or state.completed < options.max_tasks:
            if drain.is_set():
                _LOGGER.info("drain requested; exiting cleanly",
                             worker=worker_id, completed=state.completed)
                # Tell the broker this disconnect is deliberate — it retires
                # the worker as a *graceful* drain instead of a death.
                telemetry.count("distributed.worker.drains")
                try:
                    send(protocol.DRAIN)
                except OSError:
                    pass
                return "drain"
            # The whole lease is delivered before max_tasks is checked again.
            capacity = (LEASE_CAPACITY if options.max_tasks is None else
                        min(LEASE_CAPACITY, options.max_tasks - state.completed))
            try:
                send(protocol.GET, capacity)
                kind, payload = protocol.recv_message(sock)
            except protocol.ProtocolError:
                raise
            except (ConnectionError, OSError):
                return "lost"
            if kind == protocol.SHUTDOWN:
                return "shutdown"
            if kind == protocol.DRAIN:
                # The broker retired this worker (fleet scale-down).  No
                # lease is held at this point — GET only goes out between
                # batches — so exiting here abandons nothing.
                telemetry.count("distributed.worker.drains")
                _LOGGER.info("drained by broker", worker=worker_id,
                             completed=state.completed)
                return "drain"
            if kind == protocol.WAIT:
                telemetry.count("distributed.worker.wait_frames")
                time.sleep(float(payload))
                continue
            if kind != protocol.TASKS:
                raise protocol.ProtocolError(
                    f"expected TASKS/WAIT/DRAIN/SHUTDOWN, got {kind!r}")
            batch = payload
            # One RESULT/ACK pair per trial keeps per-task requeue and dedup;
            # each lock-step group is delivered as soon as it has trained.
            with telemetry.span("worker.lease"), \
                    _heartbeat(send, options.heartbeat_interval):
                for outcomes in _train_lease(batch, store):
                    if deliver(outcomes) < len(outcomes):
                        return "lost"
            # A signal that landed mid-batch drains at the *batch* boundary:
            # every lease the worker held has now been delivered and acked,
            # so the drain requeues nothing (the loop top exits next pass).
        return "max_tasks"
    finally:
        sock.close()


@contextmanager
def _heartbeat(send, interval: float) -> Iterator[None]:
    """Keep every lease of the worker alive with a daemon ``HEARTBEAT`` thread."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                send(protocol.HEARTBEAT)
            except OSError:       # broker went away; the main loop will notice
                return

    thread = threading.Thread(target=beat, name="worker-heartbeat", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=1.0)


def _train_lease(batch: Sequence[Tuple[int, SweepTask]], store
                 ) -> Iterator[List[Tuple[int, TrainingResult, bool]]]:
    """Train one lease; yields ``(task index, result, was_cached)`` lists:
    the store-cached trials, then each lock-step group as it trains (its
    fresh results checkpointed into the store)."""
    cached, misses = [], []
    for index, task in batch:
        hit = store.load_trial(task) if store is not None else None
        if hit is not None:
            cached.append((index, hit[0], True))
        else:
            misses.append((index, task))
    if cached:
        yield cached
    for group in execute_tasks([task for _index, task in misses]):
        outcomes = []
        for position, result, _agent in group:
            index, task = misses[position]
            if store is not None:
                store.save_trial(task, result, backend_used=DISTRIBUTED_BACKEND)
            outcomes.append((index, result, False))
        yield outcomes


__all__ = ["DISTRIBUTED_BACKEND", "LEASE_CAPACITY", "WorkerOptions",
           "default_worker_id", "run_worker"]
