"""Client side of the broker ``STATS`` channel: ``repro fleet status``.

:func:`fetch_fleet_stats` opens a short-lived observer connection to a
live :class:`~repro.distributed.broker.SweepBroker` through
:func:`~repro.distributed.protocol.dial` (with an id prefixed
:data:`~repro.distributed.protocol.OBSERVER_PREFIX` so the broker keeps
it out of the worker accounting) and returns one JSON-ready snapshot::

    {
      "tasks":   {"total": N, "queued": q, "leased": l, "done": d},
      "counters": {"requeued_tasks": ..., "duplicate_results": ...,
                   "wait_replies": ..., "leases_issued": ...,
                   "tasks_leased": ..., "workers_seen": ...,
                   "active_connections": ..., "drains_requested": ...,
                   "drains_completed": ..., "drain_requeued_tasks": ...},
      "workers": {worker_id: {"connected": bool, "draining": bool,
                              "last_seen_seconds_ago": float,
                              "completed": int, "leases": int,
                              "oldest_lease_age": float}, ...},
      "drain_seconds": [...],
      "transport": {"frames_sent": ..., "bytes_sent": ..., ...},
      "lease_batch": int or null, "heartbeat_timeout": float,
      "repro_version": "2.0.0"
    }

with ``queued + leased + done == total`` guaranteed by the broker.
:func:`format_fleet_status` renders the same snapshot as the aligned text
the CLI prints; ``repro fleet status --json`` emits the raw document.
"""

from __future__ import annotations

import uuid
from typing import Dict, List, Optional, Type

from repro.distributed import protocol
from repro.utils.retry import RetryPolicy
from repro.utils.tables import format_table


class FleetStatusError(ConnectionError):
    """The broker could not be queried (unreachable, or not a broker of
    this wire version).

    ``transient`` distinguishes failures worth retrying (broker briefly
    unreachable, connection dropped mid-query) from definitive answers
    (wrong peer, malformed reply) that no amount of retrying will
    change — the ``retry=`` path of the fleet clients backs off only on
    the former.
    """

    def __init__(self, message: str, *, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


def observer_id() -> str:
    """A fresh observer worker-id (never enters the broker's worker table)."""
    return f"{protocol.OBSERVER_PREFIX}-{uuid.uuid4().hex[:8]}"


def fetch_fleet_stats(host: str, port: int, *, timeout: float = 5.0,
                      retry: Optional[RetryPolicy] = None) -> Dict[str, object]:
    """Query one ``STATS`` snapshot from the broker at ``host:port``.

    With ``retry`` set, transient failures (broker unreachable or dropping
    the query — e.g. mid-restart from its journal) are retried on the
    policy's backoff schedule; definitive failures (wrong peer or wire
    version, malformed reply) raise immediately either way.
    """
    return _observe(host, port, protocol.STATS, None, timeout=timeout,
                    retry=retry, error_type=FleetStatusError)


def _observe(host: str, port: int, kind: str, payload: object, *,
             timeout: float, retry: Optional[RetryPolicy],
             error_type: Type[FleetStatusError]) -> Dict[str, object]:
    """Dial as an observer, send ``(kind, payload)``, return the dict reply.

    Failures raise ``error_type``; a connection lost at any point is
    transient, and ``retry`` repeats the whole exchange.
    """
    def attempt() -> Dict[str, object]:
        try:
            sock, _info = protocol.dial(host, port, observer_id(),
                                        role="broker", timeout=timeout)
        except protocol.HandshakeError as error:
            message = (f"cannot reach broker at {host}:{port}: {error}"
                       if error.transient else str(error))
            raise error_type(message, transient=error.transient) from error
        with sock:
            try:
                protocol.send_message(sock, kind, payload)
                reply_kind, reply = protocol.recv_message(sock)
            except OSError as error:
                raise error_type(
                    f"{kind} request to broker at {host}:{port} failed: {error}",
                    transient=not isinstance(error, protocol.ProtocolError),
                ) from error
        if reply_kind != kind or not isinstance(reply, dict):
            raise error_type(f"malformed {kind} reply from {host}:{port}: "
                             f"{reply_kind!r} frame carrying "
                             f"{type(reply).__name__}")
        return reply

    return protocol._retry_transient(retry, attempt)


def format_fleet_status(snapshot: Dict[str, object]) -> str:
    """Render a STATS snapshot as the text ``repro fleet status`` prints."""
    tasks = snapshot.get("tasks", {})
    counters = snapshot.get("counters", {})
    transport = snapshot.get("transport", {})
    batch = snapshot.get("lease_batch", "?")
    leases = int(counters.get("leases_issued", 0))
    leased = int(counters.get("tasks_leased", 0))
    lines = [
        "fleet status (broker {version}, lease_batch={batch}, "
        "heartbeat_timeout={hb:g}s)".format(
            version=snapshot.get("repro_version", "?"),
            batch="auto" if batch is None else batch,
            hb=float(snapshot.get("heartbeat_timeout", 0.0))),
        "tasks: {done}/{total} done, {queued} queued, {leased} leased".format(
            done=tasks.get("done", 0), total=tasks.get("total", 0),
            queued=tasks.get("queued", 0), leased=tasks.get("leased", 0)),
        "counters: requeued={requeued_tasks} duplicates={duplicate_results} "
        "waits={wait_replies} workers_seen={workers_seen} "
        "connections={active_connections}".format(
            **{key: counters.get(key, 0)
               for key in ("requeued_tasks", "duplicate_results",
                           "wait_replies", "workers_seen",
                           "active_connections")}),
        "leases: issued={} tasks={} mean_size={:.2f}".format(
            leases, leased, leased / leases if leases else 0.0),
        "drains: requested={drains_requested} completed={drains_completed} "
        "lost_leases={drain_requeued_tasks}".format(
            **{key: counters.get(key, 0)
               for key in ("drains_requested", "drains_completed",
                           "drain_requeued_tasks")}),
        "transport: {frames_sent} frames out ({bytes_sent} B), "
        "{frames_received} frames in ({bytes_received} B)".format(
            **{key: transport.get(key, 0)
               for key in ("frames_sent", "bytes_sent",
                           "frames_received", "bytes_received")}),
    ]
    workers = snapshot.get("workers", {})
    if workers:
        rows: List[Dict[str, object]] = []
        for worker_id in sorted(workers):
            info = workers[worker_id]
            if not info.get("connected"):
                state = "gone"
            elif info.get("draining"):
                state = "draining"
            else:
                state = "up"
            rows.append({
                "worker": worker_id,
                "state": state,
                "last_seen": f"{float(info.get('last_seen_seconds_ago', 0.0)):.1f}s",
                "done": info.get("completed", 0),
                "leases": info.get("leases", 0),
                "oldest_lease": f"{float(info.get('oldest_lease_age', 0.0)):.1f}s",
            })
        lines.append("")
        lines.append(format_table(rows))
    else:
        lines.append("workers: none registered yet")
    return "\n".join(lines)


__all__ = ["FleetStatusError", "fetch_fleet_stats", "format_fleet_status",
           "observer_id"]
