"""Client side of the broker ``DRAIN`` control channel.

The autoscaler (and anything else that wants to retire workers — an ops
script, a future multi-broker shard manager) asks the broker to drain
workers through a short-lived observer connection, the same observer
exchange :func:`repro.telemetry.fleet.fetch_fleet_stats` makes: dial the
broker (:func:`repro.distributed.protocol.dial`) with an
:data:`~repro.distributed.protocol.OBSERVER_PREFIX` id, so the connection
never enters worker accounting; send ``(DRAIN, [ids])`` and read back the
broker's disposition report::

    {"marked": [...], "already_draining": [...],
     "unknown": [...], "gone": [...]}

Short-lived on purpose: a persistent control connection would keep the
broker's ``active_connections`` above zero forever and defeat the
coordinator's dead-fleet detection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.distributed import protocol
from repro.telemetry.fleet import FleetStatusError, _observe
from repro.utils.retry import RetryPolicy


class FleetControlError(FleetStatusError):
    """The broker could not be asked to drain (unreachable, or not a broker)."""


def request_drain(host: str, port: int, worker_ids: Sequence[str], *,
                  timeout: float = 5.0,
                  retry: Optional[RetryPolicy] = None) -> Dict[str, List[str]]:
    """Ask the broker at ``host:port`` to gracefully drain ``worker_ids``.

    Returns the broker's disposition dict (see module docstring).  Raises
    :class:`FleetControlError` when the broker cannot be asked — the
    caller should fall back to SIGTERM-ing the worker processes it owns,
    which triggers the same finish-then-exit drain from the other side.

    With ``retry`` set, transient failures are retried on the policy's
    schedule (marking an already-draining worker twice is answered, not
    compounded — the broker reports ``already_draining`` — so a retried
    drain request is idempotent).  Definitive errors raise immediately.
    """
    ids = [str(worker_id) for worker_id in worker_ids]
    if not ids:
        return {"marked": [], "already_draining": [], "unknown": [],
                "gone": []}
    report = _observe(host, port, protocol.DRAIN, ids, timeout=timeout,
                      retry=retry, error_type=FleetControlError)
    return {key: list(report.get(key, []))
            for key in ("marked", "already_draining", "unknown", "gone")}


__all__ = ["FleetControlError", "request_drain"]
