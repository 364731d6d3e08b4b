"""``PolicyClient``: talk to a :class:`~repro.serving.server.PolicyServer`.

The client side of the serving frames: connect, ``HELLO``/``WELCOME``
(refusing politely when the peer is a sweep broker rather than a serving
daemon), then

* :meth:`PolicyClient.act` — one observation, one greedy action (a
  one-row ``act_many``);
* :meth:`PolicyClient.act_many` — many observations in one ``ACT_BATCH``
  frame, the ``(B, n_states)`` matrix as raw little-endian float64 bytes,
  answered by one ``ACTIONS`` frame, so framing costs per call, not per
  row, and the server never parses a float.  One server tick answers it
  with ``act_batch`` calls of up to ``max_batch`` rows;
* :meth:`PolicyClient.swap` — push a (pickled) trained agent into the live
  server, the transport under :class:`~repro.serving.WeightPushCallback`;
* :meth:`PolicyClient.stats` — the server's counters + latency histograms.

Replies are read through a per-client inbox: one ``recv`` of up to 64 KiB
and :func:`~repro.distributed.protocol.read_frames` cut out every reply it
completed, each length header checked against
:func:`~repro.distributed.protocol.default_max_frame_bytes` before its body
is buffered.

The connection opens through :func:`repro.distributed.protocol.dial`, like
every other client of the framing, with ``role="serving"``, so a server of
another wire version is refused at connect with a non-transient error.
Errors surface as :class:`ServingError` with the reason the server gave,
never a raw pickle traceback.
"""

from __future__ import annotations

import pickle
import socket
import uuid
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed import protocol
from repro.utils.retry import RetryPolicy

#: The most bytes one ``recv`` of replies takes.
_RECV_BYTES = 1 << 16


class ServingError(RuntimeError):
    """The server rejected a request (or the peer is not a policy server).

    ``transient`` marks failures a retry might fix (server unreachable,
    connection dropped) as opposed to definitive rejections (wrong peer,
    unknown design).
    """

    def __init__(self, message: str, *, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


class PolicyClient:
    """A blocking client for one serving connection.

    Parameters
    ----------
    host / port:
        The server address (``PolicyServer.address`` or the ``repro serve``
        banner).
    design:
        Default design for :meth:`act`/:meth:`act_many`/:meth:`swap`.
        Optional when the server hosts exactly one design (it becomes the
        default); required per call otherwise.
    timeout:
        Socket timeout in seconds for connect and each reply.
    retry / connect_factory:
        Passed to :func:`~repro.distributed.protocol.dial`: a
        :class:`~repro.utils.retry.RetryPolicy` that retries *transient*
        connect + handshake failures (a restarting server), and a socket
        factory replacing ``socket.create_connection``.  Established
        connections are never silently re-dialed — a dropped request still
        raises, because replaying it could double-act.
    """

    def __init__(self, host: str, port: int, *,
                 design: Optional[str] = None, timeout: float = 10.0,
                 client_id: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None,
                 connect_factory: Optional[Callable[[str, int, float],
                                                    socket.socket]] = None) -> None:
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:8]}"
        try:
            self._sock, info = protocol.dial(
                host, port, self.client_id, role="serving", timeout=timeout,
                retry=retry, connect_factory=connect_factory)
        except protocol.HandshakeError as error:
            message = (f"cannot reach policy server at {host}:{port}: {error}"
                       if error.transient else str(error))
            raise ServingError(message, transient=error.transient) from error
        self._max_frame_bytes = protocol.default_max_frame_bytes()
        self._inbox = bytearray()     #: bytes of a reply not yet complete
        self._frames: deque = deque()  #: decoded replies not yet consumed
        self.server_info: Dict[str, Any] = info
        self.designs: List[str] = list(info.get("designs", []))
        if design is None and len(self.designs) == 1:
            design = self.designs[0]
        self.design = design

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PolicyClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ requests
    def _design(self, design: Optional[str]) -> str:
        resolved = design if design is not None else self.design
        if resolved is None:
            raise ValueError(
                f"no design given and the server hosts {self.designs}; "
                f"pass design=...")
        return resolved

    def _send(self, kind: str, payload: Any) -> None:
        try:
            self._sock.sendall(protocol.encode_frame(kind, payload))
        except OSError as error:
            raise ServingError(f"server connection lost: {error}",
                               transient=True) from error

    def _next_frame(self) -> Tuple[str, Any]:
        """The next ``(kind, payload)`` reply, reading more bytes if needed."""
        try:
            while not self._frames:
                chunk = self._sock.recv(_RECV_BYTES)
                if not chunk:
                    raise ConnectionError("peer closed the connection mid-frame")
                self._inbox += chunk
                self._frames.extend(protocol.read_frames(
                    self._inbox, max_frame_bytes=self._max_frame_bytes))
        except OSError as error:
            raise ServingError(
                f"server connection lost: {error}",
                transient=not isinstance(error, protocol.ProtocolError),
            ) from error
        return self._frames.popleft()

    def _reply(self, request: str, expected: str) -> Any:
        """The payload of the next reply, which must be of kind ``expected``."""
        kind, payload = self._next_frame()
        if kind == protocol.ERROR:
            raise ServingError(str(payload))
        if kind != expected:
            raise ServingError(
                f"unexpected {kind!r} reply to {request.upper()}")
        return payload

    def act(self, state: Sequence[float], *,
            design: Optional[str] = None) -> int:
        """The greedy action for one observation."""
        return int(self.act_many([state], design=design)[0])

    def act_many(self, states: Sequence[Sequence[float]], *,
                 design: Optional[str] = None) -> np.ndarray:
        """Greedy actions for many observations, in one request.

        The rows go out as one ``ACT_BATCH`` frame and come back as one
        ``ACTIONS`` frame, lined up with ``states`` row for row.  A
        rejected row raises :class:`ServingError` naming it; no action of
        that call is served.  No rows (``[]`` or a ``(0, n)`` array)
        return an empty array without touching the connection.
        """
        resolved = self._design(design)
        matrix = np.asarray(states, dtype=np.float64)
        if matrix.ndim == 1 and matrix.size:  # one observation
            matrix = matrix.reshape(1, -1)
        if matrix.ndim not in (1, 2):
            raise ValueError(
                f"states must be (batch, n_states), got shape {matrix.shape}")
        if not len(matrix):  # ``[]`` or a ``(0, n)`` array
            return np.empty(0, dtype=np.int64)
        self._send(protocol.ACT_BATCH,
                   (resolved, matrix.shape[1],
                    matrix.astype("<f8", copy=False).tobytes()))
        actions = np.array(self._reply(protocol.ACT_BATCH, protocol.ACTIONS),
                           dtype=np.int64)
        if actions.shape != (len(matrix),):
            raise ServingError(f"ACTIONS reply of shape {actions.shape} to "
                               f"{len(matrix)} rows")
        return actions

    def swap(self, agent: Any, *, design: Optional[str] = None) -> Dict[str, Any]:
        """Hot-swap the live policy for ``design`` to ``agent``.

        The agent is pickled whole (exactly what ``CheckpointCallback``
        already proves picklable), so the server's post-swap behaviour is
        identical to this agent's offline greedy behaviour.  Returns the
        server's acknowledgement (``{"design", "generation"}``).
        """
        resolved = self._design(design)
        blob = pickle.dumps(agent, protocol=pickle.HIGHEST_PROTOCOL)
        self._send(protocol.SWAP, (resolved, blob))
        payload = self._reply(protocol.SWAP, protocol.SWAPPED)
        if resolved not in self.designs:
            self.designs.append(resolved)
        return dict(payload)

    def stats(self) -> Dict[str, Any]:
        """The server's ``STATS`` snapshot (counters, latency percentiles)."""
        self._send(protocol.STATS, None)
        return dict(self._reply(protocol.STATS, protocol.STATS))


__all__ = ["PolicyClient", "ServingError"]
