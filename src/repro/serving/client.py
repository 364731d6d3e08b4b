"""``PolicyClient``: talk to a :class:`~repro.serving.server.PolicyServer`.

The client side of the serving frames: connect, ``HELLO``/``WELCOME``
negotiate (refusing politely when the peer is a sweep broker rather than a
serving daemon), then

* :meth:`PolicyClient.act` — one observation, one greedy action;
* :meth:`PolicyClient.act_many` — *pipelined*: every ``ACT`` frame of the
  call goes out in one write before any reply is read, so one server tick
  reads many of them and answers them with a few ``act_batch`` calls
  instead of serializing on round trips.  Each state travels as a list of
  Python floats (exact float64 in pickle's ``BINFLOAT``), which encodes,
  decodes and frames smaller than an ndarray row;
* :meth:`PolicyClient.swap` — push a (pickled) trained agent into the live
  server, the transport under :class:`~repro.serving.WeightPushCallback`;
* :meth:`PolicyClient.stats` — the server's counters + latency histograms.

Replies are read through a per-client inbox: one ``recv`` of up to 64 KiB
and :func:`~repro.distributed.protocol.read_frames` cut out every reply it
completed, each length header checked against
:func:`~repro.distributed.protocol.default_max_frame_bytes` before its body
is buffered.

The connection opens through :func:`repro.distributed.protocol.dial`, like
every other client of the framing; errors surface as :class:`ServingError`
with the reason the server gave, never a raw pickle traceback.
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
                host, port, self.client_id, timeout=timeout, retry=retry,
                connect_factory=connect_factory,
                require={"serving": f"peer at {host}:{port} is not a policy "
                                    "server (a sweep broker?); point the "
                                    "client at `repro serve`"})
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
        self._sendall(protocol.encode_frame(kind, payload))

    def _sendall(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
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

    @staticmethod
    def _payload(reply: Tuple[str, Any], request: str, expected: str) -> Any:
        """The payload of ``reply``, which must be of kind ``expected``."""
        kind, payload = reply
        if kind == protocol.ERROR:
            raise ServingError(str(payload))
        if kind != expected:
            raise ServingError(
                f"unexpected {kind!r} reply to {request.upper()}")
        return payload

    def _reply(self, request: str, expected: str) -> Any:
        """The payload of the next reply, which must be of kind ``expected``."""
        return self._payload(self._next_frame(), request, expected)

    def act(self, state: Sequence[float], *,
            design: Optional[str] = None) -> int:
        """The greedy action for one observation."""
        return int(self.act_many([state], design=design)[0])

    def act_many(self, states: Sequence[Sequence[float]], *,
                 design: Optional[str] = None) -> np.ndarray:
        """Greedy actions for many observations, pipelined.

        All ``ACT`` frames go out in one write before any ``ACTION`` is
        read; the server answers each connection in request order, so the
        returned array lines up with ``states`` row for row.  Every reply
        is read before a rejected row raises, so the connection stays in
        step for the next call.
        """
        resolved = self._design(design)
        matrix = np.asarray(states, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2:
            raise ValueError(
                f"states must be (batch, n_states), got shape {matrix.shape}")
        self._sendall(b"".join(protocol.encode_frame(protocol.ACT, (resolved, row))
                               for row in matrix.tolist()))
        replies = [self._next_frame() for _ in range(matrix.shape[0])]
        return np.array([self._payload(reply, protocol.ACT, protocol.ACTION)
                         for reply in replies], dtype=np.int64)

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
