"""Wire protocol of the distributed sweep backend: framed pickle messages.

The broker and its workers exchange Python objects over a TCP stream as
length-prefixed pickle frames — an 8-byte big-endian payload size followed
by the pickled message.  Every message is a ``(kind, payload)`` tuple with
``kind`` one of the module constants below; keeping the frame format this
small means the protocol needs no third-party dependency and any object the
sweep already pickles for the process backend (``SweepTask``,
``TrainingResult``) travels unchanged.

Message flow
------------
The conversation is strictly client-driven: the broker only ever writes in
*response* to a worker frame, so the worker can interleave unsolicited
``HEARTBEAT`` frames (which get no reply) from a background thread without
desynchronizing the request/response pairing.

===================  =======================  ================================
worker sends          broker replies           meaning
===================  =======================  ================================
``(HELLO, worker_id)``  ``(WELCOME, info)``     registration; ``info`` carries
                                                the sweep size
``(GET, capacity)``     ``(TASK, (idx, task))``  a leased task to execute.
                                                 ``capacity`` advertises the
                                                 worker's max lease batch
                                                 (pre-1.4 workers send
                                                 ``None`` = 1; brokers
                                                 ignore unknown payloads)
..                      ``(TASKS, [(idx, task), ...])``  a *batch* of leased
                                                 tasks sharing one lock-step
                                                 key, at most the worker's
                                                 capacity (see
                                                 ``SweepBroker``) — sent
                                                 only to workers that
                                                 advertised capacity > 1
..                      ``(WAIT, seconds)``      nothing free right now — every
                                                 remaining task is leased to
                                                 another worker; poll again
..                      ``(SHUTDOWN, None)``     all tasks complete, disconnect
``(RESULT, (idx, result, backend))``  ``(ACK, fresh)``  result received;
                                                 ``fresh`` is False for a
                                                 duplicate delivery
``(HEARTBEAT, None)``   *(no reply)*             lease keep-alive mid-trial
``(STATS, None)``       ``(STATS, snapshot)``    fleet observability snapshot
                                                 (tasks queued/leased/done,
                                                 per-worker liveness, counters)
``(DRAIN, None)``       *(no reply)*             worker announces it is
                                                 draining itself (SIGTERM):
                                                 it will deliver its in-flight
                                                 results and disconnect
..                      ``(DRAIN, None)``        broker's reply to ``GET``
                                                 from a worker marked for
                                                 retirement: deliver nothing
                                                 more, disconnect gracefully
``(DRAIN, [ids])``      ``(DRAIN, info)``        control request (observer/
                                                 autoscaler): mark workers
                                                 for drain; ``info`` lists
                                                 ``marked``/``unknown`` ids
===================  =======================  ================================

``STATS`` is negotiated exactly like lease batching: a 1.5+ broker
advertises ``"stats": True`` in its ``WELCOME`` info, and only clients that
saw the flag send the frame — pre-1.5 workers never request stats and
pre-1.5 brokers never see one, so mixed fleets stay wire-compatible.  The
``repro fleet status`` observer registers with a worker id prefixed
:data:`OBSERVER_PREFIX` so brokers keep it out of the worker accounting.

Drain frames (1.7+)
-------------------
``DRAIN`` is the graceful half of elastic scaling (:mod:`repro.fleet`):
retiring a worker must never lose a lease.  It is double-negotiated
through the existing capability dicts, so every mixed-version pairing
degrades to pre-1.7 behaviour instead of erroring:

* a 1.7+ **broker** advertises ``"drain": True`` in its ``WELCOME`` info
  (alongside ``"stats"``); a pre-1.7 worker reads only ``info["tasks"]``
  and never sees a ``DRAIN`` frame, because...
* ...a 1.7+ **worker** that saw the flag upgrades its ``GET`` payload from
  the bare capacity integer to ``{"capacity": k, "drain": True}``, and the
  broker only ever answers ``DRAIN`` on connections that advertised it.
  A 1.7+ worker on a pre-1.7 broker keeps sending the bare integer (the
  old broker would misread the dict as capacity 1), so the old wire
  protocol is preserved bit-for-bit in every legacy pairing.

The retirement choreography: the autoscaler marks a worker through the
control form ``(DRAIN, [worker_ids])`` on an observer connection; the
broker stops leasing to it and answers its next ``GET`` with
``(DRAIN, None)``; the worker — which by then has delivered every result
of its in-flight lease batch, since ``GET`` only happens at batch
boundaries — disconnects cleanly and exits.  A worker retired by SIGTERM
instead finishes its in-flight batch, delivers the results, announces
``(DRAIN, None)`` and disconnects.  Either way the broker observes a
draining worker close its connection with no live leases: a *graceful*
drain, counted (with its duration) in the ``STATS`` snapshot.

Serving frames (1.6+)
---------------------
The :class:`~repro.serving.PolicyServer` daemon speaks the same framing
with its own kinds, negotiated through ``WELCOME`` info exactly like the
broker (a serving daemon advertises ``"serving": True`` plus its design
list, so a client that connects to a broker — or vice versa — fails with
one clear error instead of a pickle surprise):

=====================  ==========================  =========================
client sends            server replies              meaning
=====================  ==========================  =========================
``(HELLO, client_id)``  ``(WELCOME, info)``         registration; ``info``
                                                    carries designs/limits
``(ACT, (design, state))``  ``(ACTION, action)``    one greedy action for one
                                                    observation; ``state`` is
                                                    any 1-D float sequence
                                                    (clients send a list of
                                                    floats; an ndarray row is
                                                    served the same).  The
                                                    server batches the
                                                    requests one loop tick
                                                    reads
``(SWAP, (design, blob))``  ``(SWAPPED, info)``     hot-swap the design's
                                                    policy to the pickled
                                                    agent in ``blob``
``(STATS, None)``       ``(STATS, snapshot)``       request counters + latency
                                                    histograms (p50/p90/p99)
*anything invalid*      ``(ERROR, reason)``         unknown design, bad state
                                                    shape, undecodable blob...
=====================  ==========================  =========================

Opening a connection
--------------------
Every client (worker, :class:`~repro.serving.PolicyClient`, ``repro fleet
status``, drain requests) opens its session with :func:`dial`: connect,
``(HELLO, client_id)``, expect ``(WELCOME, dict)`` advertising every
required capability.  Each failure is one :class:`HandshakeError`:

=======================================================  =========
failure                                                  transient
=======================================================  =========
connect refused, unreachable or timed out                yes
EOF, reset or timeout before ``WELCOME``                 yes
reply is not ``WELCOME``, or its info is not a dict      no
malformed or oversized frame                             no
a required capability is not advertised                  no
=======================================================  =========

Given a :class:`~repro.utils.retry.RetryPolicy`, :func:`dial` retries the
transient failures on its schedule; definitive ones raise at once.

Security note: frames are pickles, so the broker must only be bound to
interfaces you trust (the default is loopback).  This mirrors the stdlib
``multiprocessing`` connection model the in-process backends already rely
on.  :func:`recv_message` and :func:`read_frames` additionally refuse
frames larger than ``max_frame_bytes`` (for :func:`recv_message` the
default is :data:`MAX_FRAME_BYTES`, overridable per call or via
``$REPRO_MAX_FRAME_BYTES``) *before* allocating, so a corrupt or hostile
length header cannot trigger a giant allocation.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.utils.retry import RetryPolicy

#: Message kinds (worker -> broker unless noted).
HELLO = "hello"
GET = "get"
RESULT = "result"
HEARTBEAT = "heartbeat"
#: Bidirectional (1.5+): request payload ``None``, reply payload the snapshot.
STATS = "stats"
#: Bidirectional (1.7+), negotiated via the WELCOME/GET capability dicts:
#: worker -> broker with payload ``None`` announces a self-initiated drain
#: (no reply, like HEARTBEAT); broker -> worker as the reply to a ``GET``
#: from a worker marked for retirement; observer -> broker with a payload
#: list of worker ids marks those workers for drain (replied with a DRAIN
#: info frame).
DRAIN = "drain"
#: Broker -> worker kinds.
WELCOME = "welcome"
TASK = "task"
TASKS = "tasks"          #: multi-task lease batch (one lock-step key)
WAIT = "wait"
SHUTDOWN = "shutdown"
ACK = "ack"

#: Serving kinds (PolicyClient <-> PolicyServer, 1.6+).
ACT = "act"              #: client -> server: ``(design, 1-D float sequence)``
ACTION = "action"        #: server -> client: the greedy action
SWAP = "swap"            #: client -> server: ``(design, pickled agent blob)``
SWAPPED = "swapped"      #: server -> client: swap acknowledged (+ generation)
ERROR = "error"          #: server -> client: request rejected, payload = reason

#: HELLO ids starting with this mark observer connections (``repro fleet
#: status``): they may request STATS but never lease tasks, and brokers
#: exclude them from ``workers_seen`` and the per-worker liveness table.
OBSERVER_PREFIX = "_observer"

_HEADER = struct.Struct(">Q")

#: Default upper bound on a single frame (1 GiB) — a corrupted or malicious
#: header fails fast instead of attempting a giant allocation.  Network-facing
#: daemons pass a tighter per-call limit; ``$REPRO_MAX_FRAME_BYTES`` overrides
#: the default process-wide.
MAX_FRAME_BYTES = 1 << 30

#: Environment variable overriding the default frame-size ceiling.
MAX_FRAME_ENV_VAR = "REPRO_MAX_FRAME_BYTES"


def default_max_frame_bytes() -> int:
    """The process-wide frame ceiling: ``$REPRO_MAX_FRAME_BYTES`` or 1 GiB."""
    raw = os.environ.get(MAX_FRAME_ENV_VAR)
    if raw is None:
        return MAX_FRAME_BYTES
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(
            f"${MAX_FRAME_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if limit <= 0:
        raise ValueError(
            f"${MAX_FRAME_ENV_VAR} must be a positive integer, got {raw!r}")
    return limit


class ProtocolError(ConnectionError):
    """A malformed frame or a violation of the request/response contract."""


class TransportCounters:
    """Frames/bytes moved through :func:`send_message` / :func:`recv_message`.

    One process-wide instance (:func:`transport_counters`) counts every
    framed message this process sends or receives — broker and worker alike
    — so the ``STATS`` snapshot and ``telemetry.json`` can report transport
    traffic.  Always on: the cost is two integer adds under a lock per
    frame, dwarfed by the pickle + syscall the frame itself costs.
    """

    __slots__ = ("_lock", "frames_sent", "frames_received",
                 "bytes_sent", "bytes_received")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def record_send(self, n_bytes: int) -> None:
        with self._lock:
            self.frames_sent += 1
            self.bytes_sent += n_bytes

    def record_receive(self, n_bytes: int) -> None:
        with self._lock:
            self.frames_received += 1
            self.bytes_received += n_bytes

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }

    def reset(self) -> None:
        with self._lock:
            self.frames_sent = self.frames_received = 0
            self.bytes_sent = self.bytes_received = 0


_COUNTERS = TransportCounters()


def transport_counters() -> TransportCounters:
    """This process's transport traffic counters."""
    return _COUNTERS


def encode_frame(kind: str, payload: Any = None) -> bytes:
    """One framed ``(kind, payload)`` message, counted as sent."""
    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    _COUNTERS.record_send(_HEADER.size + len(body))
    return _HEADER.pack(len(body)) + body


def send_message(sock: socket.socket, kind: str, payload: Any = None) -> None:
    """Write one framed ``(kind, payload)`` message to the socket."""
    sock.sendall(encode_frame(kind, payload))


def recv_message(sock: socket.socket, *,
                 max_frame_bytes: Optional[int] = None) -> Tuple[str, Any]:
    """Read one framed message; raises ``ConnectionError`` on EOF/corruption.

    EOF mid-frame is a plain ``ConnectionError`` (an outage); a payload
    that does not unpickle, or is not a ``(kind, payload)`` tuple, is a
    :class:`ProtocolError` (a violation).  ``max_frame_bytes`` caps the
    peer-supplied length *before* any allocation happens (default
    :func:`default_max_frame_bytes`); an oversized frame raises
    :class:`ProtocolError`.  Daemons that accept
    connections from the network pass a limit sized to their real traffic —
    the broker's trial results and the policy server's observations are
    orders of magnitude below the 1 GiB default.
    """
    limit = (default_max_frame_bytes() if max_frame_bytes is None
             else max_frame_bytes)
    if limit <= 0:
        raise ValueError(f"max_frame_bytes must be positive, got {limit}")
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    _check_length(length, limit)
    return _decode_frame(_recv_exact(sock, length))


def read_frames(buffer: bytearray, *,
                max_frame_bytes: int) -> Iterator[Tuple[str, Any]]:
    """Cut every complete frame off the front of ``buffer``, in order.

    The non-blocking twin of :func:`recv_message` for readers that buffer
    whatever bytes have arrived: each length header is checked against the
    limit as soon as it is complete, before its body is waited for, and
    each body goes through the same :func:`_decode_frame`.  A partial frame
    stays in ``buffer`` for the next call.
    """
    while len(buffer) >= _HEADER.size:
        (length,) = _HEADER.unpack_from(buffer)
        _check_length(length, max_frame_bytes)
        end = _HEADER.size + length
        if len(buffer) < end:
            return
        body = buffer[_HEADER.size:end]
        del buffer[:end]
        yield _decode_frame(body)


def _decode_frame(body: bytes) -> Tuple[str, Any]:
    """The ``(kind, payload)`` message in one frame body, counted as received."""
    try:
        message = pickle.loads(body)
    except Exception as error:
        raise ProtocolError(f"undecodable frame: {error!r}") from error
    if not (isinstance(message, tuple) and len(message) == 2
            and isinstance(message[0], str)):
        raise ProtocolError(f"malformed message: {type(message).__name__}")
    _COUNTERS.record_receive(_HEADER.size + len(body))
    return message


def _check_length(length: int, limit: int) -> None:
    if length > limit:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {limit}-byte limit")


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class HandshakeError(ConnectionError):
    """:func:`dial` failed.  ``transient``: a retry might succeed.
    ``connected``: the peer accepted the connection, then failed HELLO."""

    def __init__(self, message: str, *, transient: bool = False,
                 connected: bool = True) -> None:
        super().__init__(message)
        self.transient = transient
        self.connected = connected


def dial(host: str, port: int, client_id: str, *,
         require: Mapping[str, str], timeout: Optional[float],
         retry: Optional[RetryPolicy] = None,
         connect_factory: Optional[Callable[[str, int, Optional[float]],
                                            socket.socket]] = None,
         ) -> Tuple[socket.socket, Dict[str, Any]]:
    """Connect, ``HELLO`` and check the ``WELCOME``; ``(socket, info)``.

    ``require`` maps each capability the ``WELCOME`` info must advertise
    to the error message used when it does not.  ``timeout`` bounds the
    connect and the handshake.  ``connect_factory(host, port, timeout)``
    replaces ``socket.create_connection`` (the
    :class:`~repro.chaos.FaultPlan` seam).  An exhausted ``retry`` raises
    :class:`~repro.utils.retry.RetryError`.
    """
    if retry is not None:
        return _retry_transient(retry, lambda: dial(
            host, port, client_id, require=require, timeout=timeout,
            connect_factory=connect_factory))
    try:
        if connect_factory is not None:
            sock = connect_factory(host, port, timeout)
        else:
            sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as error:
        raise HandshakeError(f"connect failed: {error}", transient=True,
                             connected=False) from error
    try:
        try:
            send_message(sock, HELLO, client_id)
            kind, info = recv_message(sock)
        except ProtocolError as error:
            raise HandshakeError(
                f"bad reply to HELLO from {host}:{port}: {error}") from error
        except OSError as error:
            raise HandshakeError(f"connection lost before WELCOME: {error}",
                                 transient=True) from error
        if kind != WELCOME:
            raise HandshakeError(
                f"unexpected {kind!r} reply to HELLO from {host}:{port}")
        if not isinstance(info, dict):
            raise HandshakeError(f"malformed WELCOME from {host}:{port}: "
                                 f"{type(info).__name__}, not a dict")
        for flag, message in require.items():
            if not info.get(flag):
                raise HandshakeError(message)
    except HandshakeError:
        sock.close()
        raise
    return sock, info


def _retry_transient(retry: Optional[RetryPolicy],
                     attempt: Callable[[], Any]) -> Any:
    """``attempt()``, retried on ``retry`` while it raises a
    ``ConnectionError`` whose ``transient`` flag is set."""
    clock = None if retry is None else retry.clock()
    while True:
        try:
            return attempt()
        except ConnectionError as error:
            if clock is None or not getattr(error, "transient", False):
                raise
            clock.failed(error)


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` (the CLI's ``--connect``/``--bind`` format)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like HOST:PORT, got {address!r}")
    return host, int(port)


__all__ = [
    "ACK", "ACT", "ACTION", "DRAIN", "ERROR", "GET", "HEARTBEAT", "HELLO",
    "HandshakeError", "MAX_FRAME_BYTES", "MAX_FRAME_ENV_VAR",
    "OBSERVER_PREFIX", "ProtocolError", "RESULT", "SHUTDOWN", "STATS",
    "SWAP", "SWAPPED", "TASK", "TASKS", "TransportCounters", "WAIT",
    "WELCOME", "default_max_frame_bytes", "dial", "encode_frame",
    "parse_address", "read_frames", "recv_message", "send_message",
    "transport_counters",
]
