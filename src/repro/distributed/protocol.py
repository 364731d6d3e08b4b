"""Wire protocol of the sweep broker and the policy server: framed pickles.

Peers exchange Python objects over a TCP stream as length-prefixed pickle
frames — an 8-byte big-endian payload size followed by the pickled
message.  Every message is a ``(kind, payload)`` tuple with ``kind`` one of
the module constants below; keeping the frame format this small means the
protocol needs no third-party dependency and any object the sweep already
pickles for the process backend (``SweepTask``, ``TrainingResult``)
travels unchanged.

There is one wire version, :data:`WIRE_VERSION`.  Every connection opens
with ``HELLO``; a daemon answers ``WELCOME`` naming the wire version, its
role (``"broker"`` or ``"serving"``) and, from a broker, the sweep size
(``tasks``) or, from a server, its ``designs`` and ``max_batch``.  Any
other ``HELLO`` (a bare id string, another wire version) gets ``ERROR``
and a closed connection.  Daemons only ever write in reply to a client
frame, so a worker can send ``HEARTBEAT`` frames (which get no reply) from
a background thread without desynchronizing the request/response pairing.

====================================  ==========================  ============================
client sends                          daemon replies              meaning
====================================  ==========================  ============================
``(HELLO, {"id", "wire"})``           ``(WELCOME, info)``         handshake
``(GET, capacity)``                   ``(TASKS, [(idx, task)])``  a lease of <= ``capacity``
                                                                  tasks of one lock-step key
..                                    ``(WAIT, seconds)``         all leased out; poll again
..                                    ``(DRAIN, None)``           retired: disconnect
..                                    ``(SHUTDOWN, None)``        every task is done
``(RESULT, (idx, result, backend))``  ``(ACK, fresh)``            False for a duplicate
``(HEARTBEAT, None)``                 *(no reply)*                lease keep-alive mid-trial
``(DRAIN, None)``                     *(no reply)*                the worker drains itself
``(DRAIN, [ids])``                    ``(DRAIN, info)``           an observer marks workers
``(STATS, None)``                     ``(STATS, snapshot)``       either daemon's counters
``(ACT_BATCH, (design, n, rows))``    ``(ACTIONS, [a, ...])``     a greedy action per row
``(SWAP, (design, blob))``            ``(SWAPPED, info)``         hot-swap a served policy
*a bad request to a server*           ``(ERROR, reason)``         why it was rejected
====================================  ==========================  ============================

``GET``, ``RESULT``, ``HEARTBEAT`` and ``DRAIN`` go to a broker;
``ACT_BATCH`` and ``SWAP`` go to a policy server.  ``ACT_BATCH`` carries a
``(B, n)`` float64 matrix as ``rows``, its C-order little-endian
(``'<f8'``) bytes, and is answered by one ``ACTIONS`` frame holding the B
actions in row order; a frame with any bad row is answered by one ``ERROR``
naming the first bad row.  A broker drops a connection that sends anything
else (an unknown kind, a malformed payload), and only that connection.
Observers (``repro fleet status``, drain requests) say ``HELLO`` with an
id prefixed :data:`OBSERVER_PREFIX`, which keeps them out of the broker's
worker accounting.

Opening a connection
--------------------
Every client (worker, :class:`~repro.serving.PolicyClient`, ``repro fleet
status``, drain requests) opens its session with :func:`dial`: connect,
``HELLO``, expect a ``WELCOME`` of this wire version from a daemon of the
role it asked for.  Each failure is one :class:`HandshakeError`:

=======================================================  =========
failure                                                  transient
=======================================================  =========
connect refused, unreachable or timed out                yes
EOF, reset or timeout before ``WELCOME``                 yes
reply is not ``WELCOME``, or its info is not a dict      no
malformed or oversized frame                             no
another wire version, or a daemon of another role        no
=======================================================  =========

Given a :class:`~repro.utils.retry.RetryPolicy`, :func:`dial` retries the
transient failures on its schedule; definitive ones raise at once.

Security note: frames are pickles, so the daemons must only be bound to
interfaces you trust (the default is loopback).  This mirrors the stdlib
``multiprocessing`` connection model the in-process backends already rely
on.  That holds for ``ACT_BATCH`` too: its envelope is a pickle, and only
the rows inside it are plain float64 bytes, read with ``np.frombuffer``.
:func:`recv_message` and :func:`read_frames` additionally refuse
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
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.utils.retry import RetryPolicy

#: The one wire version this package speaks, sent in every ``HELLO`` and
#: ``WELCOME``.  Independent of ``repro.__version__``: bump it when a frame
#: changes shape, and peers of the old shape are refused at the handshake.
WIRE_VERSION = 3

#: The daemon roles a ``WELCOME`` names, and how errors describe them.
ROLES = {"broker": "sweep broker", "serving": "policy server"}

#: Message kinds (client -> daemon unless noted).
HELLO = "hello"
GET = "get"
RESULT = "result"
HEARTBEAT = "heartbeat"
#: Bidirectional: request payload ``None``, reply payload the snapshot.
STATS = "stats"
#: Bidirectional: worker -> broker with payload ``None`` announces a
#: self-initiated drain (no reply, like HEARTBEAT); broker -> worker as the
#: reply to a ``GET`` from a worker marked for retirement; observer ->
#: broker with a list of worker ids marks those workers for drain (replied
#: with a DRAIN info frame).
DRAIN = "drain"
#: Daemon -> client kinds.
WELCOME = "welcome"
TASKS = "tasks"          #: a lease: ``[(idx, task), ...]`` of one lock-step key
WAIT = "wait"
SHUTDOWN = "shutdown"
ACK = "ack"

#: Serving kinds (PolicyClient <-> PolicyServer).
#: client -> server: ``(design, n_cols, rows)``, ``rows`` the C-order
#: ``'<f8'`` bytes of a ``(B, n_cols)`` matrix.
ACT_BATCH = "act_batch"
ACTIONS = "actions"      #: server -> client: a list of B greedy actions
SWAP = "swap"            #: client -> server: ``(design, pickled agent blob)``
SWAPPED = "swapped"      #: server -> client: swap acknowledged (+ generation)
ERROR = "error"          #: daemon -> client: request rejected, payload = reason

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



def check_hello(payload: Any) -> str:
    """The client id in a ``HELLO`` payload of this wire version.

    Both daemons check every ``HELLO`` here; anything but
    ``{"id": str, "wire": WIRE_VERSION}`` raises :class:`ProtocolError`
    with the reason the daemon sends back in its ``ERROR`` reply.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"HELLO must carry {{'id', 'wire'}} of wire version "
            f"{WIRE_VERSION}, got {type(payload).__name__}; upgrade the client")
    if payload.get("wire") != WIRE_VERSION:
        raise ProtocolError(f"client speaks wire version {payload.get('wire')!r},"
                            f" this daemon speaks {WIRE_VERSION}")
    client_id = payload.get("id")
    if not isinstance(client_id, str):
        raise ProtocolError(
            f"HELLO id must be a str, got {type(client_id).__name__}")
    return client_id


def welcome_info(role: str, **info: Any) -> Dict[str, Any]:
    """A daemon's ``WELCOME`` payload: the wire version, ``role`` and ``info``."""
    return {"wire": WIRE_VERSION, "role": role, **info}


def dial(host: str, port: int, client_id: str, *, role: str,
         timeout: Optional[float], retry: Optional[RetryPolicy] = None,
         connect_factory: Optional[Callable[[str, int, Optional[float]],
                                            socket.socket]] = None,
         ) -> Tuple[socket.socket, Dict[str, Any]]:
    """Connect, ``HELLO`` and check the ``WELCOME``; ``(socket, info)``.

    ``role`` (a key of :data:`ROLES`) is the daemon the caller expects.
    ``timeout`` bounds the connect and the handshake.
    ``connect_factory(host, port, timeout)`` replaces
    ``socket.create_connection`` (the :class:`~repro.chaos.FaultPlan`
    seam).  An exhausted ``retry`` raises
    :class:`~repro.utils.retry.RetryError`.
    """
    if retry is not None:
        return _retry_transient(retry, lambda: dial(
            host, port, client_id, role=role, timeout=timeout,
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
            send_message(sock, HELLO, {"id": client_id, "wire": WIRE_VERSION})
            kind, info = recv_message(sock)
        except ProtocolError as error:
            raise HandshakeError(
                f"bad reply to HELLO from {host}:{port}: {error}") from error
        except OSError as error:
            raise HandshakeError(f"connection lost before WELCOME: {error}",
                                 transient=True) from error
        if kind == ERROR:
            raise HandshakeError(f"{host}:{port} refused HELLO: {info}")
        if kind != WELCOME:
            raise HandshakeError(
                f"unexpected {kind!r} reply to HELLO from {host}:{port}")
        if not isinstance(info, dict):
            raise HandshakeError(f"malformed WELCOME from {host}:{port}: "
                                 f"{type(info).__name__}, not a dict")
        if info.get("wire") != WIRE_VERSION:
            raise HandshakeError(
                f"peer at {host}:{port} speaks wire version "
                f"{info.get('wire')!r}, not {WIRE_VERSION}; run the same "
                f"repro version on both ends")
        if info.get("role") != role:
            raise HandshakeError(
                f"peer at {host}:{port} is a "
                f"{ROLES.get(info.get('role'), repr(info.get('role')))}, "
                f"not a {ROLES.get(role, repr(role))}")
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
    "ACK", "ACTIONS", "ACT_BATCH", "DRAIN", "ERROR", "GET", "HEARTBEAT",
    "HELLO", "HandshakeError", "MAX_FRAME_BYTES", "MAX_FRAME_ENV_VAR",
    "OBSERVER_PREFIX", "ProtocolError", "RESULT", "ROLES", "SHUTDOWN",
    "STATS", "SWAP", "SWAPPED", "TASKS", "TransportCounters", "WAIT",
    "WELCOME", "WIRE_VERSION", "check_hello", "default_max_frame_bytes",
    "dial", "encode_frame", "parse_address", "read_frames", "recv_message",
    "send_message", "transport_counters", "welcome_info",
]
