"""``PolicyServer``: the online policy-serving daemon.

A TCP daemon on the distributed backend's length-prefixed pickle framing
(:mod:`repro.distributed.protocol`) that hosts one trained agent per design
and answers ``ACT`` frames with greedy actions.  One loop thread serves every
connection through a :mod:`selectors` selector.  Each *tick* of the loop:

1. **reads** one bounded ``recv`` per ready socket and cuts out every
   complete frame (:func:`~repro.distributed.protocol.read_frames` checks
   each length header against ``max_frame_bytes`` before buffering a body);
2. **orders** the frames round-robin across connections, FIFO within one.
   ``ACT`` frames collect into pending groups, one per design, after the
   only per-frame checks (a ``(design, state)`` pair naming a hosted
   design); any other frame first dispatches the pending groups, so a
   ``SWAP`` lands between groups;
3. **dispatches** each design group: its states become one float64 matrix
   whose width and finiteness are checked once (any group that fails that
   is checked row by row to find the offenders; each bad row gets its own
   ``ERROR``), then one
   ``agent.act_batch(states, explore=False)`` call per ``max_batch`` of the
   good rows.  No request waits for a batch to fill, and greedy selection
   is RNG-free, so served actions are byte-identical to offline greedy
   evaluation;
4. **writes** the replies to each connection in request order (so clients
   may pipeline) with non-blocking ``send``.

A peer whose unsent replies exceed ``max_frame_bytes`` is dropped with a
warning, so the loop never waits on one peer.  Counters, latency and
per-stage (``serving.stage.{read,act_batch,write}_seconds``) histograms ride
a :class:`~repro.telemetry.registry.MetricsRegistry`, surfaced through the
``STATS`` frame with interpolated p50/p90/p99.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import threading
import time
from itertools import zip_longest
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed import protocol
from repro.telemetry.registry import COUNT_BUCKETS, MetricsRegistry
from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.serving.server")

#: Default per-frame ceiling for serving traffic: observations are a few
#: hundred bytes and even a whole pickled agent (a SWAP payload) is a few
#: megabytes of hidden-layer matrices — 64 MiB bounds a hostile length
#: header at roughly 1000x real traffic instead of the 1 GiB default.
SERVING_MAX_FRAME_BYTES = 64 << 20

#: The most bytes one connection's ``recv`` takes per tick.
_RECV_BYTES = 1 << 16


class _PolicyEntry:
    """One hosted design: its live agent + swap bookkeeping."""

    __slots__ = ("agent", "generation", "n_states", "requests")

    def __init__(self, agent: Any) -> None:
        self.agent = agent
        self.generation = 0
        self.n_states = _state_width(agent)
        self.requests = 0


def _state_width(agent: Any) -> Optional[int]:
    """The observation width an agent expects, when it advertises one."""
    config = getattr(agent, "config", None)
    width = getattr(config, "n_states", None)
    return int(width) if width is not None else None


class _Connection:
    """One client socket and its buffers."""

    __slots__ = ("sock", "client_id", "inbox", "outbox", "replies")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.client_id = "<unregistered>"
        self.inbox = bytearray()      #: bytes of a frame not yet complete
        self.outbox = bytearray()     #: reply bytes not yet sent
        #: This tick's ``(kind, payload)`` replies in request order; an
        #: ``ACT`` holds a ``None`` slot until its chunk is dispatched.
        self.replies: List[Optional[Tuple[str, Any]]] = []


class PolicyServer:
    """Serve greedy actions for trained agents over TCP.

    Parameters
    ----------
    policies:
        ``{design_name: trained_agent}`` — anything satisfying the agent
        protocol (``act_batch(states, explore=False)``).  Typically loaded
        from an :class:`~repro.api.store.ArtifactStore` via
        :func:`~repro.serving.load_spec_policies`.
    host / port:
        Bind address; port 0 (default) picks an ephemeral port, published
        through :attr:`address` after :meth:`start`.
    max_batch:
        The most ``ACT`` requests one ``act_batch`` call takes; a tick's
        longer group for one design splits into several calls.
    max_frame_bytes:
        Frame-size ceiling enforced on every client frame before its body
        is buffered (default :data:`SERVING_MAX_FRAME_BYTES`); also the most
        unsent reply bytes one connection may hold.
    """

    def __init__(self, policies: Dict[str, Any], *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 8,
                 max_frame_bytes: int = SERVING_MAX_FRAME_BYTES) -> None:
        if not policies:
            raise ValueError("policies must not be empty: nothing to serve")
        for design, agent in policies.items():
            if not callable(getattr(agent, "act_batch", None)):
                raise TypeError(
                    f"policy for design {design!r} has no act_batch(); "
                    f"got {type(agent).__name__}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self.max_frame_bytes = int(max_frame_bytes)
        self._policy_lock = threading.Lock()
        self._policies: Dict[str, _PolicyEntry] = {
            design: _PolicyEntry(agent) for design, agent in policies.items()}
        self._bind_host = host
        self._bind_port = port
        self.metrics = MetricsRegistry()
        self._latency = self.metrics.histogram("serving.request_latency_seconds")
        self._batch_sizes = self.metrics.histogram("serving.batch_size",
                                                   buckets=COUNT_BUCKETS)
        self._stages = {stage: self.metrics.histogram(f"serving.stage.{stage}_seconds")
                        for stage in ("read", "act_batch", "write")}
        self._requests = self.metrics.counter("serving.requests")
        self._errors = self.metrics.counter("serving.errors")
        self._swaps = self.metrics.counter("serving.swaps")
        self._connections_gauge = self.metrics.gauge("serving.connections")
        self._server: Optional[socket.socket] = None
        self._selector: Any = None
        self._wake: Tuple[socket.socket, ...] = ()
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._closing = False
        #: ``ACT`` frames decoded but not yet answered (``STATS`` mid-tick).
        self._queued = 0
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "PolicyServer":
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._bind_host, self._bind_port))
        server.listen(64)
        server.setblocking(False)
        self._server = server
        self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(server, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake[0], selectors.EVENT_READ, "wake")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serving-loop", daemon=True)
        self._thread.start()
        _LOGGER.info("policy server started", address="%s:%d" % self.address,
                     designs=len(self._policies))
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.getsockname()[:2]

    def designs(self) -> List[str]:
        with self._policy_lock:
            return sorted(self._policies)

    def close(self) -> None:
        """Stop the loop; every client sees its connection close."""
        if self._closing:
            return
        self._closing = True
        if self._thread is None:
            return
        self._wake[1].send(b"\0")
        self._thread.join(timeout=5.0)
        self._wake[1].close()
        _LOGGER.info("policy server stopped")

    def __enter__(self) -> "PolicyServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ swaps
    def swap_policy(self, design: str, agent: Any) -> Dict[str, Any]:
        """Install ``agent`` as the live policy for ``design``.

        Called by the ``SWAP`` frame handler (and usable in-process, from
        any thread).  A previously unserved design is added, so a trainer
        can push a brand new policy into a running daemon.  Returns the
        acknowledgement payload (design, new generation).
        """
        if not callable(getattr(agent, "act_batch", None)):
            raise TypeError(
                f"swap payload for design {design!r} has no act_batch(); "
                f"got {type(agent).__name__}")
        with self._policy_lock:
            entry = self._policies.get(design)
            if entry is None:
                entry = self._policies[design] = _PolicyEntry(agent)
                entry.generation = 1
            else:
                entry.agent = agent
                entry.n_states = _state_width(agent)
                entry.generation += 1
            generation = entry.generation
        self._swaps.inc()
        _LOGGER.info("policy swapped", design=design, generation=generation)
        return {"design": design, "generation": generation}

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> Dict[str, Any]:
        """A JSON-ready observability snapshot (the ``STATS`` reply)."""
        import repro

        with self._policy_lock:
            designs = {design: {"generation": entry.generation,
                                "requests": entry.requests,
                                "n_states": entry.n_states}
                       for design, entry in self._policies.items()}
        return {
            "repro_version": repro.__version__,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "designs": designs,
            "batching": {"max_batch": self.max_batch, "queued": self._queued},
            "metrics": self.metrics.snapshot(),
            "transport": protocol.transport_counters().snapshot(),
        }

    # ------------------------------------------------------------------ loop
    def _run(self) -> None:
        try:
            while True:
                events = self._selector.select()
                # Only close() writes to the wake-up pair; its peer stays open
                # until the loop has read that byte.
                if any(key.data == "wake" for key, _mask in events):
                    return
                self._tick(events)
        finally:
            for conn in list(self._connections):
                self._drop(conn)
            self._selector.close()
            self._server.close()
            self._wake[0].close()

    def _tick(self, events: List[Tuple[selectors.SelectorKey, int]]) -> None:
        started = time.perf_counter()
        inbound: List[List[Tuple[_Connection, str, Any]]] = []
        for key, mask in events:
            if key.data == "accept":
                self._accept()
                continue
            if mask & selectors.EVENT_WRITE:
                self._flush(key.data)
            if mask & selectors.EVENT_READ:
                frames = self._read(key.data)
                if frames:
                    inbound.append(frames)
        if not inbound:
            return
        self._stages["read"].observe(time.perf_counter() - started)

        order = [frame for rank in zip_longest(*inbound) for frame in rank
                 if frame is not None]
        self._queued = sum(kind == protocol.ACT for _, kind, _ in order)
        pending: Dict[str, List[Tuple[_Connection, int, Any]]] = {}
        act_seconds = 0.0
        designs = self._design_set()
        for conn, kind, payload in order:
            if kind == protocol.ACT:
                self._queue_act(conn, payload, designs, pending)
            else:
                act_seconds += self._dispatch(pending, started)
                conn.replies.append(self._answer(conn, kind, payload))
                designs = self._design_set()  # a SWAP may add a design
        act_seconds += self._dispatch(pending, started)
        self._stages["act_batch"].observe(act_seconds)

        write_started = time.perf_counter()
        for frames in inbound:
            conn = frames[0][0]
            conn.outbox += b"".join(protocol.encode_frame(*reply)
                                    for reply in conn.replies)
            conn.replies.clear()
            self._flush(conn)
        self._stages["write"].observe(time.perf_counter() - write_started)

    def _accept(self) -> None:
        try:
            sock, _address = self._server.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Connection(sock)
        self._connections.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._connections_gauge.inc()

    def _drop(self, conn: _Connection) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._connections_gauge.dec()

    def _read(self, conn: _Connection) -> List[Tuple[_Connection, str, Any]]:
        """One ``recv``, then every frame it completed.  A peer that closed
        or sent a bad frame is dropped."""
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return []
        except OSError:
            chunk = b""
        if not chunk:
            self._drop(conn)
            return []
        conn.inbox += chunk
        try:
            return [(conn, kind, payload) for kind, payload in protocol.read_frames(
                conn.inbox, max_frame_bytes=self.max_frame_bytes)]
        except protocol.ProtocolError as error:
            _LOGGER.warning("client protocol error", client=conn.client_id,
                            error=str(error))
            self._drop(conn)
            return []

    def _flush(self, conn: _Connection) -> None:
        """Send what the socket takes now; watch for writability if not all."""
        if conn not in self._connections:
            return
        if conn.outbox:
            try:
                sent = conn.sock.send(conn.outbox)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._drop(conn)
                return
            del conn.outbox[:sent]
        if len(conn.outbox) > self.max_frame_bytes:
            _LOGGER.warning("client not reading: dropped", client=conn.client_id,
                            unsent_bytes=len(conn.outbox))
            self._drop(conn)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE
                                         if conn.outbox else 0)
        if events != self._selector.get_key(conn.sock).events:
            self._selector.modify(conn.sock, events, conn)

    # ------------------------------------------------------------------ frames
    def _design_set(self) -> frozenset:
        with self._policy_lock:
            return frozenset(self._policies)

    def _queue_act(self, conn: _Connection, payload: Any, designs: frozenset,
                   pending: Dict[str, List[Tuple[_Connection, int, Any]]]
                   ) -> None:
        """Queue one ``ACT`` on its design's group, or answer ERROR.

        Only the payload's shape and its design are checked per frame; the
        state is checked with the rest of its group in :meth:`_dispatch`.
        """
        try:
            design, state = payload
            design = str(design)
            if design not in designs:
                raise KeyError(
                    f"unknown design {design!r}; serving {self.designs()}")
        except Exception as error:  # noqa: BLE001 - any bad request -> ERROR
            self._errors.inc()
            self._queued -= 1
            conn.replies.append((protocol.ERROR, str(error)))
            return
        pending.setdefault(design, []).append((conn, len(conn.replies), state))
        conn.replies.append(None)

    def _check_group(self, design: str, states: List[Any]
                     ) -> Tuple[Sequence[Any], Dict[int, str]]:
        """One design group's good rows, and the reason each bad row (by
        index into ``states``) fails.

        A group of good rows becomes one float64 matrix, checked for width
        and finiteness once; any other group is checked row by row by
        :func:`_check_rows`, which words each bad row's reason.
        """
        with self._policy_lock:
            expected = self._policies[design].n_states
        try:
            matrix = np.array(states, dtype=np.float64)
        except Exception:  # noqa: BLE001 - any unbuildable group -> per row
            return _check_rows(design, states, expected)
        if (matrix.ndim == 2
                and (expected is None or matrix.shape[1] == expected)
                and np.isfinite(matrix).all()):
            return matrix, {}
        return _check_rows(design, states, expected)

    def _dispatch(self, pending: Dict[str, List[Tuple[_Connection, int, Any]]],
                  started: float) -> float:
        """Answer the pending ``ACT`` frames: check each design group once,
        then one ``act_batch`` per chunk of ``max_batch`` good rows (a
        failure answers its chunk); returns the ``act_batch`` seconds."""
        seconds = 0.0
        for design, requests in pending.items():
            rows, errors = self._check_group(
                design, [state for _, _, state in requests])
            if errors:
                for index, reason in errors.items():
                    conn, slot, _state = requests[index]
                    conn.replies[slot] = (protocol.ERROR, reason)
                self._errors.inc(len(errors))
                self._queued -= len(errors)
                requests = [request for index, request in enumerate(requests)
                            if index not in errors]
            self._requests.inc(len(requests))
            for first in range(0, len(requests), self.max_batch):
                chunk = requests[first:first + self.max_batch]
                # Read under the swap lock, so an in-process swap_policy from
                # another thread lands between chunks, never inside one.
                with self._policy_lock:
                    entry = self._policies[design]
                    agent = entry.agent
                    entry.requests += len(chunk)
                began = time.perf_counter()
                try:
                    # A no-op view on a checked matrix; a stack of the rows
                    # _check_rows passed (which may differ in width when the
                    # design states none, failing only this chunk).
                    states = np.asarray(rows[first:first + self.max_batch],
                                        dtype=np.float64)
                    actions = np.asarray(agent.act_batch(states, explore=False),
                                         dtype=np.int64)
                    if actions.shape != (len(chunk),):
                        raise RuntimeError(
                            f"act_batch returned shape {actions.shape}, "
                            f"expected ({len(chunk)},)")
                except Exception as error:  # noqa: BLE001 - forwarded to the chunk
                    _LOGGER.warning("batch dispatch failed", design=design,
                                    size=len(chunk), error=repr(error))
                    self._errors.inc(len(chunk))
                    replies = [(protocol.ERROR, f"dispatch failed: {error}")] * len(chunk)
                else:
                    self._batch_sizes.observe(len(chunk))
                    replies = [(protocol.ACTION, action) for action in actions.tolist()]
                    # Every row of the chunk has waited since its tick began.
                    self._latency.observe(time.perf_counter() - started,
                                          count=len(chunk))
                seconds += time.perf_counter() - began
                for (conn, slot, _state), reply in zip(chunk, replies):
                    conn.replies[slot] = reply
                self._queued -= len(chunk)
        pending.clear()
        return seconds

    def _answer(self, conn: _Connection, kind: str, payload: Any) -> Tuple[str, Any]:
        """The reply to one non-``ACT`` frame."""
        import repro

        if kind == protocol.HELLO:
            conn.client_id = str(payload)
            return protocol.WELCOME, {"serving": True, "stats": True,
                                      "repro_version": repro.__version__,
                                      "designs": self.designs(),
                                      "max_batch": self.max_batch}
        if kind == protocol.SWAP:
            try:
                design, blob = payload
                return protocol.SWAPPED, self.swap_policy(str(design),
                                                          pickle.loads(blob))
            except Exception as error:  # noqa: BLE001 - any bad blob -> ERROR
                self._errors.inc()
                return protocol.ERROR, f"swap rejected: {error}"
        if kind == protocol.STATS:
            return protocol.STATS, self.stats_snapshot()
        self._errors.inc()
        return protocol.ERROR, f"unknown frame kind {kind!r}"


def _check_rows(design: str, states: List[Any], expected: Optional[int]
                ) -> Tuple[List[np.ndarray], Dict[int, str]]:
    """:meth:`PolicyServer._check_group` one row at a time, for a group
    that is not all good rows of one matrix."""
    rows: List[np.ndarray] = []
    errors: Dict[int, str] = {}
    for index, state in enumerate(states):
        try:
            row = np.asarray(state, dtype=np.float64)
            if row.ndim != 1:
                raise ValueError(
                    f"state must be 1-D (one observation per ACT frame), "
                    f"got shape {row.shape}")
            if expected is not None and row.shape[0] != expected:
                raise ValueError(
                    f"design {design!r} expects {expected} state dims, "
                    f"got {row.shape[0]}")
            if not np.isfinite(row).all():
                raise ValueError("state contains NaN or Inf values")
        except Exception as error:  # noqa: BLE001 - any bad row -> ERROR
            errors[index] = str(error)
        else:
            rows.append(row)
    return rows, errors


__all__ = ["PolicyServer", "SERVING_MAX_FRAME_BYTES"]
