"""``PolicyServer``: the online policy-serving daemon.

A TCP daemon on the distributed backend's length-prefixed pickle framing
(:mod:`repro.distributed.protocol`) that hosts one trained agent per design
and answers ``ACT`` frames with greedy actions.  Architecture mirrors the
:class:`~repro.distributed.broker.SweepBroker`: a threaded accept loop with
a short accept timeout, one handler per connection, ``HELLO``/``WELCOME``
version negotiation, and a ``STATS`` observability channel — but where the
broker fans *work out*, this daemon fans *requests in*:

* every connection gets a **reader** thread (parses frames, applies swaps,
  queues ``ACT`` requests into the shared :class:`~repro.serving.batcher.
  MicroBatcher`) and a **writer** thread (sends replies strictly in request
  order, so a client may pipeline many ``ACT`` frames without waiting);
* one dispatcher thread inside the batcher drains the queues and calls
  ``agent.act_batch(states, explore=False)`` on whatever is queued, up to
  ``max_batch`` — no request waits for a batch to fill; the agent is only
  ever touched single-threaded, and greedy selection is RNG-free, so served
  actions are byte-identical to offline greedy evaluation;
* a ``SWAP`` frame atomically replaces a design's agent between batches —
  in-flight requests are never dropped: batches already dispatched finish
  on the old weights, everything after the swap uses the new ones.

Request counters and latency histograms ride a dedicated
:class:`~repro.telemetry.registry.MetricsRegistry` (always on — serving
latency is the product here, not optional debug telemetry), surfaced
through the ``STATS`` frame with interpolated p50/p90/p99.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from queue import Queue
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.distributed import protocol
from repro.serving.batcher import MicroBatcher, PendingAction
from repro.telemetry.registry import COUNT_BUCKETS, MetricsRegistry
from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.serving.server")

#: Default per-frame ceiling for serving traffic: observations are a few
#: hundred bytes and even a whole pickled agent (a SWAP payload) is a few
#: megabytes of hidden-layer matrices — 64 MiB bounds a hostile length
#: header at roughly 1000x real traffic instead of the 1 GiB default.
SERVING_MAX_FRAME_BYTES = 64 << 20


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
        The most queued requests one ``act_batch`` call takes, forwarded
        to the :class:`~repro.serving.batcher.MicroBatcher`.
    max_frame_bytes:
        Frame-size ceiling enforced on every client frame before
        allocation (default :data:`SERVING_MAX_FRAME_BYTES`).
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
        self._requests = self.metrics.counter("serving.requests")
        self._errors = self.metrics.counter("serving.errors")
        self._swaps = self.metrics.counter("serving.swaps")
        self._connections = self.metrics.gauge("serving.connections")
        self.batcher = MicroBatcher(self._dispatch, max_batch=max_batch,
                                    on_batch=self._observe_batch)
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._open_connections: set = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "PolicyServer":
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._bind_host, self._bind_port))
        server.listen(64)
        server.settimeout(0.2)
        self._server = server
        self._started_at = time.monotonic()
        self.batcher.start()
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-serving-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
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
        if self._closing.is_set():
            return
        self._closing.set()
        self.batcher.close()
        if self._server is not None:
            self._server.close()
        # Readers block in recv(); closing their sockets is what unblocks
        # them, so shutdown never waits on an idle client.
        with self._conn_lock:
            open_connections = list(self._open_connections)
        for connection in open_connections:
            try:
                connection.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        _LOGGER.info("policy server stopped")

    def __enter__(self) -> "PolicyServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self, design: str, states: np.ndarray) -> np.ndarray:
        # Resolve the design's *current* agent under the swap lock; act_batch
        # itself runs outside it (single-threaded: only the dispatcher calls
        # this), so a SWAP never blocks on an in-flight batch and an
        # in-flight batch always completes on the weights it started with.
        with self._policy_lock:
            entry = self._policies[design]
            agent = entry.agent
            entry.requests += len(states)
        return np.asarray(agent.act_batch(states, explore=False),
                          dtype=np.int64)

    def _observe_batch(self, design: str, size: int, seconds: float) -> None:
        self._batch_sizes.observe(size)

    # ------------------------------------------------------------------ swaps
    def swap_policy(self, design: str, agent: Any) -> Dict[str, Any]:
        """Install ``agent`` as the live policy for ``design``.

        Called by the ``SWAP`` frame handler (and usable in-process).  A
        previously unserved design is added, so a trainer can push a brand
        new policy into a running daemon.  Returns the acknowledgement
        payload (design, new generation).
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
            "batching": {"max_batch": self.batcher.max_batch,
                         "queued": self.batcher.queued()},
            "metrics": self.metrics.snapshot(),
            "transport": protocol.transport_counters().snapshot(),
        }

    # ------------------------------------------------------------------ protocol
    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._closing.is_set():
            try:
                connection, _address = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(target=self._serve_client,
                                       args=(connection,),
                                       name="repro-serving-conn", daemon=True)
            handler.start()
            self._threads.append(handler)

    def _serve_client(self, connection: socket.socket) -> None:
        """Reader half of one connection; spawns its ordered-reply writer.

        Every frame's reply is enqueued (as an immediate payload or a
        pending batcher future) on a per-connection FIFO that the writer
        drains — replies leave in exactly the order requests arrived, which
        is what lets :meth:`PolicyClient.act_many` pipeline.
        """
        replies: Queue = Queue()
        with self._conn_lock:
            self._open_connections.add(connection)
        writer = threading.Thread(target=self._write_replies,
                                  args=(connection, replies),
                                  name="repro-serving-writer", daemon=True)
        writer.start()
        self._connections.inc()
        client_id = "<unregistered>"
        try:
            while not self._closing.is_set():
                try:
                    kind, payload = protocol.recv_message(
                        connection, max_frame_bytes=self.max_frame_bytes)
                except protocol.ProtocolError as error:
                    _LOGGER.warning("client protocol error",
                                    client=client_id, error=str(error))
                    break
                except (ConnectionError, OSError):
                    break
                if kind == protocol.HELLO:
                    client_id = str(payload)
                    replies.put(("now", protocol.WELCOME, self._welcome_info()))
                elif kind == protocol.ACT:
                    self._handle_act(payload, replies)
                elif kind == protocol.SWAP:
                    self._handle_swap(payload, replies)
                elif kind == protocol.STATS:
                    replies.put(("now", protocol.STATS, self.stats_snapshot()))
                else:
                    self._errors.inc()
                    replies.put(("now", protocol.ERROR,
                                 f"unknown frame kind {kind!r}"))
        finally:
            replies.put(None)
            writer.join(timeout=5.0)
            self._connections.dec()
            with self._conn_lock:
                self._open_connections.discard(connection)
            try:
                connection.close()
            except OSError:
                pass

    def _welcome_info(self) -> Dict[str, Any]:
        import repro

        return {
            "serving": True,
            "stats": True,
            "repro_version": repro.__version__,
            "designs": self.designs(),
            "max_batch": self.batcher.max_batch,
        }

    def _handle_act(self, payload: Any, replies: Queue) -> None:
        try:
            design, state = payload
            state = np.asarray(state, dtype=np.float64)
            if state.ndim != 1:
                raise ValueError(
                    f"state must be 1-D (one observation per ACT frame), "
                    f"got shape {state.shape}")
            with self._policy_lock:
                entry = self._policies.get(str(design))
                expected = entry.n_states if entry is not None else None
            if entry is None:
                raise KeyError(
                    f"unknown design {design!r}; serving {self.designs()}")
            if expected is not None and state.shape[0] != expected:
                raise ValueError(
                    f"design {design!r} expects {expected} state dims, "
                    f"got {state.shape[0]}")
        except (TypeError, ValueError, KeyError) as error:
            self._errors.inc()
            replies.put(("now", protocol.ERROR, str(error)))
            return
        self._requests.inc()
        replies.put(("pending", self.batcher.submit(str(design), state)))

    def _handle_swap(self, payload: Any, replies: Queue) -> None:
        try:
            design, blob = payload
            agent = pickle.loads(blob)
            info = self.swap_policy(str(design), agent)
        except Exception as error:  # noqa: BLE001 - any bad blob -> ERROR reply
            self._errors.inc()
            replies.put(("now", protocol.ERROR,
                         f"swap rejected: {error}"))
            return
        replies.put(("now", protocol.SWAPPED, info))

    def _write_replies(self, connection: socket.socket, replies: Queue) -> None:
        """Drain one connection's reply queue in FIFO order."""
        while True:
            item = replies.get()
            if item is None:
                return
            try:
                if item[0] == "now":
                    _tag, kind, payload = item
                    protocol.send_message(connection, kind, payload)
                else:
                    pending: PendingAction = item[1]
                    try:
                        action = pending.result()
                    except Exception as error:  # noqa: BLE001
                        self._errors.inc()
                        protocol.send_message(connection, protocol.ERROR,
                                              f"dispatch failed: {error}")
                        continue
                    self._latency.observe(time.perf_counter() - pending.enqueued)
                    protocol.send_message(connection, protocol.ACTION, action)
            except (ConnectionError, OSError):
                # The peer vanished mid-reply (disconnect mid-batch): keep
                # draining so pending futures are consumed, sending nothing.
                continue


__all__ = ["PolicyServer", "SERVING_MAX_FRAME_BYTES"]
