"""Micro-batching queue: cross-request aggregation onto one ``act_batch``.

Serving traffic arrives as independent single-observation ``ACT`` requests,
but the predict path underneath (:meth:`QFunction.q_values` on a stacked
2-D state matrix — the same code the lock-step trainer rides) is far
cheaper per state when called once per *batch*.  :class:`MicroBatcher`
bridges the two with natural batching: no request ever waits for a batch
to fill.  The dispatcher wakes on the first submit and takes up to
``max_batch`` of whatever is queued for the head-of-line design; requests
that arrive while that batch runs form the next one.  An idle server
therefore answers a lone request at once, and a busy one batches exactly
as much as its load supplies.

Determinism contract: greedy selection (``explore=False``) is a pure argmax
— no RNG draw, no state mutation that feeds back into the maths — and the
single-state and batched predict paths share one code path, so an action
served through a batch is byte-identical to the same observation evaluated
alone offline.  The serving tests assert this per design (ELM, OS-ELM,
DQN).

Threading model: ``submit()`` may be called from any number of connection
threads; one dispatcher thread drains the queues, so the agent itself is
only ever touched single-threaded.  Dispatch order is head-of-line by
enqueue time across designs, FIFO within a design.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

import numpy as np

from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.serving.batcher")


class BatcherClosed(RuntimeError):
    """The batcher shut down before this request could be dispatched."""


class PendingAction:
    """A submitted request: resolves to the greedy action (or an error).

    A tiny single-shot future — ``threading.Event`` plus a slot — so the
    connection thread that submitted the request can block in
    :meth:`result` while the dispatcher thread resolves it.
    """

    __slots__ = ("design", "state", "enqueued", "_event", "_action", "_error")

    def __init__(self, design: str, state: np.ndarray) -> None:
        self.design = design
        self.state = state
        self.enqueued = time.perf_counter()
        self._event = threading.Event()
        self._action: Optional[int] = None
        self._error: Optional[BaseException] = None

    def resolve(self, action: int) -> None:
        self._action = int(action)
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> int:
        """Block until resolved; raises the dispatch error if there was one."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"no action for design {self.design!r} within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._action is not None
        return self._action


class MicroBatcher:
    """Aggregate single-state requests into batched greedy dispatches.

    Parameters
    ----------
    dispatch:
        ``dispatch(design, states)`` with ``states`` of shape
        ``(batch, n_states)``; returns the per-row greedy actions.  Called
        only from the dispatcher thread.  The server passes a closure that
        resolves the design's *current* agent under its swap lock, so a
        hot-swap lands between batches, never inside one.
    max_batch:
        The most requests one dispatch takes; a longer queue splits into
        several batches.  1 disables aggregation (every request dispatches
        alone).
    on_batch:
        Optional ``on_batch(design, batch_size, wall_seconds)`` metrics
        hook, called after each dispatch.
    """

    def __init__(self, dispatch: Callable[[str, np.ndarray], np.ndarray], *,
                 max_batch: int = 8,
                 on_batch: Optional[Callable[[str, int, float], None]] = None
                 ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.dispatch = dispatch
        self.max_batch = int(max_batch)
        self.on_batch = on_batch
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[PendingAction]] = {}
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("MicroBatcher already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serving-batcher",
                                        daemon=True)
        self._thread.start()

    def close(self) -> None:
        """Stop dispatching; fail every still-queued request."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            pending = [request for queue in self._queues.values()
                       for request in queue]
            self._queues.clear()
            self._wake.notify_all()
        for request in pending:
            request.fail(BatcherClosed("policy server shut down"))
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "MicroBatcher":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ intake
    def submit(self, design: str, state: np.ndarray) -> PendingAction:
        """Queue one observation; returns its pending action."""
        request = PendingAction(design, state)
        with self._wake:
            if self._closed:
                raise BatcherClosed("policy server shut down")
            self._queues.setdefault(design, deque()).append(request)
            self._wake.notify_all()
        return request

    def queued(self) -> int:
        """Requests currently waiting (diagnostics)."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------ dispatcher
    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._closed and not any(self._queues.values()):
                    self._wake.wait()
                if self._closed:
                    return
                # Head-of-line fairness: serve the design whose oldest
                # request has waited longest.
                design = min(
                    (name for name, queue in self._queues.items() if queue),
                    key=lambda name: self._queues[name][0].enqueued)
                queue = self._queues[design]
                batch = [queue.popleft()
                         for _ in range(min(len(queue), self.max_batch))]
            self._dispatch_batch(design, batch)

    def _dispatch_batch(self, design: str, batch: list) -> None:
        started = time.perf_counter()
        try:
            states = np.stack([request.state for request in batch])
            actions = np.asarray(self.dispatch(design, states))
            if actions.shape != (len(batch),):
                raise RuntimeError(
                    f"dispatch returned shape {actions.shape}, "
                    f"expected ({len(batch)},)")
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            _LOGGER.warning("batch dispatch failed",
                            design=design, size=len(batch),
                            error=repr(error))
            for request in batch:
                request.fail(error)
            return
        for request, action in zip(batch, actions):
            request.resolve(int(action))
        if self.on_batch is not None:
            self.on_batch(design, len(batch), time.perf_counter() - started)


__all__ = ["BatcherClosed", "MicroBatcher", "PendingAction"]
