"""Deterministic retry with capped exponential backoff.

Every network-facing edge of the repo — client handshakes and observer
requests through :func:`repro.distributed.protocol.dial`, the worker's
reconnect clock, :class:`~repro.serving.WeightPushCallback` — retries
transient failures through one shared :class:`RetryPolicy`, so the fleet's
recovery behaviour is a handful of numbers.

The backoff is **deterministic on purpose**: no jitter, no wall-clock
randomness.  The chaos harness (:mod:`repro.chaos`) asserts bit-identical
sweep output under injected faults, and a reproducible retry schedule is
what makes "the worker reconnected on attempt 3 after 0.2 + 0.4 s" a
statement a test can pin rather than a log line a human squints at.  (Many
concurrent clients hammering one broker would normally want jitter; here
the fleet is tens of workers, the broker accepts connections in a
dedicated thread, and determinism is a feature the whole repo is built
around.)

Usage::

    policy = RetryPolicy(max_attempts=5, base_delay=0.2, max_delay=2.0)
    sock = policy.call(lambda: socket.create_connection(address))

or, for loops that interleave retries with other work, the stateful
:meth:`RetryPolicy.clock`::

    attempt = policy.clock()
    while True:
        try:
            reconnect()
            break
        except ConnectionError as error:
            attempt.failed(error)        # sleeps, or raises RetryError
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

_T = TypeVar("_T")

#: Exception types retried by default: every transport failure the
#: distributed stack raises funnels into ``ConnectionError`` or ``OSError``
#: (``ProtocolError`` subclasses ``ConnectionError``; ``socket.timeout`` is
#: an ``OSError``).
DEFAULT_RETRY_ON: Tuple[Type[BaseException], ...] = (ConnectionError, OSError)


class RetryError(ConnectionError):
    """A retry policy ran out of attempts (or overran its deadline).

    Subclasses :class:`ConnectionError` so callers that already handle
    connection failures — the worker CLI, ``FleetStatusError`` wrappers —
    treat an exhausted retry exactly like the final failure it wraps.  The
    last underlying exception is chained as ``__cause__`` and kept on
    :attr:`last_error`.
    """

    def __init__(self, message: str, *, attempts: int,
                 elapsed: float, last_error: Optional[BaseException]) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: how often, how fast, and for how long.

    Parameters
    ----------
    max_attempts:
        Total tries including the first one; ``1`` means "never retry".
    base_delay:
        Seconds slept before the second attempt.
    multiplier:
        Growth factor per retry (``base_delay * multiplier ** n``).
    max_delay:
        Per-sleep ceiling — the schedule is exponential until it hits this
        cap, then flat.
    deadline:
        Optional overall budget in seconds, measured from the first
        attempt.  A retry whose *upcoming* sleep would overrun the deadline
        is not taken; :class:`RetryError` is raised instead.  This bounds a
        worker's patience through a broker restart without letting a
        generous attempt count wait forever.
    """

    max_attempts: int = 5
    base_delay: float = 0.2
    multiplier: float = 2.0
    max_delay: float = 5.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay "
                             f"({self.max_delay} < {self.base_delay})")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    # ------------------------------------------------------------------ schedule
    def delay_for(self, retry_index: int) -> float:
        """Seconds slept before retry ``retry_index`` (0-based).

        Computed with an explicit cap on the exponent so a huge attempt
        count cannot overflow ``multiplier ** n`` into ``inf``.
        """
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        delay = self.base_delay
        for _ in range(retry_index):
            delay *= self.multiplier
            if delay >= self.max_delay:
                return self.max_delay
        return min(delay, self.max_delay)

    def delays(self) -> Tuple[float, ...]:
        """The full deterministic sleep schedule (``max_attempts - 1`` entries)."""
        return tuple(self.delay_for(i) for i in range(self.max_attempts - 1))

    # ------------------------------------------------------------------ drivers
    def clock(self, *, sleep: Callable[[float], None] = time.sleep,
              now: Callable[[], float] = time.monotonic) -> "RetryClock":
        """A stateful attempt tracker for hand-written retry loops."""
        return RetryClock(self, sleep=sleep, now=now)

    def call(self, fn: Callable[[], _T], *,
             retry_on: Tuple[Type[BaseException], ...] = DEFAULT_RETRY_ON,
             on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
             sleep: Callable[[float], None] = time.sleep,
             now: Callable[[], float] = time.monotonic) -> _T:
        """Call ``fn`` until it succeeds or the policy is exhausted.

        ``on_retry(attempt, delay, error)`` fires before each backoff sleep
        (attempt is the 1-based attempt that just failed).  Exceptions not
        listed in ``retry_on`` propagate immediately, attempt budget or not.
        """
        attempt = self.clock(sleep=sleep, now=now)
        while True:
            try:
                return fn()
            except retry_on as error:       # noqa: PERF203 - the whole point
                attempt.failed(error, on_retry=on_retry)


class RetryClock:
    """Mutable companion of one :class:`RetryPolicy` run.

    :meth:`failed` records one failed attempt: it either sleeps the
    schedule's next delay and returns it, or raises :class:`RetryError`
    when the attempt budget / deadline is spent.  Success is implicit —
    the caller just stops calling.
    """

    def __init__(self, policy: RetryPolicy, *,
                 sleep: Callable[[float], None] = time.sleep,
                 now: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy
        self.attempts = 0
        self._sleep = sleep
        self._now = now
        self._started = now()

    @property
    def elapsed(self) -> float:
        return self._now() - self._started

    def failed(self, error: Optional[BaseException] = None, *,
               on_retry: Optional[Callable[[int, float, BaseException], None]]
               = None) -> float:
        """One attempt failed; sleep the backoff or raise :class:`RetryError`."""
        self.attempts += 1
        policy = self.policy
        if self.attempts >= policy.max_attempts:
            raise RetryError(
                f"gave up after {self.attempts} attempt(s) over "
                f"{self.elapsed:.1f}s: {error}",
                attempts=self.attempts, elapsed=self.elapsed,
                last_error=error) from error
        delay = policy.delay_for(self.attempts - 1)
        if (policy.deadline is not None
                and self.elapsed + delay > policy.deadline):
            raise RetryError(
                f"retry deadline of {policy.deadline:g}s would be overrun "
                f"after {self.attempts} attempt(s): {error}",
                attempts=self.attempts, elapsed=self.elapsed,
                last_error=error) from error
        if on_retry is not None and error is not None:
            on_retry(self.attempts, delay, error)
        if delay > 0:
            self._sleep(delay)
        return delay


__all__ = ["DEFAULT_RETRY_ON", "RetryClock", "RetryError", "RetryPolicy"]
