"""Deterministic transport fault injection: :class:`FaultPlan`.

A ``FaultPlan`` is a seeded, fully deterministic schedule of network
misbehaviour that wraps real sockets:

* **refuse connects** — the first ``refuse_connects`` connection attempts
  (and/or every ``refuse_every``-th one) raise ``ConnectionRefusedError``
  before any socket exists, exercising connect-retry paths;
* **drop connections** — every ``drop_every``-th established connection is
  severed after ``drop_after_frames`` outbound frames, exercising
  reconnect + redelivery;
* **truncate a frame mid-write** — the ``truncate_after_frames``-th frame
  of an affected connection is cut in half on the wire and the connection
  dies, so the peer observes EOF mid-length-header or mid-payload;
* **delay** — ``delay_seconds`` added before every frame send, exercising
  timeout paths without a real slow network.

Injection point: ``connect_factory=plan.connect`` on
:func:`repro.distributed.protocol.dial`, which every client dials through
(``WorkerOptions`` and ``PolicyClient`` pass it on) — or :meth:`FaultPlan.wrap`
around any already-connected socket (tests wrap one end of a socketpair).
The ``repro worker --fault-plan SPEC`` CLI flag parses the same
comma-separated spec :meth:`FaultPlan.from_spec` does, which is how the
CI chaos job injects faults into real worker processes.

Determinism: the plan's schedule depends only on its parameters, its
``seed`` and the *order* of connections through it — no wall clock, no
global RNG.  Counters (:meth:`FaultPlan.snapshot`) let tests assert the
faults actually fired instead of silently configuring a no-op plan.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one test/CI scenario.

    All knobs default to "off"; a default-constructed plan is a transparent
    pass-through (asserted in tests, so wiring a plan through production
    code paths is provably behaviour-neutral when unused).

    Parameters
    ----------
    seed:
        Seeds the per-plan RNG used only when ``jitter_frames`` is on.
    refuse_connects:
        Refuse this many connection attempts before letting any through.
    refuse_every:
        Additionally refuse every N-th attempt (1-based count; 0 = off).
    drop_after_frames:
        Sever an affected connection after this many outbound frames
        (0 = never drop).
    drop_every:
        Which established connections the drop/truncate rules affect:
        every N-th one (1 = every connection, 0 = none).
    truncate_after_frames:
        On affected connections, cut the N-th outbound frame in half
        mid-write and kill the connection (0 = off).  Takes precedence
        over ``drop_after_frames`` when both land on the same frame.
    delay_seconds:
        Sleep added before every outbound frame (0 = off).
    jitter_frames:
        With ``drop_after_frames`` set, vary the actual drop frame per
        affected connection in ``[1, drop_after_frames]``, drawn from the
        seeded RNG — still fully deterministic for a given seed and
        connection order.
    """

    seed: int = 0
    refuse_connects: int = 0
    refuse_every: int = 0
    drop_after_frames: int = 0
    drop_every: int = 1
    truncate_after_frames: int = 0
    delay_seconds: float = 0.0
    jitter_frames: bool = False

    def __post_init__(self) -> None:
        for name in ("refuse_connects", "refuse_every", "drop_after_frames",
                     "drop_every", "truncate_after_frames"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        # Mutable bookkeeping on a frozen dataclass: the schedule is frozen,
        # the counters are not.
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_rng", random.Random(self.seed))
        object.__setattr__(self, "_counters", {
            "connects_attempted": 0,
            "connects_refused": 0,
            "connections_established": 0,
            "connections_dropped": 0,
            "frames_truncated": 0,
            "frames_delayed": 0,
        })

    # ------------------------------------------------------------------ spec
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"drop_after_frames=8,drop_every=5,seed=7"`` into a plan.

        Accepts every dataclass field as ``name=value``; unknown names
        raise ``ValueError`` with the accepted list, so a typo'd CLI flag
        fails loudly instead of silently injecting nothing.
        """
        known = {f.name: f.type for f in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in known:
                raise ValueError(
                    f"bad fault-plan entry {part!r}; accepted keys: "
                    f"{', '.join(sorted(known))}")
            value = value.strip()
            if name == "delay_seconds":
                kwargs[name] = float(value)
            elif name == "jitter_frames":
                kwargs[name] = value.lower() in ("1", "true", "yes", "on")
            else:
                kwargs[name] = int(value)
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The ``from_spec`` round-trip of this plan's non-default knobs."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={int(value) if f.name == 'jitter_frames' else value}")
        return ",".join(parts)

    # ------------------------------------------------------------------ counters
    def _count(self, name: str, amount: int = 1) -> int:
        with self._lock:                              # type: ignore[attr-defined]
            counters = self._counters                 # type: ignore[attr-defined]
            counters[name] += amount
            return counters[name]

    def snapshot(self) -> Dict[str, int]:
        """Copy of the fault counters (what actually fired so far)."""
        with self._lock:                              # type: ignore[attr-defined]
            return dict(self._counters)               # type: ignore[attr-defined]

    # ------------------------------------------------------------------ wiring
    def connect(self, host: str, port: int,
                timeout: Optional[float] = None) -> "FaultySocket":
        """Drop-in for ``socket.create_connection`` with faults applied.

        Matches the ``connect_factory`` signature the worker and the
        serving client accept.
        """
        attempt = self._count("connects_attempted")
        refused = (attempt <= self.refuse_connects
                   or (self.refuse_every and attempt % self.refuse_every == 0))
        if refused:
            self._count("connects_refused")
            raise ConnectionRefusedError(
                f"fault plan refused connection attempt #{attempt}")
        sock = socket.create_connection((host, port), timeout=timeout)
        return self.wrap(sock)

    def wrap(self, sock: socket.socket) -> "FaultySocket":
        """Wrap an existing socket (e.g. one the broker just accepted)."""
        with self._lock:                              # type: ignore[attr-defined]
            self._counters["connections_established"] += 1   # type: ignore[attr-defined]
            ordinal = self._counters["connections_established"]  # type: ignore[attr-defined]
            affected = bool(self.drop_every
                            and ordinal % self.drop_every == 0)
            drop_at = 0
            if affected and self.drop_after_frames:
                drop_at = (self._rng.randint(1, self.drop_after_frames)  # type: ignore[attr-defined]
                           if self.jitter_frames else self.drop_after_frames)
            truncate_at = (self.truncate_after_frames
                           if affected and self.truncate_after_frames else 0)
        return FaultySocket(sock, self, drop_at=drop_at,
                            truncate_at=truncate_at,
                            delay=self.delay_seconds)


class FaultyConnectionError(ConnectionError):
    """The fault plan severed this connection (drop or truncation)."""


class FaultySocket:
    """A socket proxy that executes one connection's fault schedule.

    Implements exactly the surface :mod:`repro.distributed.protocol` uses
    (``sendall``/``recv``/``settimeout``/``close`` + context manager) and
    forwards everything else to the wrapped socket.  "Frames" are
    ``sendall`` calls: :func:`~repro.distributed.protocol.send_message`
    writes each frame with a single ``sendall``, so outbound frame counts
    are exact.  :meth:`~repro.serving.PolicyClient.act_many` writes all of a
    call's ``ACT`` frames in one ``sendall``, so there one "frame" is one call.
    """

    def __init__(self, sock: socket.socket, plan: FaultPlan, *,
                 drop_at: int = 0, truncate_at: int = 0,
                 delay: float = 0.0) -> None:
        self._sock = sock
        self._plan = plan
        self._drop_at = drop_at
        self._truncate_at = truncate_at
        self._delay = delay
        self._frames_sent = 0
        self._dead: Optional[str] = None

    # ------------------------------------------------------------------ faults
    def _die(self, reason: str, counter: str) -> None:
        self._dead = reason
        self._plan._count(counter)
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        raise FaultyConnectionError(f"fault plan: {reason}")

    def _check_dead(self) -> None:
        if self._dead is not None:
            raise FaultyConnectionError(f"fault plan: {self._dead}")

    def sendall(self, data: bytes) -> None:
        self._check_dead()
        self._frames_sent += 1
        if self._delay:
            self._plan._count("frames_delayed")
            time.sleep(self._delay)
        if self._truncate_at and self._frames_sent == self._truncate_at:
            # Write a strict prefix — cutting inside the 8-byte length
            # header for tiny frames, inside the payload for normal ones —
            # then kill the connection, so the peer sees EOF mid-frame.
            try:
                self._sock.sendall(data[:max(1, len(data) // 2)])
            except OSError:
                pass
            self._die(f"truncated frame #{self._frames_sent} mid-write",
                      "frames_truncated")
        if self._drop_at and self._frames_sent > self._drop_at:
            self._die(f"dropped connection after {self._drop_at} frames",
                      "connections_dropped")
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        self._check_dead()
        return self._sock.recv(bufsize)

    # ------------------------------------------------------------------ passthrough
    def settimeout(self, value: Optional[float]) -> None:
        self._sock.settimeout(value)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def getpeername(self):
        return self._sock.getpeername()

    def getsockname(self):
        return self._sock.getsockname()

    def __enter__(self) -> "FaultySocket":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = f"dead: {self._dead}" if self._dead else "live"
        return (f"FaultySocket(frames_sent={self._frames_sent}, "
                f"drop_at={self._drop_at}, {state})")


__all__ = ["FaultPlan", "FaultyConnectionError", "FaultySocket"]
