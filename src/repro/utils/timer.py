"""Per-operation time breakdowns.

Figure 5 and Figure 6 of the paper report the *breakdown* of execution time
into the operations ``seq_train``, ``predict_seq``, ``init_train``,
``predict_init``, ``train_DQN``, ``predict_1`` and ``predict_32``.
:class:`TimeBreakdown` is the accumulator used by every agent in this library
to attribute time (measured or modelled) to those operation labels.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping


@dataclass
class TimeBreakdown:
    """Accumulates seconds (and call counts) attributed to named operations."""

    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, operation: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of time (and ``count`` invocations) to ``operation``."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self.seconds[operation] = self.seconds.get(operation, 0.0) + float(seconds)
        self.counts[operation] = self.counts.get(operation, 0) + int(count)

    @contextmanager
    def measure(self, operation: str) -> Iterator[None]:
        """Measure a wall-clock block and attribute it to ``operation``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(operation, time.perf_counter() - start)

    def total(self) -> float:
        """Total seconds across all operations."""
        return float(sum(self.seconds.values()))

    def fraction(self, operation: str) -> float:
        """Fraction of the total attributed to ``operation`` (0 if empty)."""
        total = self.total()
        if total <= 0:
            return 0.0
        return self.seconds.get(operation, 0.0) / total

    def merge(self, other: "TimeBreakdown") -> "TimeBreakdown":
        """Return a new breakdown with this one's and ``other``'s entries summed."""
        merged = TimeBreakdown(dict(self.seconds), dict(self.counts))
        for op, sec in other.seconds.items():
            merged.add(op, sec, other.counts.get(op, 0))
        return merged

    def scaled(self, factor: float) -> "TimeBreakdown":
        """Return a copy with every accumulated time multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return TimeBreakdown(
            {op: sec * factor for op, sec in self.seconds.items()},
            dict(self.counts),
        )

    def as_dict(self) -> Mapping[str, float]:
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{op}={sec:.4f}s" for op, sec in sorted(self.seconds.items()))
        return f"TimeBreakdown({parts}, total={self.total():.4f}s)"


#: Canonical operation labels used by the paper's Figures 5 and 6.
OPERATION_LABELS = (
    "init_train",
    "predict_init",
    "seq_train",
    "predict_seq",
    "train_DQN",
    "predict_1",
    "predict_32",
)
