"""Process-local metrics registry: counters, gauges and bucketed histograms.

One :class:`MetricsRegistry` per process collects everything the
instrumented layers emit — episode counts from the Trainer, env-step rates
from the vector envs, update latencies from the linear-algebra kernels,
transport traffic from the distributed backend.  The module-level registry
(:func:`get_registry`) is what the convenience emitters
(:func:`count` / :func:`observe` / :func:`set_gauge`) and the engine's
``telemetry.json`` snapshot use.

Telemetry is **strictly off the numeric path** and is gated by one global
switch (see :mod:`repro.telemetry`): every emitter is a no-op while
telemetry is disabled, so instrumented hot loops pay a single attribute
check.  Enabled or not, no metric ever feeds back into training arithmetic
— byte-identity of the curves is preserved either way.

Histograms use fixed bucket boundaries (geometric latency buckets by
default) and report p50/p90/p99 by linear interpolation inside the
containing bucket — the classic fixed-bucket estimator: cheap to update,
bounded memory, and accurate to the bucket resolution.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence

#: Default histogram bucket upper bounds: geometric latency buckets from
#: 10 microseconds to 30 seconds (values above the last bound land in a
#: +Inf overflow bucket).  Chosen to cover everything this library times,
#: from a Sherman-Morrison update to a full trial.
DEFAULT_BUCKETS = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Count-shaped histogram buckets (episode lengths, batch sizes, ...).
COUNT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                 1_000, 2_000, 5_000, 10_000, 50_000)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, active trials, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    ``buckets`` are the inclusive upper bounds of each bucket, strictly
    increasing; observations above the last bound fall into an implicit
    overflow bucket whose percentile estimate is the observed maximum.
    """

    __slots__ = ("name", "buckets", "_counts", "_lock",
                 "count", "sum", "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)      # +1: overflow bucket
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one lock for a whole batch)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += count
            self.count += count
            self.sum += value * count
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the buckets.

        The estimate interpolates linearly inside the containing bucket
        (lower edge 0 — or the observed minimum — for the first bucket);
        the overflow bucket reports the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= target and bucket_count:
                    if index >= len(self.buckets):      # overflow bucket
                        return self.max
                    upper = self.buckets[index]
                    lower = (self.buckets[index - 1] if index
                             else min(self.min, upper))
                    fraction = 1.0 - (cumulative - target) / bucket_count
                    estimate = lower + (upper - lower) * fraction
                    # Never report outside the observed range.
                    return min(max(estimate, self.min), self.max)
            return self.max

    def summary(self) -> Dict[str, float]:
        """JSON-ready summary: count/sum/min/max/mean plus p50/p90/p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Create-on-first-use registry of named metrics (one per process)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    name, buckets if buckets is not None else DEFAULT_BUCKETS)
            return metric

    def names(self) -> List[str]:
        with self._lock:
            return sorted([*self._counters, *self._gauges, *self._histograms])

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """One JSON-serializable document of every metric's current state."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: metric.value
                         for name, metric in sorted(counters.items())},
            "gauges": {name: metric.value
                       for name, metric in sorted(gauges.items())},
            "histograms": {name: metric.summary()
                           for name, metric in sorted(histograms.items())},
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry every instrumented layer emits into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


__all__ = ["COUNT_BUCKETS", "Counter", "DEFAULT_BUCKETS", "Gauge",
           "Histogram", "MetricsRegistry", "get_registry"]
