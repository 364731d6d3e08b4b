"""Streaming metrics used by the training loops and experiment harnesses."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List

import numpy as np


class MovingAverage:
    """Simple moving average over the most recent ``window`` values.

    The paper's training curves (Figure 4) plot the moving average of the
    episode return over the last 100 episodes; the CartPole-v0 "solved"
    criterion also uses a 100-episode moving average.
    """

    def __init__(self, window: int = 100) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = int(window)
        self._values: Deque[float] = deque(maxlen=self.window)
        self._sum = 0.0

    def add(self, value: float) -> float:
        """Add a value and return the updated average."""
        value = float(value)
        if len(self._values) == self.window:
            self._sum -= self._values[0]
        self._values.append(value)
        self._sum += value
        return self.value

    @property
    def value(self) -> float:
        """Current average (0.0 when empty)."""
        if not self._values:
            return 0.0
        return self._sum / len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def full(self) -> bool:
        """Whether the window has been filled."""
        return len(self._values) == self.window

    def reset(self) -> None:
        self._values.clear()
        self._sum = 0.0


class RunningStats:
    """Welford online mean/variance, numerically stable for long streams."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0


class SolvedCriterion:
    """Decide when a reinforcement-learning task is "solved".

    CartPole-v0 is conventionally solved when the average episode return over
    ``window`` consecutive episodes reaches ``threshold`` (195.0 over 100
    episodes).  The paper additionally terminates a run as *impossible* after
    ``max_episodes`` (50,000) episodes without success, and resets
    ELM/OS-ELM weights after ``reset_after`` (300) stalled episodes.
    """

    def __init__(self, threshold: float = 195.0, window: int = 100,
                 max_episodes: int = 50_000) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_episodes <= 0:
            raise ValueError("max_episodes must be positive")
        self.threshold = float(threshold)
        self.window = int(window)
        self.max_episodes = int(max_episodes)
        self._avg = MovingAverage(window)
        self.episodes = 0
        self.history: List[float] = []

    def update(self, episode_return: float) -> bool:
        """Record one episode's return and report whether the task is now solved."""
        self.episodes += 1
        self.history.append(float(episode_return))
        avg = self._avg.add(episode_return)
        return self._avg.full and avg >= self.threshold

    @property
    def solved(self) -> bool:
        return self._avg.full and self._avg.value >= self.threshold

    @property
    def exhausted(self) -> bool:
        """Whether the run exceeded the paper's 50,000-episode cutoff."""
        return self.episodes >= self.max_episodes

    @property
    def average(self) -> float:
        return self._avg.value

    def reset(self) -> None:
        self._avg.reset()
        self.episodes = 0
        self.history.clear()
