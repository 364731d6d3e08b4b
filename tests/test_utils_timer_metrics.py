"""Tests for repro.utils.metrics."""

import pytest

from repro.utils.metrics import (
    MovingAverage,
    RunningStats,
    SolvedCriterion,
)


class TestMovingAverage:
    def test_window_average(self):
        avg = MovingAverage(window=3)
        for value in [1.0, 2.0, 3.0, 4.0]:
            avg.add(value)
        assert avg.value == pytest.approx(3.0)   # (2 + 3 + 4) / 3

    def test_count_stays_at_window_after_overflow(self):
        avg = MovingAverage(window=2)
        for value in [1.0, 5.0, 7.0]:
            avg.add(value)
        assert avg.count == 2
        assert avg.value == pytest.approx(6.0)

    def test_empty_average_zero(self):
        assert MovingAverage(5).value == 0.0

    def test_full_flag(self):
        avg = MovingAverage(window=2)
        avg.add(1.0)
        assert not avg.full
        avg.add(2.0)
        assert avg.full

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MovingAverage(0)

    def test_reset(self):
        avg = MovingAverage(3)
        avg.add(10.0)
        avg.reset()
        assert avg.value == 0.0
        assert avg.count == 0


class TestRunningStats:
    def test_matches_numpy(self, rng):
        values = rng.normal(3.0, 2.0, size=500)
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(float(values.mean()), rel=1e-10)
        assert stats.std == pytest.approx(float(values.std()), rel=1e-8)
        assert stats.min == pytest.approx(float(values.min()))
        assert stats.max == pytest.approx(float(values.max()))

    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0


class TestSolvedCriterion:
    def test_solves_when_window_full_and_above_threshold(self):
        criterion = SolvedCriterion(threshold=10.0, window=5)
        results = [criterion.update(20.0) for _ in range(5)]
        assert results[-1] is True
        assert criterion.solved

    def test_not_solved_before_window_full(self):
        criterion = SolvedCriterion(threshold=10.0, window=5)
        for _ in range(4):
            assert criterion.update(100.0) is False

    def test_not_solved_below_threshold(self):
        criterion = SolvedCriterion(threshold=195.0, window=3)
        for _ in range(10):
            criterion.update(50.0)
        assert not criterion.solved

    def test_exhausted_after_max_episodes(self):
        criterion = SolvedCriterion(threshold=100.0, window=2, max_episodes=3)
        for _ in range(3):
            criterion.update(1.0)
        assert criterion.exhausted

    def test_history_recorded(self):
        criterion = SolvedCriterion(threshold=10.0, window=2)
        criterion.update(5.0)
        criterion.update(7.0)
        assert criterion.history == [5.0, 7.0]

    def test_reset(self):
        criterion = SolvedCriterion(threshold=10.0, window=2)
        criterion.update(100.0)
        criterion.reset()
        assert criterion.episodes == 0
        assert criterion.history == []
        assert not criterion.solved

    def test_cartpole_default_matches_convention(self):
        criterion = SolvedCriterion()
        assert criterion.threshold == 195.0
        assert criterion.window == 100
        assert criterion.max_episodes == 50_000
