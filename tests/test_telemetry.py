"""Tests for repro.telemetry: registry, spans, callback, JSON logging.

The load-bearing property asserted throughout is that telemetry stays
strictly off the numeric path — enabling it must not change a single
training curve byte — while still producing a coherent, JSON-serializable
picture of what a run did.
"""

import io
import json
import math
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.parallel.sweep import SweepRunner, SweepSpec
from repro.training import TrainingConfig
from repro.telemetry.registry import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.utils import logging as repro_logging


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Each test starts disabled with empty metrics and leaves no residue."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _tiny_sweep():
    return SweepSpec(designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
                     training=TrainingConfig(max_episodes=4), root_seed=7)


class TestHistogram:
    def test_exact_stats_and_interpolated_percentiles(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.5, 3.0, 7.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(13.5)
        assert hist.min == 0.5 and hist.max == 7.0
        assert hist.mean == pytest.approx(2.7)
        # p50 lands in the (1, 2] bucket; the estimate must stay inside it.
        assert 1.0 <= hist.percentile(0.5) <= 2.0
        assert hist.percentile(0.0) == pytest.approx(0.5)   # clamped to min
        assert hist.percentile(1.0) == pytest.approx(7.0)   # clamped to max

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        hist.observe(250.0)
        assert hist.percentile(0.5) == pytest.approx(250.0)
        assert hist.summary()["p99"] == pytest.approx(250.0)

    def test_estimate_never_leaves_observed_range(self):
        hist = Histogram("h", buckets=(10.0, 20.0))
        hist.observe(12.0)                  # alone in the (10, 20] bucket
        for q in (0.1, 0.5, 0.9, 0.99):
            assert hist.percentile(q) == pytest.approx(12.0)

    def test_empty_histogram_summary_is_zeros(self):
        summary = Histogram("h").summary()
        assert summary == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                           "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="q must be"):
            Histogram("h").percentile(1.5)

    def test_percentiles_track_a_known_distribution(self):
        hist = Histogram("h", buckets=COUNT_BUCKETS)
        values = list(range(1, 101))        # 1..100, uniform
        for value in values:
            hist.observe(value)
        # Fixed-bucket estimates are only bucket-resolution accurate; with
        # the count buckets that means within the containing decade.
        assert hist.percentile(0.5) == pytest.approx(50, rel=0.5)
        assert hist.percentile(0.99) == pytest.approx(99, rel=0.5)

    def test_thread_safe_observation(self):
        hist = Histogram("h", buckets=(10.0,))

        def hammer():
            for _ in range(1000):
                hist.observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 4000
        assert hist.sum == pytest.approx(4000.0)


class TestRegistry:
    def test_counter_and_gauge(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(3.0)

    def test_create_on_first_use_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.names() == ["a", "h"]

    def test_snapshot_schema_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("depth").set(1.5)
        registry.histogram("lat").observe(0.02)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"] == {"jobs": 3}
        assert snap["gauges"] == {"depth": 1.5}
        assert snap["histograms"]["lat"]["count"] == 1
        registry.reset()
        assert registry.names() == []


class TestTracing:
    def test_disabled_span_is_shared_noop(self):
        assert not telemetry.enabled()
        first = telemetry.span("anything")
        assert first is telemetry.span("other")     # one shared null object
        with first:
            pass
        assert telemetry.span_snapshot() == {}

    def test_nested_spans_build_a_tree(self):
        telemetry.enable()
        with telemetry.span("outer"):
            for _ in range(3):
                with telemetry.span("inner"):
                    pass
        with telemetry.span("outer"):
            pass
        tree = telemetry.span_snapshot()
        assert tree["outer"]["count"] == 2
        assert tree["outer"]["children"]["inner"]["count"] == 3
        assert tree["outer"]["seconds"] >= 0.0
        json.dumps(tree)                            # JSON-ready
        telemetry.reset_spans()
        assert telemetry.span_snapshot() == {}

    def test_spans_aggregate_not_log(self):
        """Memory stays bounded: a million spans is one node."""
        telemetry.enable()
        for _ in range(1000):
            with telemetry.span("hot"):
                pass
        tree = telemetry.span_snapshot()
        assert tree["hot"]["count"] == 1000
        assert "children" not in tree["hot"]

    def test_emitters_are_noops_while_disabled(self):
        telemetry.count("c")
        telemetry.observe("h", 1.0)
        telemetry.set_gauge("g", 1.0)
        assert telemetry.get_registry().names() == []
        telemetry.enable()
        telemetry.count("c", 2)
        telemetry.observe("h", 1.0)
        telemetry.set_gauge("g", 4.0)
        snap = telemetry.get_registry().snapshot()
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 4.0

    def test_full_snapshot_document(self):
        telemetry.enable()
        telemetry.count("events")
        with telemetry.span("work"):
            pass
        doc = json.loads(json.dumps(telemetry.snapshot()))
        assert doc["enabled"] is True
        assert doc["metrics"]["counters"]["events"] == 1
        assert doc["spans"]["work"]["count"] == 1
        assert set(doc["transport"]) == {"frames_sent", "frames_received",
                                         "bytes_sent", "bytes_received"}


class TestTelemetryCallback:
    def test_sweep_emits_trainer_metrics(self):
        telemetry.enable()
        SweepRunner(_tiny_sweep(), backend="serial").run()
        snap = telemetry.get_registry().snapshot()
        assert snap["counters"]["trainer.episodes"] == 4
        assert snap["counters"]["trainer.steps"] >= 4
        assert snap["counters"]["trainer.frames"] >= snap["counters"]["trainer.steps"]
        assert (snap["counters"]["trainer.trials_solved"]
                + snap["counters"]["trainer.trials_unsolved"]) == 1
        assert snap["histograms"]["trainer.episode_steps"]["count"] == 4
        assert snap["histograms"]["trainer.episode_seconds"]["count"] == 4

    def test_disabled_sweep_emits_nothing(self):
        SweepRunner(_tiny_sweep(), backend="serial").run()
        assert telemetry.get_registry().names() == []
        assert telemetry.span_snapshot() == {}

    def test_telemetry_does_not_change_training_curves(self):
        """Byte-identity: enabling telemetry perturbs no numeric output."""
        spec = _tiny_sweep()
        plain = SweepRunner(spec, backend="serial").run()
        telemetry.enable()
        instrumented = SweepRunner(spec, backend="serial").run()
        for a, b in zip(plain.results_for(), instrumented.results_for()):
            np.testing.assert_array_equal(a.curve.steps, b.curve.steps)
            np.testing.assert_array_equal(a.curve.moving_average,
                                          b.curve.moving_average)

    def test_engine_writes_telemetry_json_next_to_run_record(self, tmp_path):
        from repro.api import Budget, ExperimentSpec, run

        spec = ExperimentSpec(name="telemetry-tiny", designs=("OS-ELM-L2",),
                              hidden_sizes=(8,), budget=Budget(max_episodes=3))
        telemetry.enable()
        report = run(spec, backend="serial", out=str(tmp_path))
        from repro.api.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        doc = store.load_telemetry(spec.spec_hash)
        assert doc is not None and doc["enabled"] is True
        assert doc["metrics"]["counters"]["trainer.episodes"] >= 1
        assert store.telemetry_path(spec.spec_hash).exists()
        assert len(report.trials) == 1

    def test_engine_skips_telemetry_json_when_disabled(self, tmp_path):
        from repro.api import Budget, ExperimentSpec, run

        spec = ExperimentSpec(name="telemetry-off", designs=("OS-ELM-L2",),
                              hidden_sizes=(8,), budget=Budget(max_episodes=3))
        run(spec, backend="serial", out=str(tmp_path))
        from repro.api.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        assert store.load_telemetry(spec.spec_hash) is None


class TestJsonLogging:
    @pytest.fixture(autouse=True)
    def _restore_format(self):
        original = repro_logging.get_global_format()
        yield
        repro_logging.set_global_format(original)

    def test_json_lines_round_trip(self):
        stream = io.StringIO()
        repro_logging.set_global_format("json")
        logger = repro_logging.Logger("test.json", stream=stream)
        logger.info("trial complete", task=3, seconds=1.25, solved=True)
        logger.warning("lease expired", worker="w-1")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["msg"] == "trial complete"
        assert records[0]["task"] == 3
        assert records[0]["solved"] is True
        assert records[0]["level"] == "info"
        assert records[0]["logger"] == "test.json"
        assert records[1]["worker"] == "w-1"
        for record in records:
            assert isinstance(record["ts"], float)
            assert isinstance(record["elapsed"], float)

    def test_non_json_fields_are_stringified(self):
        """NaN/Inf and arbitrary objects must never emit invalid JSON."""
        stream = io.StringIO()
        repro_logging.set_global_format("json")
        logger = repro_logging.Logger("test.json", stream=stream)
        logger.info("weird", bad=float("nan"), worse=float("inf"),
                    obj=object(), arr=[1, 2])
        record = json.loads(stream.getvalue())
        assert record["bad"] == "nan"
        assert record["worse"] == "inf"
        assert record["arr"] == "[1, 2]"
        assert not any(isinstance(v, float) and not math.isfinite(v)
                       for v in record.values())

    def test_kv_format_unchanged(self):
        stream = io.StringIO()
        repro_logging.set_global_format("kv")
        logger = repro_logging.Logger("test.kv", stream=stream)
        logger.info("hello", n=3)
        line = stream.getvalue()
        assert "test.kv: hello n=3" in line
        assert line.startswith("[   info")

    def test_loggers_share_one_elapsed_epoch(self):
        """Two loggers created at different times log on one timeline —
        the second logger's clock must not restart at zero."""
        stream = io.StringIO()
        repro_logging.set_global_format("json")
        early = repro_logging.Logger("early", stream=stream)
        early.info("tick")
        late = repro_logging.Logger("late", stream=stream)
        late.info("tock")
        first, second = [json.loads(line)
                         for line in stream.getvalue().strip().splitlines()]
        assert second["elapsed"] >= first["elapsed"]

    def test_invalid_format_rejected(self):
        with pytest.raises(ValueError, match="unknown log format"):
            repro_logging.set_global_format("xml")
