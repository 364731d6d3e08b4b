"""The elastic fleet: scaling policy, supervisor, autoscaler, CLI.

Policy tests drive :class:`~repro.fleet.ThresholdPolicy` with a fake
monotonic clock, so hysteresis, cooldown and idle-grace behaviour are
deterministic.  The end-to-end tests run real broker + real worker
processes and assert the load-bearing contract: an autoscaled distributed
sweep loses no leases and produces results identical to the serial
backend under an aggressive scaling schedule.
"""

import threading
import time

import pytest

from repro.fleet import (
    AutoscaleConfig,
    FleetAutoscaler,
    FleetObservation,
    FleetReport,
    ScalingDecision,
    ThresholdPolicy,
    WorkerSupervisor,
    WorkerView,
)
from repro.parallel.sweep import SweepRunner, SweepSpec
from repro.training import TrainingConfig


def _tiny_spec(n_seeds=3, max_episodes=3):
    return SweepSpec(designs=("OS-ELM-L2",), n_seeds=n_seeds, n_hidden=8,
                     training=TrainingConfig(max_episodes=max_episodes),
                     root_seed=123)


class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _obs(queued, workers, done=0, total=None):
    """Observation helper: workers is [(id, leases)] or [(id, leases, draining)]."""
    views = []
    for row in workers:
        worker_id, leases = row[0], row[1]
        draining = row[2] if len(row) > 2 else False
        views.append(WorkerView(worker_id=worker_id, connected=True,
                                draining=draining, leases=leases,
                                completed=0))
    leased = sum(v.leases for v in views)
    if total is None:
        total = queued + leased + done + 10    # leave the sweep unfinished
    return FleetObservation(queued=queued, leased=leased, done=done,
                            total=total, workers=tuple(views))


class TestThresholdPolicy:
    def test_tops_up_to_min_without_cooldown(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=2, max_workers=4, clock=clock)
        first = policy.decide(_obs(5, []))
        assert first.spawn == 2 and "min_workers" in first.reason
        # The floor ignores cooldown: a crashed fleet refills immediately.
        second = policy.decide(_obs(5, [("a", 1)]))
        assert second.spawn == 1

    def test_scales_up_on_high_water_backlog(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=1, max_workers=3,
                                 high_water=2.0, clock=clock)
        decision = policy.decide(_obs(4, [("a", 1)]))   # backlog 4/1 = 4.0
        assert decision.spawn == 1 and "high_water" in decision.reason

    def test_cooldown_blocks_consecutive_scale_ups(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=1, max_workers=4,
                                 high_water=1.0, cooldown_seconds=5.0,
                                 clock=clock)
        assert policy.decide(_obs(8, [("a", 1)])).spawn == 1
        assert not policy.decide(_obs(8, [("a", 1), ("b", 1)]))
        clock.advance(5.0)
        assert policy.decide(_obs(8, [("a", 1), ("b", 1)])).spawn == 1

    def test_scale_up_step_and_max_bound(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=1, max_workers=3,
                                 high_water=1.0, scale_up_step=4, clock=clock)
        assert policy.decide(_obs(9, [("a", 1)])).spawn == 2   # capped at max
        clock.advance(10.0)
        assert not policy.decide(
            _obs(9, [("a", 1), ("b", 1), ("c", 1)]))           # at ceiling

    def test_idle_grace_then_retire_longest_idle_first(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=1, max_workers=4,
                                 idle_grace_seconds=2.0, low_water=0.5,
                                 cooldown_seconds=0.0, clock=clock)
        # "a" goes idle now; "b" only one tick later.
        assert not policy.decide(_obs(0, [("a", 0), ("b", 1)]))
        clock.advance(1.0)
        assert not policy.decide(_obs(0, [("a", 0), ("b", 0)]))
        clock.advance(1.0)                      # a idle 2s, b idle 1s
        decision = policy.decide(_obs(0, [("a", 0), ("b", 0)]))
        assert decision.retire == ("a",) and "idle" in decision.reason

    def test_busy_worker_never_retired(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=0, max_workers=4,
                                 idle_grace_seconds=0.0, cooldown_seconds=0.0,
                                 clock=clock)
        decision = policy.decide(_obs(0, [("busy", 2), ("idle", 0)]))
        assert decision.retire == ("idle",)

    def test_hysteresis_band_blocks_scale_down(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=1, max_workers=4,
                                 high_water=2.0, low_water=0.5,
                                 idle_grace_seconds=0.0, cooldown_seconds=0.0,
                                 clock=clock)
        # backlog 1.0 sits inside the (0.5, 2.0) hysteresis band: no action
        # in either direction even with an idle worker available.
        assert not policy.decide(_obs(2, [("a", 0), ("b", 1)]))

    def test_never_drains_below_min_workers(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=2, max_workers=4,
                                 idle_grace_seconds=0.0, cooldown_seconds=0.0,
                                 clock=clock)
        decision = policy.decide(_obs(0, [("a", 0), ("b", 0), ("c", 0)]))
        assert len(decision.retire) == 1        # 3 alive, floor 2

    def test_draining_workers_not_counted_alive(self):
        clock = _FakeClock()
        policy = ThresholdPolicy(min_workers=1, max_workers=4,
                                 high_water=2.0, clock=clock)
        # One live worker + one already draining: backlog is 4/1, scale up.
        decision = policy.decide(_obs(4, [("a", 1), ("leaving", 0, True)]))
        assert decision.spawn == 1

    def test_completed_sweep_is_a_no_op(self):
        policy = ThresholdPolicy(clock=_FakeClock())
        done = FleetObservation(queued=0, leased=0, done=5, total=5,
                                workers=(WorkerView("a", True, False, 0, 5),))
        assert not policy.decide(done)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="min_workers"):
            ThresholdPolicy(min_workers=-1)
        with pytest.raises(ValueError, match="max_workers"):
            ThresholdPolicy(min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="hysteresis"):
            ThresholdPolicy(low_water=3.0, high_water=2.0)
        with pytest.raises(ValueError, match="scale_up_step"):
            ThresholdPolicy(scale_up_step=0)


class TestObservationAndConfig:
    def test_observation_from_snapshot(self):
        snapshot = {
            "tasks": {"total": 10, "queued": 4, "leased": 2, "done": 4},
            "workers": {
                "w1": {"connected": True, "draining": False, "leases": 2,
                       "completed": 3},
                "w2": {"connected": True, "draining": True, "leases": 0,
                       "completed": 1},
                "w3": {"connected": False, "draining": False, "leases": 0,
                       "completed": 0},
            },
        }
        obs = FleetObservation.from_snapshot(snapshot)
        assert (obs.queued, obs.leased, obs.done, obs.total) == (4, 2, 4, 10)
        assert [w.worker_id for w in obs.alive] == ["w1"]
        assert obs.remaining == 6

    def test_config_builds_matching_policy(self):
        config = AutoscaleConfig(min_workers=2, max_workers=7,
                                 high_water=3.0, low_water=1.0,
                                 idle_grace_seconds=9.0,
                                 cooldown_seconds=11.0, scale_up_step=2)
        policy = config.build_policy()
        assert policy.min_workers == 2 and policy.max_workers == 7
        assert policy.high_water == 3.0 and policy.low_water == 1.0
        assert policy.idle_grace_seconds == 9.0
        assert policy.cooldown_seconds == 11.0
        assert policy.scale_up_step == 2

    def test_report_summary_is_grep_stable(self):
        report = FleetReport(scale_ups=2, workers_spawned=3, peak_workers=3,
                             drains_requested=1,
                             worker_lifetimes=[1.0, 2.5],
                             broker_counters={"drains_completed": 3,
                                              "drain_requeued_tasks": 0})
        line = report.summary()
        assert "scale_ups=2" in line
        assert "graceful_drains=3" in line
        assert "drain_requeues=0" in line
        assert "worker_lifetimes=1.0-2.5s" in line
        empty = FleetReport().summary()
        assert "scale_ups=0" in empty and "worker_lifetimes=n/a" in empty

    def test_scaling_decision_truthiness(self):
        assert not ScalingDecision()
        assert ScalingDecision(spawn=1)
        assert ScalingDecision(retire=("a",))


class TestEndToEnd:
    """Real broker + real worker processes (slower; the acceptance tests)."""

    def test_supervisor_spawns_reaps_and_stops(self):
        from repro.distributed.broker import SweepBroker

        tasks = _tiny_spec(n_seeds=2).tasks()
        with SweepBroker(tasks) as broker:
            host, port = broker.address
            supervisor = WorkerSupervisor(host, port, id_prefix="t")
            spawned = supervisor.scale_up(1)
            assert spawned == ["t-0"]
            assert supervisor.owns("t-0") and not supervisor.owns("t-9")
            assert broker.join(timeout=60.0)
            deadline = time.monotonic() + 10.0
            reaped = []
            while time.monotonic() < deadline and not reaped:
                reaped = supervisor.reap()
                time.sleep(0.05)
            assert [r[0] for r in reaped] == ["t-0"]
            worker_id, exitcode, lifetime = reaped[0]
            assert exitcode == 0 and lifetime > 0
            assert supervisor.alive_count() == 0
            assert supervisor.stop_all() == []

    def test_sigterm_drains_worker_gracefully(self):
        """Satellite 1: SIGTERM mid-sweep -> finish in-flight task, deliver,
        exit 0 — the broker records a graceful drain and requeues nothing."""
        from repro.distributed.broker import SweepBroker

        tasks = _tiny_spec(n_seeds=30, max_episodes=20).tasks()
        with SweepBroker(tasks) as broker:
            host, port = broker.address
            supervisor = WorkerSupervisor(host, port, id_prefix="sig")
            supervisor.scale_up(1)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and broker.completed_count < 2:
                time.sleep(0.02)
            assert broker.completed_count >= 2, "worker never started"
            assert supervisor.signal(["sig-0"]) == ["sig-0"]
            deadline = time.monotonic() + 30.0
            reaped = []
            while time.monotonic() < deadline and not reaped:
                reaped = supervisor.reap()
                time.sleep(0.05)
            assert reaped and reaped[0][0] == "sig-0"
            assert reaped[0][1] == 0, "SIGTERM exit was not graceful"
            completed_at_exit = broker.completed_count
            assert completed_at_exit < len(tasks), \
                "worker finished the whole grid before the signal"
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and broker.drains_completed < 1:
                time.sleep(0.02)
            assert broker.drains_completed == 1
            assert broker.drain_requeued_tasks == 0
            assert broker.requeued_tasks == 0
            # finish the sweep so the broker shuts down cleanly
            supervisor.scale_up(1)
            assert broker.join(timeout=120.0)
            supervisor.stop_all()

    def test_autoscaled_sweep_matches_serial_backend(self):
        """Acceptance: scale-up + graceful drain mid-sweep, zero lost
        leases, results identical to the serial backend.

        The grid is shaped to force both scaling directions: a pile of
        quick trials builds the backlog that triggers a scale-up, and one
        deterministically long trial (``stop_when_solved=False``) leaves
        a single worker grinding the tail while the others idle past the
        grace period and get drained mid-sweep.
        """
        tasks = _tiny_spec(n_seeds=16, max_episodes=5).tasks()
        tasks += SweepSpec(
            designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
            training=TrainingConfig(max_episodes=3000,
                                    stop_when_solved=False),
            root_seed=321).tasks()
        serial = SweepRunner(tasks, backend="serial").run()
        config = AutoscaleConfig(min_workers=1, max_workers=2,
                                 poll_interval=0.05, idle_grace_seconds=0.2,
                                 cooldown_seconds=0.1, high_water=1.5,
                                 low_water=0.5)
        elastic = SweepRunner(tasks, backend="distributed",
                              autoscale=config).run()
        assert elastic.fleet_report is not None
        report = elastic.fleet_report
        assert report.scale_ups >= 1
        assert report.workers_spawned >= 1
        assert report.drain_requeues == 0
        assert report.broker_counters.get("requeued_tasks", 0) == 0
        assert report.graceful_drains >= 1   # the mid-sweep idle drain
        assert len(elastic) == len(serial)
        for (task_a, result_a), (task_b, result_b) in zip(serial.entries,
                                                          elastic.entries):
            assert task_a.key() == task_b.key()
            assert result_a.episodes_to_solve == result_b.episodes_to_solve
            assert result_a.episodes == result_b.episodes
            assert list(result_a.curve.steps) == list(result_b.curve.steps)
        assert set(elastic.backend_counts()) == {"distributed"}

    def test_autoscale_rejected_off_distributed_backend(self):
        with pytest.raises(ValueError, match="autoscale"):
            SweepRunner(_tiny_spec(), backend="serial", autoscale=True)
        from repro.api.engine import run

        with pytest.raises(ValueError, match="autoscale"):
            run(_spec_for_engine(), backend="serial", autoscale=True)


def _spec_for_engine():
    from repro.api.spec import Budget, ExperimentSpec

    return ExperimentSpec(name="fleet-test", kind="training_curve",
                          designs=("OS-ELM-L2",), hidden_sizes=(8,),
                          env_ids=("CartPole-v0",), n_seeds=1,
                          budget=Budget(max_episodes=3))


class TestFleetAutoscaleCLI:
    def test_fleet_autoscale_requires_live_broker(self, capsys):
        import socket

        from repro.api.cli import main

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["fleet", "autoscale", "--connect",
                     f"127.0.0.1:{port}"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["fleet", "autoscale", "--connect", "not-an-address"]) == 2

    def test_fleet_autoscale_attaches_to_external_broker(self, capsys):
        """`repro fleet autoscale --connect` drives a broker it did not
        start: spawns workers, drains them, exits when the broker goes."""
        from repro.api.cli import main
        from repro.distributed.broker import SweepBroker

        tasks = _tiny_spec(n_seeds=2).tasks()
        broker = SweepBroker(tasks)
        broker.start()
        host, port = broker.address

        def close_when_done():
            broker.join(timeout=120.0)
            broker.close()

        closer = threading.Thread(target=close_when_done, daemon=True)
        closer.start()
        try:
            code = main(["fleet", "autoscale", "--connect", f"{host}:{port}",
                         "--min", "1", "--max", "2",
                         "--autoscale-interval", "0.1",
                         "--autoscale-idle-grace", "0.2",
                         "--autoscale-cooldown", "0.1", "--watch"])
        finally:
            broker.close()
            closer.join(timeout=5.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "autoscaling fleet" in out
        assert "fleet: scale_ups=" in out
        assert "drain_requeues=0" in out
        assert broker.completed_count == len(tasks)
