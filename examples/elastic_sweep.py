"""Run a bursty sweep under the elastic fleet autoscaler, end to end.

Demonstrates the 1.7 ``repro.fleet`` subsystem on one machine:

1. a :class:`~repro.distributed.SweepBroker` serves a grid shaped to
   force both scaling directions — a pile of quick trials (the backlog
   that triggers a scale-up) followed by a few deterministically long
   trials (``stop_when_solved=False``) whose tail leaves surplus workers
   idle past the grace period;
2. a :class:`~repro.fleet.FleetAutoscaler` polls the broker's STATS
   channel, spawns workers through its
   :class:`~repro.fleet.WorkerSupervisor` when the backlog crosses the
   high-water mark, and retires idle workers through the broker's
   ``DRAIN`` protocol — each retired worker finishes its
   in-flight lease, delivers the result, and exits on its own;
3. the final :class:`~repro.fleet.FleetReport` and broker counters are
   checked: at least one scale-up, at least one graceful drain, and the
   elastic-fleet contract ``drain_requeued_tasks == 0`` (a retired
   worker never costs a lease re-execution);
4. the collected results are compared against a serial run of the same
   grid — the autoscaler changes *when and where* trials run, never
   *what* runs, so the outcome is identical under any scaling schedule.

The script exits non-zero if any check fails, so CI can run it as a
deterministic driver for the elastic-fleet path.

Run with::

    PYTHONPATH=src python examples/elastic_sweep.py

Against a real sweep, the same loop attaches over the network::

    repro run figure4 --backend distributed --workers 0 --autoscale &
    # or, for a broker started elsewhere:
    repro fleet autoscale --connect HOST:PORT --min 1 --max 4 --watch
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.distributed import SweepBroker
from repro.fleet import AutoscaleConfig, FleetAutoscaler
from repro.parallel import SweepRunner, SweepSpec
from repro.training import TrainingConfig


def build_tasks():
    """A bursty grid: 12 quick trials, then 2 long deterministic ones."""
    quick = SweepSpec(
        designs=("OS-ELM-L2",),
        n_seeds=12,
        n_hidden=8,
        training=TrainingConfig(max_episodes=5),
        root_seed=2021,
    ).tasks()
    long_tail = SweepSpec(
        designs=("OS-ELM-L2",),
        n_seeds=2,
        n_hidden=8,
        training=TrainingConfig(max_episodes=2500, stop_when_solved=False),
        root_seed=77,
    ).tasks()
    return quick + long_tail


def main() -> int:
    tasks = build_tasks()
    print(f"grid: {len(tasks)} trials "
          f"({len(tasks) - 2} quick + 2 long tail)\n")

    config = AutoscaleConfig(min_workers=1, max_workers=3,
                             poll_interval=0.1, high_water=2.0,
                             low_water=0.5, idle_grace_seconds=0.3,
                             cooldown_seconds=0.2)
    with SweepBroker(tasks) as broker:
        host, port = broker.address
        print(f"broker serving on {host}:{port}; autoscaling "
              f"min={config.min_workers} max={config.max_workers}")
        autoscaler = FleetAutoscaler(host, port, config=config).start()
        try:
            assert broker.join(timeout=600.0), "sweep did not converge"
        finally:
            autoscaler.stop(retire_fleet=True)
        results = broker.results()
        drains_completed = broker.drains_completed
        drain_requeued = broker.drain_requeued_tasks
        requeued = broker.requeued_tasks

    report = autoscaler.report
    print(f"\n{report.summary()}")
    for event in report.events:
        workers = ",".join(event.workers)
        print(f"  t+{event.elapsed:6.2f}s {event.kind:<16} {workers:<24} "
              f"{event.reason}")

    assert report.scale_ups >= 1, "fleet never scaled up"
    assert drains_completed >= 1, "no worker was drained gracefully"
    assert drain_requeued == 0, \
        f"graceful drain lost {drain_requeued} lease(s)"
    assert requeued == 0, f"{requeued} lease(s) were requeued"
    assert len(results) == len(tasks), "incomplete sweep"

    # The elastic run must be indistinguishable from a serial one.
    serial = SweepRunner(tasks, backend="serial").run()
    for (task, serial_result), (elastic_result, _backend) in zip(
            serial.entries, results):
        assert serial_result.episodes == elastic_result.episodes, task.key()
        assert list(serial_result.curve.steps) \
            == list(elastic_result.curve.steps), task.key()
    print(f"\n{len(results)} elastic results identical to the serial "
          f"backend; {drains_completed} graceful drain(s), 0 lost leases: OK")
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"({time.perf_counter() - start:.1f}s)")
    sys.exit(code)
