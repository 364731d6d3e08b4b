"""A multi-seed sweep on the distributed worker fleet, with fault injection.

Demonstrates the ``backend="distributed"`` path end to end on one machine:
a :class:`~repro.distributed.SweepBroker` is started implicitly by
``SweepRunner``, a local fleet of worker processes pulls the grid over TCP,
one worker is killed mid-sweep, and the result still matches the serial
backend bit-for-bit — the broker requeues the dead worker's lease and the
survivors finish the grid.

Run with::

    PYTHONPATH=src python examples/distributed_sweep.py

For a real multi-host fleet, the same grid is served with::

    repro run figure4 --backend distributed --bind 0.0.0.0:5555 --workers 0
    # ...then, on each additional machine:
    repro worker --connect brokerhost:5555
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.distributed import SweepBroker, spawn_local_workers
from repro.parallel import SweepRunner, SweepSpec
from repro.training import TrainingConfig


def main() -> None:
    spec = SweepSpec(
        designs=("OS-ELM-L2-Lipschitz",),
        n_seeds=4,
        n_hidden=32,
        training=TrainingConfig(max_episodes=60),
        root_seed=2021,
    )

    # --- the one-liner: SweepRunner owns broker + fleet -------------------
    distributed = SweepRunner(spec, backend="distributed", max_workers=2).run()
    print(distributed.render())
    print(f"backends used: {distributed.backend_counts()}")

    # --- the same grid serially, to show the bit-for-bit contract ---------
    serial = SweepRunner(spec, backend="serial").run()
    for (_, serial_result), (_, dist_result) in zip(serial.entries,
                                                    distributed.entries):
        np.testing.assert_array_equal(serial_result.curve.steps,
                                      dist_result.curve.steps)
    print("distributed trials replay serial trials bit-for-bit: OK")

    # --- fault injection: kill a worker mid-sweep --------------------------
    tasks = spec.tasks()
    broker = SweepBroker(tasks, heartbeat_timeout=5.0)
    broker.start()
    host, port = broker.address
    workers = spawn_local_workers(host, port, 2)
    # Kill a worker right after it takes a lease: a trial runs for ~100 ms,
    # so the lease is still unfinished when the kill lands.
    victim = None
    deadline = time.monotonic() + 30.0
    while victim is None and time.monotonic() < deadline:
        for worker_id, row in broker.stats_snapshot()["workers"].items():
            if row["leases"] >= 1 and row["oldest_lease_age"] < 0.02:
                victim = workers[int(worker_id.rsplit("-", 1)[1])]
                # SIGKILL, not SIGTERM: a terminated worker drains gracefully
                # (it finishes and delivers its lease), so only a kill
                # leaves a lease behind.
                victim.kill()               # one worker dies mid-trial...
                break
        time.sleep(0.002)
    broker.join(timeout=120.0)          # ...the survivor absorbs the requeue
    results = broker.results()
    broker.close()
    for worker in workers:
        worker.join(timeout=5.0)
    for (_, serial_result), (dist_result, _) in zip(serial.entries, results):
        np.testing.assert_array_equal(serial_result.curve.steps,
                                      dist_result.curve.steps)
    assert broker.requeued_tasks >= 1, "the killed worker's lease was not requeued"
    print(f"worker killed mid-sweep: {broker.requeued_tasks} task(s) requeued, "
          f"results still identical")


if __name__ == "__main__":
    main()
