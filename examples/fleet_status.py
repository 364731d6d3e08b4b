"""Watch a live distributed sweep through the broker's STATS channel.

Demonstrates the 1.5 observability surface end to end on one machine:

1. a :class:`~repro.distributed.SweepBroker` serves a small task grid;
2. a local worker fleet pulls and trains the grid over TCP;
3. while the fleet works, an *observer* polls
   :func:`~repro.telemetry.fleet.fetch_fleet_stats` — the exact call behind
   ``repro fleet status --connect HOST:PORT`` — and renders each snapshot;
4. every snapshot is checked against the broker's reconciliation invariant
   ``queued + leased + done == total``, and the final snapshot must show
   the whole grid done.

The script exits non-zero if any of those checks fail, so CI runs it as a
deterministic driver for the fleet-status path.

Run with::

    PYTHONPATH=src python examples/fleet_status.py

Against a real sweep, the same information comes from::

    repro run figure4 --backend distributed --bind 0.0.0.0:5555 &
    repro fleet status --connect localhost:5555 --watch
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.distributed import SweepBroker, spawn_local_workers
from repro.parallel import SweepSpec
from repro.telemetry.fleet import fetch_fleet_stats, format_fleet_status
from repro.training import TrainingConfig


def check_reconciled(snapshot: dict) -> None:
    tasks = snapshot["tasks"]
    total = tasks["queued"] + tasks["leased"] + tasks["done"]
    assert total == tasks["total"], (
        f"snapshot does not reconcile: {tasks}")


def main() -> int:
    spec = SweepSpec(
        designs=("OS-ELM-L2",),
        n_seeds=4,
        n_hidden=16,
        training=TrainingConfig(max_episodes=30),
        root_seed=2021,
    )
    tasks = spec.tasks()

    with SweepBroker(tasks) as broker:
        host, port = broker.address
        print(f"broker serving {len(tasks)} tasks on {host}:{port}\n")
        workers = spawn_local_workers(host, port, 2)

        # The observer loop: what `repro fleet status --watch` does.
        snapshots = 0
        while not broker.join(timeout=0.5):
            snapshot = fetch_fleet_stats(host, port)
            check_reconciled(snapshot)
            snapshots += 1
            print(format_fleet_status(snapshot))
            print()

        final = fetch_fleet_stats(host, port)
        check_reconciled(final)
        print(format_fleet_status(final))
        assert final["tasks"]["done"] == len(tasks), "sweep did not finish"
        assert final["workers"], "no workers registered in the snapshot"

        results = broker.results()
        for process in workers:
            process.join(timeout=10.0)

    print(f"\n{len(results)} results collected; "
          f"{snapshots + 1} snapshots, all reconciled: OK")
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"({time.perf_counter() - start:.1f}s)")
    sys.exit(code)
