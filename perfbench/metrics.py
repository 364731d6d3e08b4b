"""Every metric the benchmark emits: unit, direction and what it should move.

Every workload emits every metric: ``END_TO_END`` from untraced runs
(``--trace 0``), with a regression bound in ``BENCHMARK.json``, and
``PER_LAYER`` from a separate traced run (``--trace 1``).  Names are
therefore about roles, not about one workload's layers; what a role means
on each workload is below.  The span table a traced run prints on standard
error keeps the workload's own layers by name (``core.observe``,
``parallel.venv_step``, ``serving.act_batch``, ...).

An *operation* is one env step on the training workloads and one served
action on ``serve_policy``.

End to end:

* ``ops_per_s`` — operations per second at full load: env steps per second
  over the grid on training (the median pass, scaled on the in-process
  workloads to a reference host speed by a calibration kernel, see
  ``calibration``); actions per second streamed
  through one connection with ``act_many`` on ``serve_policy``.
* ``p50_ms`` — median time of one operation: wall time per env step of the
  median pass on training (so the reciprocal of ``ops_per_s``); the
  client-measured ``act()`` round trip of 2 blocking clients on
  ``serve_policy``, where closed-loop replies per second are 2 over it.
* ``setup_s`` — import, warm-up and the median build of a pass or server
  round: everything before the first timed operation.  The import, the
  largest part on most workloads, is scaled to the reference host speed
  like ``ops_per_s``; warm-up and build are as measured (their intervals
  are too short, or span other processes, for the kernel to track).
* ``peak_rss_mb`` — peak resident memory of the process doing the work
  (this process; the workers for ``sweep_distributed``; the server for
  ``serve_policy``).

Per layer, each with the end-to-end metric it should move:

* ``setup.import_s`` / ``setup.warmup_s`` / ``setup.build_s`` — the three
  parts of ``setup_s``: a fresh interpreter importing the program; the
  canary grid (training) or training and pickling the served policy
  (serving); the median per-pass build — agents, the lock-step runner, a
  broker plus 2 spawned workers up to their first trial, or a server
  process up to its first connected client.
* ``work.compute_us_per_op`` — time inside the program's work per
  operation: the top-level traced calls (agent ``act``/``observe``, env
  ``step``/``reset``, ``SyncVectorEnv.step``, the ``BatchedELMStrategy``
  hooks) on serial and lock-step; the trials' own ``wall_time_seconds`` on
  the workers for distributed; the hosted agent's ``act_batch`` in the
  server for serving.  Serial and lock-step split it further by layer in
  the span table.
* ``work.overhead_us_per_op`` — the rest of each lane's wall time per
  operation: the driving loop (serial, lock-step), framing, leases and idle
  workers (distributed, 2 lanes), batcher waits, wire and client (serving).
* ``transport.frames_per_op`` / ``transport.bytes_per_op`` — framed
  messages and bytes this process sent and received per operation (the
  broker for distributed, the clients for serving; the in-process trainers
  frame nothing, and count 0).
* ``validation.calls_per_op`` — ``ensure_2d``/``check_array`` calls per
  operation, from every program module that imports them, in this process
  and (serving) the server process; the distributed workers are spawned
  by the program and are not traced, so that workload counts only the
  broker's side.
* ``trace.overhead`` — traced wall time over untraced wall time, minus 1,
  on the same inputs.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

TRAINING = ("train_serial", "sweep_lockstep", "sweep_distributed")

#: Why each workload exists (mirrored into ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "train_serial": "the grid on the serial Trainer.fit path, where per-call "
                    "validation and Python overhead dominate",
    "sweep_lockstep": "the same grid batched across trials on the default "
                      "vectorized backend, where batched kernels and CartPole "
                      "physics dominate",
    "sweep_distributed": "the same grid on a broker plus 2 local workers, the "
                         "only workload that measures framing, leases and "
                         "worker idle time",
    "serve_policy": "a trained policy behind a PolicyServer with default "
                    "knobs: 2 blocking clients, then 1 client pipelining "
                    "act_many",
}


class Metric(NamedTuple):
    unit: str
    better: str                  #: "higher" or "lower"
    moves: str                   #: the end-to-end metric it should move
    bound: float = 0.0           #: end-to-end only: allowed worsening share


END_TO_END: Dict[str, Metric] = {
    "ops_per_s": Metric("1/s", "higher", "ops_per_s", 0.25),
    "p50_ms": Metric("ms", "lower", "p50_ms", 0.25),
    "setup_s": Metric("s", "lower", "setup_s", 0.25),
    "peak_rss_mb": Metric("MB", "lower", "peak_rss_mb", 0.15),
}

PER_LAYER: Dict[str, Metric] = {
    "setup.import_s": Metric("s", "lower", "setup_s"),
    "setup.warmup_s": Metric("s", "lower", "setup_s"),
    "setup.build_s": Metric("s", "lower", "setup_s"),
    "work.compute_us_per_op": Metric("us", "lower", "ops_per_s"),
    "work.overhead_us_per_op": Metric("us", "lower", "p50_ms"),
    "transport.frames_per_op": Metric("frames/op", "lower", "ops_per_s"),
    "transport.bytes_per_op": Metric("B/op", "lower", "ops_per_s"),
    "validation.calls_per_op": Metric("calls/op", "lower", "ops_per_s"),
    "trace.overhead": Metric("ratio", "lower", "none (tracing cost)"),
}


def expected(trace: bool) -> Dict[str, Metric]:
    """The metrics one run must print, by name: the same on every workload."""
    return PER_LAYER if trace else END_TO_END
