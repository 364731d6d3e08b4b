"""The three training workloads: one seeded grid, three backends.

Every workload trains the same grids — ``OS-ELM-L2-Lipschitz`` with 64 hidden
nodes (the paper's headline size) on CartPole-v0, ``N_SEEDS`` trials, a fixed
episode budget and no early stop — so the per-trial curves of the three
backends must be byte-identical.  A run trains one grid per pass, each seeded
from ``--seed`` and the pass number, until ``--seconds`` of timed work are
done.  Before anything is timed, a small canary grid must reproduce the
curve digests committed in ``reference.json``, which ties all three backends
to one reference; a traced run must also reproduce its untraced curves.
"""

from __future__ import annotations

import hashlib
import json
import resource
import socket
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro import SweepRunner, SweepSpec, Trainer, TrainingConfig, make_design, make_env
from repro.distributed import protocol
from repro.linalg import RecursiveInverse
from repro.parallel import SyncVectorEnv
from repro.telemetry.fleet import fetch_fleet_stats
from repro.training import BatchedELMStrategy
from repro.utils import validation

from calibration import Calibrate, Clock, kernel_seconds
from spans import SpanRecorder, SpanSummary, patched

DESIGN = "OS-ELM-L2-Lipschitz"
ENV_ID = "CartPole-v0"
N_HIDDEN = 64
N_SEEDS = 16
EPISODES = 80
N_WORKERS = 2

#: Canary grid whose digests are committed in ``reference.json``.
CANARY_SEED = 20210517
CANARY_SEEDS = 2
CANARY_EPISODES = 25
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Strategy hooks the lock-step trainer calls once per step or per trial.
_STRATEGY_HOOKS = ("bind", "start", "select_actions", "post_env_step",
                   "observe", "flush_updates", "end_episode", "prepare_record",
                   "after_weight_reset", "end_step", "finalize")


def grid(root_seed: int, n_seeds: int, episodes: int) -> List[Any]:
    """The seeded grid every training workload runs, as sweep tasks."""
    spec = SweepSpec(designs=(DESIGN,), env_ids=(ENV_ID,), n_seeds=n_seeds,
                     n_hidden=N_HIDDEN,
                     training=TrainingConfig(max_episodes=episodes,
                                             stop_when_solved=False),
                     root_seed=root_seed)
    return spec.tasks()


def curve_digest(result: Any) -> str:
    """Hash of a trial's whole curve, every float by its exact bits."""
    digest = hashlib.sha256()
    for record in result.curve.records:
        digest.update(f"{record.episode},{record.steps},"
                      f"{float(record.shaped_return).hex()},"
                      f"{float(record.moving_average).hex()};".encode())
    digest.update(f"resets={result.weight_resets}".encode())
    return digest.hexdigest()[:16]


class PassResult(NamedTuple):
    results: List[Any]      #: TrainingResult per task, in task order
    setup_s: float          #: work before the first timed operation
    timed_s: float          #: the timed interval
    observer: Dict[str, Any]  #: backend-specific counters
    reference_s: float      #: the timed interval at the reference host speed


# ---------------------------------------------------------------------- host speed
#: Workloads that train in this process, so their timed calls are scaled to
#: the reference host speed (see ``calibration``).  The distributed workers
#: train on whichever vCPUs they get, which a kernel timed here does not see
#: (scaling by it doubled that workload's spread), so ``sweep_distributed``
#: reports its throughput as measured.
KERNEL_SCALED = ("train_serial", "sweep_lockstep")


def scaled_steps_per_s(result: PassResult) -> float:
    return steps(result) / result.reference_s


def scaled_step_ms(result: PassResult) -> float:
    return 1e3 / scaled_steps_per_s(result)


# ---------------------------------------------------------------------- backends
def serial_pass(tasks: Sequence[Any], calibrate: Calibrate = None) -> PassResult:
    start = time.perf_counter()
    agents = [task.make_agent() for task in tasks]
    before = traffic()
    setup_s = time.perf_counter() - start
    clock = Clock(calibrate)
    results = []
    for agent, task in zip(agents, tasks):
        with clock.timed():
            results.append(Trainer().fit(agent, config=task.training,
                                         n_hidden=task.n_hidden))
    return PassResult(results, setup_s, clock.timed_s, traffic_since(before),
                      clock.reference_s)


def lockstep_pass(tasks: Sequence[Any], calibrate: Calibrate = None) -> PassResult:
    start = time.perf_counter()
    runner = SweepRunner(list(tasks), backend="vectorized")
    before = traffic()
    setup_s = time.perf_counter() - start
    clock = Clock(calibrate)
    with clock.timed():
        sweep = runner.run()
    return PassResult(_in_task_order(tasks, sweep), setup_s, clock.timed_s,
                      traffic_since(before), clock.reference_s)


def distributed_pass(tasks: Sequence[Any], calibrate: Calibrate = None,
                     n_workers: int = N_WORKERS) -> PassResult:
    """One sweep on a fresh broker and ``n_workers`` spawned workers.

    ``calibrate`` is ignored: the timed interval is reported as measured
    (see ``KERNEL_SCALED``).

    Worker spawn and handshake are set-up: the timed interval starts when
    the first trial starts training, which is its result's arrival time
    minus the trial's own ``wall_time_seconds``, and ends at the last
    result.  The broker's ``STATS`` are read as the last two results land
    (the broker closes right after the last), and the observer's own frames
    are taken out of the transport counters.
    """
    host = "127.0.0.1"
    port = _free_port(host)
    arrivals: List[Tuple[float, float]] = []
    stats: Dict[str, Any] = {"requeued_tasks": 0}
    observer_frames = [0, 0]

    def on_result(_task: Any, result: Any) -> None:
        arrivals.append((time.perf_counter(), result.wall_time_seconds))
        if len(arrivals) >= len(tasks) - 1:
            before = protocol.transport_counters().snapshot()
            try:
                snapshot = fetch_fleet_stats(host, port, timeout=2.0)
                stats["requeued_tasks"] = max(
                    stats["requeued_tasks"],
                    int(snapshot["counters"]["requeued_tasks"]))
            except OSError:
                pass     # the broker closed after the last result: keep the last read
            after = protocol.transport_counters().snapshot()
            observer_frames[0] += _frames(after) - _frames(before)
            observer_frames[1] += _bytes(after) - _bytes(before)

    start = time.perf_counter()
    runner = SweepRunner(list(tasks), backend="distributed", max_workers=n_workers,
                         bind=f"{host}:{port}")
    counters_before = protocol.transport_counters().snapshot()
    sweep = runner.run(callback=on_result)
    counters_after = protocol.transport_counters().snapshot()
    first_start = min(arrived - wall for arrived, wall in arrivals)
    last = max(arrived for arrived, _ in arrivals)
    observer = {
        "requeues": stats["requeued_tasks"],
        "frames": _frames(counters_after) - _frames(counters_before) - observer_frames[0],
        "bytes": _bytes(counters_after) - _bytes(counters_before) - observer_frames[1],
        "busy_s": sum(wall for _, wall in arrivals),
    }
    return PassResult(_in_task_order(tasks, sweep), first_start - start,
                      last - first_start, observer, last - first_start)


def traffic() -> Tuple[int, int]:
    """(frames, bytes) this process has sent and received so far."""
    snapshot = protocol.transport_counters().snapshot()
    return _frames(snapshot), _bytes(snapshot)


def traffic_since(before: Tuple[int, int]) -> Dict[str, int]:
    frames, nbytes = traffic()
    return {"frames": frames - before[0], "bytes": nbytes - before[1]}


def _frames(snapshot: Dict[str, int]) -> int:
    return snapshot["frames_sent"] + snapshot["frames_received"]


def _bytes(snapshot: Dict[str, int]) -> int:
    return snapshot["bytes_sent"] + snapshot["bytes_received"]


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _in_task_order(tasks: Sequence[Any], sweep: Any) -> List[Any]:
    """Results lined up with ``tasks``; every backend hands back the same objects."""
    by_task = {id(task): result for task, result in sweep.entries}
    return [by_task[id(task)] for task in tasks]


BACKENDS: Dict[str, Callable[[Sequence[Any], Calibrate], PassResult]] = {
    "train_serial": serial_pass,
    "sweep_lockstep": lockstep_pass,
    "sweep_distributed": distributed_pass,
}


# ---------------------------------------------------------------------- tracing
def trace_targets() -> List[Tuple[Any, str, str]]:
    """Public calls into each training layer, with their span names."""
    agent_class = type(make_design(DESIGN, n_hidden=N_HIDDEN, seed=0))
    env_class = type(make_env(ENV_ID, seed=0))
    targets = [(agent_class, "act", "core.act"),
               (agent_class, "observe", "core.observe"),
               (env_class, "step", "envs.step"),
               (env_class, "reset", "envs.reset"),
               (SyncVectorEnv, "step", "parallel.venv_step"),
               (RecursiveInverse, "update", "linalg.sherman_morrison")]
    targets += [(BatchedELMStrategy, hook, f"training.{hook}")
                for hook in _STRATEGY_HOOKS]
    targets += validation_targets()
    return targets


def validation_targets() -> List[Tuple[Any, str, str]]:
    """``ensure_2d``/``check_array`` in every repro module that imports them."""
    targets = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro.") or name == "repro.utils.validation":
            continue
        for function in ("ensure_2d", "check_array"):
            if getattr(module, function, None) is getattr(validation, function):
                targets.append((module, function, f"validation.{function}"))
    return targets


# ---------------------------------------------------------------------- runs
#: Pass pairs (untraced, then the same grid traced) in a traced run.  Fixed
#: per workload, so traced counts are exact for a given seed; sized so the
#: pairs take about as long as an untraced run's budget.
TRACE_PASSES = {"train_serial": 4, "sweep_lockstep": 16, "sweep_distributed": 3}


def pass_grid(seed: int, number: int) -> List[Any]:
    """Pass ``number`` of a run trains its own grid, seeded from the run seed."""
    return grid(seed * 1000 + number, N_SEEDS, EPISODES)


def run_passes(workload: str, seed: int, seconds: float,
               min_passes: int = 3) -> List[PassResult]:
    """Untraced passes until ``seconds`` of timed work (at least ``min_passes``),
    calibrated where the workload trains in this process."""
    backend = BACKENDS[workload]
    calibrate = kernel_seconds if workload in KERNEL_SCALED else None
    passes: List[PassResult] = []
    while len(passes) < min_passes or sum(p.timed_s for p in passes) < seconds:
        passes.append(backend(pass_grid(seed, len(passes)), calibrate))
    return passes


def run_pairs(workload: str, seed: int,
              recorder: SpanRecorder) -> Tuple[List[PassResult], List[PassResult]]:
    """Each pass untraced, then again traced; pairs sit close in time so
    drift in machine load cancels out of the tracing overhead."""
    backend = BACKENDS[workload]
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    for number in range(TRACE_PASSES[workload]):
        tasks = pass_grid(seed, number)
        untraced.append(backend(tasks))
        with patched(recorder, trace_targets()):
            traced.append(backend(tasks))
    return untraced, traced


def digests(passes: Sequence[PassResult]) -> List[List[str]]:
    return [[curve_digest(r) for r in p.results] for p in passes]


def canary_check(workload: str) -> Tuple[bool, str]:
    """Train the canary grid on this backend and compare with the reference."""
    tasks = grid(CANARY_SEED, CANARY_SEEDS, CANARY_EPISODES)
    if workload == "sweep_distributed":
        result = distributed_pass(tasks, n_workers=1)
    else:
        result = BACKENDS[workload](tasks)
    got = [curve_digest(r) for r in result.results]
    reference = json.loads(REFERENCE_PATH.read_text())["canary_digests"]
    return got == reference, f"canary {got} vs reference {reference}"


def peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "sweep_distributed"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def steps(result: PassResult) -> int:
    return sum(record.steps for r in result.results for record in r.curve.records)


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float) -> Dict[str, Any]:
    """One run: untraced passes, or (``trace``) untraced and traced pass pairs.

    The canary runs first: it warms the code paths up before anything is
    timed, and its time counts as set-up.
    """
    started = time.perf_counter()
    canary_ok, canary_detail = canary_check(workload)
    warmup_s = time.perf_counter() - started
    checks: List[Tuple[str, bool, str]] = []
    failed = 0
    if trace:
        recorder = SpanRecorder()
        untraced, traced = run_pairs(workload, seed, recorder)
        passes = untraced + traced
        reference = digests(untraced)
        differing = sum(a != b for ref, got in zip(reference, digests(traced))
                        for a, b in zip(ref, got))
        failed += differing
        checks.append(("traced curves equal untraced curves", differing == 0,
                       f"{differing} trials differ"))
        summary = recorder.summary()
        wall = sum(p.timed_s for p in traced)
        metrics = {
            "setup.import_s": import_s,
            "setup.warmup_s": warmup_s,
            "setup.build_s": statistics.median(p.setup_s for p in untraced),
            **layer_metrics(workload, traced, summary),
            "trace.overhead": wall / sum(p.timed_s for p in untraced) - 1.0,
        }
        report = summary.render(wall)
    else:
        passes = run_passes(workload, seed, seconds)
        metrics = {
            "ops_per_s": statistics.median(map(scaled_steps_per_s, passes)),
            "p50_ms": statistics.median(map(scaled_step_ms, passes)),
            "setup_s": (import_s + warmup_s
                        + statistics.median(p.setup_s for p in passes)),
            "peak_rss_mb": peak_rss_mb(workload),
        }
        report = ""
    requeues = sum(p.observer.get("requeues", 0) for p in passes)
    checks.append(("canary curves equal reference.json", canary_ok, canary_detail))
    checks.append(("no broker requeues", requeues == 0, f"{requeues} requeued"))
    return {
        "metrics": metrics,
        "attempted": sum(len(p.results) for p in passes) + CANARY_SEEDS,
        "failed": failed + requeues + (0 if canary_ok else CANARY_SEEDS),
        "checks": checks,
        "summary": (f"{workload}: {len(passes)} passes, "
                    f"{sum(len(p.results) for p in passes)} trials, "
                    f"{sum(steps(p) for p in passes)} env steps in "
                    f"{sum(p.timed_s for p in passes):.2f} s"),
        "report": report,
    }


def layer_metrics(workload: str, passes: Sequence[PassResult],
                  summary: SpanSummary) -> Dict[str, float]:
    """Per-operation work, overhead, traffic and validation of traced passes.

    Work is the top-level traced calls here, or the workers' own trial time
    on the distributed backend, whose 2 workers give 2 lanes of wall time.
    """
    wall = sum(p.timed_s for p in passes)
    ops = sum(steps(p) for p in passes)
    if workload == "sweep_distributed":
        lanes, compute = N_WORKERS, sum(p.observer["busy_s"] for p in passes)
    else:
        lanes, compute = 1, summary.top_level
    return {
        "work.compute_us_per_op": compute / ops * 1e6,
        "work.overhead_us_per_op": (lanes * wall - compute) / ops * 1e6,
        "transport.frames_per_op": sum(p.observer["frames"] for p in passes) / ops,
        "transport.bytes_per_op": sum(p.observer["bytes"] for p in passes) / ops,
        "validation.calls_per_op":
            summary.calls("validation.ensure_2d", "validation.check_array") / ops,
    }
