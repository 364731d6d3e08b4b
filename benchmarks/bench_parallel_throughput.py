"""Benchmark: aggregate env-steps/sec of the parallel rollout engine.

Measures, on identical multi-seed CartPole workloads:

1. the serial baseline — a plain ``Trainer().fit`` loop over the sweep's
   trials, with no sweep machinery at all;
2. ``SweepRunner(backend="vectorized")`` — lock-step batched training over
   the vectorized environment;
3. ``SweepRunner(backend="distributed")`` — the TCP broker + local worker
   fleet of :mod:`repro.distributed`;
4. (full mode) ``SweepRunner(backend="process")`` — process-pool fan-out,
   which only wins with more physical cores than trials.

It additionally measures serial vs lock-step training on the Autoscale-v0
systems env and checks that both produce identical curves, so the speedup
is a throughput statement, not a semantics change.

Run directly (the suite's pytest collection ignores ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_parallel_throughput.py --smoke

``--smoke`` keeps the whole run well under a minute; the default budget
measures longer runs for stabler numbers.  ``--json PATH`` additionally
dumps every measured rate as one machine-readable document — the CI bench
job uploads it as the ``BENCH_parallel.json`` artifact on every push, so
the per-backend perf trajectory is tracked instead of lost in logs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.parallel import SweepRunner, SweepSpec
from repro.training import Trainer, TrainingConfig
from repro.utils.tables import format_table


def bench_autoscale_lockstep(seeds: int = 2, episodes: int = 6,
                             root_seed: int = 909):
    """Serial vs lock-step sweep throughput on the Autoscale-v0 systems env.

    The generic batched fast path (``AutoscaleEnv.batch_dynamics`` driven by
    ``SyncVectorEnv``) carries the vectorized backend here, so a regression
    that silently drops Autoscale-v0 off the fast path shows up as a rate
    collapse in the committed baseline.  Returns ``(rows, rates, identical)``
    where ``identical`` asserts the serial and lock-step curves match
    exactly — the bit-identity contract, not just a speed number.
    """
    training = TrainingConfig(env_id="Autoscale-v0", max_episodes=episodes,
                              max_steps_per_episode=60,
                              solved_threshold=10_000.0, stop_when_solved=False,
                              reward_shaping=False)
    spec = SweepSpec(designs=("OS-ELM-L2-Lipschitz",), n_seeds=seeds,
                     n_hidden=16, training=training, root_seed=root_seed)
    rows, rates, curves = [], {}, {}
    serial_rate = None
    for backend in ("serial", "vectorized"):
        start = time.perf_counter()
        sweep = SweepRunner(spec, backend=backend).run()
        seconds = time.perf_counter() - start
        rate = sweep.total_env_steps / seconds
        if serial_rate is None:
            serial_rate = rate
        key = "autoscale_lockstep" if backend == "vectorized" else "autoscale_serial"
        rates[key] = rate
        curves[backend] = [tuple(result.curve.steps)
                           for result in sweep.results_for()]
        rows.append({
            "engine": f"SweepRunner backend={backend}",
            "env_steps": sweep.total_env_steps,
            "seconds": round(seconds, 3),
            "steps_per_sec": round(rate),
            "speedup": round(rate / serial_rate, 2),
        })
    identical = curves["serial"] == curves["vectorized"]
    return rows, rates, identical


def bench(args: argparse.Namespace) -> int:
    training = TrainingConfig(max_episodes=args.episodes,
                              solved_threshold=10_000.0,   # fixed workload: never early-stop
                              stop_when_solved=False)
    spec = SweepSpec(designs=tuple(args.design.split(",")), n_seeds=args.seeds,
                     n_hidden=args.hidden, training=training,
                     root_seed=args.root_seed)
    tasks = spec.tasks()

    print(f"workload: {args.seeds}-seed {args.design} (n_hidden={args.hidden}) x "
          f"{args.episodes} episodes on CartPole-v0\n")

    start = time.perf_counter()
    serial_steps = 0
    for task in tasks:
        result = Trainer().fit(task.make_agent(), config=task.training,
                               n_hidden=task.n_hidden)
        serial_steps += int(result.curve.steps.sum())
    serial_seconds = time.perf_counter() - start
    serial_rate = serial_steps / serial_seconds

    rows = [{
        "engine": "serial Trainer.fit loop",
        "env_steps": serial_steps,
        "seconds": round(serial_seconds, 3),
        "steps_per_sec": round(serial_rate),
        "speedup": 1.0,
    }]

    backends = (["vectorized", "distributed"] if args.smoke
                else ["vectorized", "distributed", "process"])
    backend_rates = {"serial": serial_rate}
    for backend in backends:
        start = time.perf_counter()
        kwargs = {"max_workers": args.workers} if backend == "distributed" else {}
        sweep = SweepRunner(spec, backend=backend, **kwargs).run()
        seconds = time.perf_counter() - start
        rate = sweep.total_env_steps / seconds
        backend_rates[backend] = rate
        rows.append({
            "engine": f"SweepRunner backend={backend}",
            "env_steps": sweep.total_env_steps,
            "seconds": round(seconds, 3),
            "steps_per_sec": round(rate),
            "speedup": round(rate / serial_rate, 2),
        })

    print(format_table(rows, title="Parallel rollout throughput"))

    autoscale_rows, autoscale_rates, autoscale_identical = \
        bench_autoscale_lockstep(episodes=4 if args.smoke else 10)
    backend_rates.update(autoscale_rates)
    print()
    print(format_table(autoscale_rows,
                       title="Autoscale-v0 (systems env): serial vs lock-step sweep"))
    print(f"Autoscale-v0 serial == lock-step curves (seeded): "
          f"{'OK' if autoscale_identical else 'MISMATCH'}")

    vectorized_rate = backend_rates["vectorized"]
    speedup = vectorized_rate / serial_rate
    target = 3.0
    if speedup >= target:
        print(f"vectorized speedup {speedup:.2f}x >= {target}x target")
    else:
        print(f"WARNING: vectorized speedup {speedup:.2f}x below the {target}x target "
              f"(machine-dependent; rerun without other load)")

    if args.json is not None:
        document = {
            "workload": {
                "design": args.design,
                "seeds": args.seeds,
                "n_hidden": args.hidden,
                "episodes": args.episodes,
                "smoke": bool(args.smoke),
            },
            "steps_per_sec": {name: round(rate, 1)
                              for name, rate in sorted(backend_rates.items())},
            "autoscale_lockstep": autoscale_rows,
            "autoscale_serial_vectorized_identical": autoscale_identical,
        }
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"json: {path}")
    return 0 if autoscale_identical else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small budget, finishes in seconds (CI smoke check)")
    parser.add_argument("--seeds", type=int, default=4, help="trials in the sweep")
    parser.add_argument("--design", default="OS-ELM-L2-Lipschitz",
                        help="design name for every trial, or a comma-separated "
                             "list for a mixed grid (e.g. OS-ELM-L2-Lipschitz,OS-ELM,DQN)")
    parser.add_argument("--hidden", type=int, default=32, help="hidden-layer size")
    parser.add_argument("--episodes", type=int, default=None,
                        help="episodes per trial (default 100 smoke / 300 full)")
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker processes for the distributed backend")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write all measured rates as a JSON document "
                             "(the CI BENCH_parallel.json artifact)")
    parser.add_argument("--root-seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if args.episodes is None:
        args.episodes = 100 if args.smoke else 300
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
