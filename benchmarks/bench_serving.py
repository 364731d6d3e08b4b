"""Benchmark: latency/throughput of the online policy-serving daemon.

Measures :class:`~repro.serving.PolicyServer` end to end over loopback TCP
on a trained OS-ELM policy:

1. **request/reply latency** — each client blocks on ``act()`` per
   observation, so every request pays the full round trip; reported as
   p50/p90/p99 across all clients, for every ``max_batch`` in {1, 8, 32} x
   client concurrency.  The server's one loop thread never waits for a
   batch to fill, so a batch holds only the requests one tick read, while
   at ``max_batch=1`` every request dispatches alone;
2. **pipelined throughput** — one client streams all its observations with
   ``act_many`` before reading any reply, so each tick reads many requests
   and batches actually fill; reported as requests/sec per ``max_batch``;
3. **byte-identity** — every served action is compared against the same
   observation evaluated offline with ``agent.act(state, explore=False)``;
   any mismatch fails the benchmark (exit 1), so the numbers can never come
   from a server that silently serves different actions.

Run directly (the suite's pytest collection ignores ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke

``--smoke`` keeps the whole run under half a minute; ``--json PATH`` dumps
every measured figure as one machine-readable document — the CI serving job
uploads it as the ``BENCH_serving.json`` artifact on every push, so the
serving-latency trajectory is tracked instead of lost in logs.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro import Trainer, TrainingConfig, make_design
from repro.serving import PolicyClient, PolicyServer
from repro.utils.tables import format_table

BATCH_SIZES = (1, 8, 32)


def _trained_policy(design: str, n_hidden: int, episodes: int, seed: int):
    agent = make_design(design, n_hidden=n_hidden, seed=seed)
    Trainer().fit(agent, config=TrainingConfig(max_episodes=episodes))
    return agent


def _probe_states(agent, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, agent.config.n_states))


def _offline_greedy(agent, states: np.ndarray) -> np.ndarray:
    return np.array([agent.act(state, explore=False) for state in states],
                    dtype=np.int64)


def _served_clone(agent):
    """What the daemon actually hosts: the agent after a pickle round trip."""
    return pickle.loads(pickle.dumps(agent, protocol=pickle.HIGHEST_PROTOCOL))


def bench_latency(agent, design: str, offline: np.ndarray, states: np.ndarray,
                  *, max_batch: int, clients: int) -> dict:
    """Per-request ``act()`` latency under ``clients`` concurrent clients."""
    latencies: list = []
    mismatches = [0]
    lock = threading.Lock()
    with PolicyServer({design: _served_clone(agent)},
                      max_batch=max_batch) as server:
        host, port = server.address

        def drive() -> None:
            local = []
            wrong = 0
            with PolicyClient(host, port) as client:
                for state, expected in zip(states, offline):
                    start = time.perf_counter()
                    action = client.act(state)
                    local.append(time.perf_counter() - start)
                    wrong += int(action != expected)
            with lock:
                latencies.extend(local)
                mismatches[0] += wrong

        threads = [threading.Thread(target=drive) for _ in range(clients)]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        batch_summary = server.stats_snapshot()["metrics"]["histograms"][
            "serving.batch_size"]
    samples = np.asarray(latencies) * 1e3
    return {
        "max_batch": max_batch,
        "clients": clients,
        "requests": len(samples),
        "p50_ms": round(float(np.percentile(samples, 50)), 3),
        "p90_ms": round(float(np.percentile(samples, 90)), 3),
        "p99_ms": round(float(np.percentile(samples, 99)), 3),
        "throughput_rps": round(len(samples) / wall, 1),
        "mean_batch": round(float(batch_summary["mean"]), 2),
        "mismatches": mismatches[0],
    }


def bench_pipelined(agent, design: str, offline: np.ndarray,
                    states: np.ndarray, *, max_batch: int, rounds: int) -> dict:
    """``act_many`` streaming throughput: batches actually fill up."""
    mismatches = 0
    with PolicyServer({design: _served_clone(agent)},
                      max_batch=max_batch) as server:
        with PolicyClient(*server.address) as client:
            start = time.perf_counter()
            for _ in range(rounds):
                served = client.act_many(states)
                mismatches += int(np.count_nonzero(served != offline))
            wall = time.perf_counter() - start
        batch_summary = server.stats_snapshot()["metrics"]["histograms"][
            "serving.batch_size"]
    requests = rounds * len(states)
    return {
        "max_batch": max_batch,
        "requests": requests,
        "throughput_rps": round(requests / wall, 1),
        "mean_batch": round(float(batch_summary["mean"]), 2),
        "mismatches": mismatches,
    }


def bench(args: argparse.Namespace) -> int:
    agent = _trained_policy(args.design, args.hidden, args.episodes,
                            args.root_seed)
    states = _probe_states(agent, args.requests, seed=args.root_seed)
    offline = _offline_greedy(agent, states)
    print(f"workload: {args.design} (n_hidden={args.hidden}, "
          f"{args.episodes} training episodes), {args.requests} observations "
          "per client\n")

    concurrency = (1, 4) if args.smoke else (1, 4, 8)
    latency_rows = [
        bench_latency(agent, args.design, offline, states,
                      max_batch=max_batch, clients=clients)
        for max_batch in BATCH_SIZES
        for clients in concurrency
    ]
    print(format_table(latency_rows,
                       title="Serving latency: blocking act() per request"))

    rounds = 2 if args.smoke else 8
    pipelined_rows = [
        bench_pipelined(agent, args.design, offline, states,
                        max_batch=max_batch, rounds=rounds)
        for max_batch in BATCH_SIZES
    ]
    print()
    print(format_table(pipelined_rows,
                       title="Serving throughput: pipelined act_many()"))

    total_mismatches = (sum(row["mismatches"] for row in latency_rows)
                        + sum(row["mismatches"] for row in pipelined_rows))
    identical = total_mismatches == 0
    print(f"\nserved actions == offline greedy evaluation: "
          f"{'OK' if identical else f'MISMATCH ({total_mismatches})'}")

    if args.json is not None:
        document = {
            "workload": {
                "design": args.design,
                "n_hidden": args.hidden,
                "episodes": args.episodes,
                "requests_per_client": args.requests,
                "smoke": bool(args.smoke),
            },
            "latency": latency_rows,
            "pipelined": pipelined_rows,
            "served_equals_offline": identical,
        }
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"json: {path}")
    return 0 if identical else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small budget, finishes in seconds (CI smoke check)")
    parser.add_argument("--design", default="OS-ELM-L2",
                        help="design to train and serve")
    parser.add_argument("--hidden", type=int, default=32,
                        help="hidden-layer size")
    parser.add_argument("--episodes", type=int, default=None,
                        help="training episodes (default 5 smoke / 50 full)")
    parser.add_argument("--requests", type=int, default=None,
                        help="observations per client (default 50 smoke / 200 full)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write every measured figure as a JSON "
                             "document (the CI BENCH_serving.json artifact)")
    parser.add_argument("--root-seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if args.episodes is None:
        args.episodes = 5 if args.smoke else 50
    if args.requests is None:
        args.requests = 50 if args.smoke else 200
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
