"""Serve a trained policy online, then hot-swap it mid-flight.

Demonstrates the ``repro.serving`` stack end to end in one process:

1. train an OS-ELM-L2 agent for a handful of episodes;
2. host it in a :class:`~repro.serving.PolicyServer` (a TCP daemon on the
   distributed backend's framing) and answer requests through a
   :class:`~repro.serving.PolicyClient` — served actions are asserted
   byte-identical to offline greedy evaluation, the subsystem's core
   contract;
3. train a *second* agent with a :class:`~repro.serving.WeightPushCallback`
   attached, which pushes the in-training weights into the live server
   every few episodes — the "learn online, serve online" loop — and assert
   the server ends up serving exactly the freshly trained policy;
4. read the server's ``STATS`` channel: request counters, batch occupancy,
   and p50/p90/p99 request latency.

Run with::

    PYTHONPATH=src python examples/serve_policy.py

Against a persistent artifact store the same loop is two shell commands::

    repro run figure4 --ci --save-policy --out artifacts
    repro serve figure4 --ci --store artifacts --bind 127.0.0.1:7272
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro import Trainer, TrainingConfig, make_design
from repro.serving import PolicyClient, PolicyServer, WeightPushCallback


def offline_greedy(agent, states):
    """The reference answers: each observation evaluated alone, offline."""
    return np.array([agent.act(state, explore=False) for state in states])


def main() -> None:
    config = TrainingConfig(max_episodes=10)

    # --- 1. train the policy to serve ------------------------------------
    agent = make_design("OS-ELM-L2", n_hidden=32, seed=7)
    result = Trainer().fit(agent, config=config)
    print(f"trained OS-ELM-L2: {result.episodes} episodes, "
          f"solved={result.solved}")

    # --- 2. serve it and verify byte-identity ----------------------------
    rng = np.random.default_rng(0)
    states = rng.uniform(-1.0, 1.0, size=(64, agent.config.n_states))
    # The server hosts a pickle round-tripped copy — exactly what loading
    # from `repro run --save-policy` artifacts produces.
    served_copy = pickle.loads(pickle.dumps(agent))
    with PolicyServer({"OS-ELM-L2": served_copy}, max_batch=8) as server:
        host, port = server.address
        print(f"serving at {host}:{port} (max_batch=8)")
        with PolicyClient(host, port) as client:
            served = client.act_many(states)   # pipelined: batches fill up
        reference = offline_greedy(agent, states)
        assert np.array_equal(served, reference), "served != offline greedy"
        print(f"{len(states)} served actions byte-identical to offline "
              f"greedy evaluation")

        # --- 3. hot-swap from a live training run ------------------------
        pusher = WeightPushCallback(f"{host}:{port}", every=3, strict=True)
        fresh = make_design("OS-ELM-L2", n_hidden=32, seed=99)
        Trainer(callbacks=[pusher]).fit(fresh, config=config)
        pusher.close()
        print(f"training pushed weights {pusher.pushes} times "
              f"(every 3 episodes + once at the end)")

        with PolicyClient(host, port) as client:
            swapped = client.act_many(states)
            stats = client.stats()
        assert np.array_equal(swapped, offline_greedy(fresh, states)), \
            "post-swap serving does not match the new agent"
        print("post-swap served actions match the freshly trained agent")

        # --- 4. observability --------------------------------------------
        entry = stats["designs"]["OS-ELM-L2"]
        latency = stats["metrics"]["histograms"][
            "serving.request_latency_seconds"]
        batches = stats["metrics"]["histograms"]["serving.batch_size"]
        assert entry["generation"] == pusher.pushes
        print(f"stats: generation={entry['generation']}, "
              f"requests={entry['requests']}, "
              f"mean_batch={batches['mean']:.2f}, "
              f"latency p50={latency['p50'] * 1e3:.2f}ms "
              f"p99={latency['p99'] * 1e3:.2f}ms")


if __name__ == "__main__":
    main()
