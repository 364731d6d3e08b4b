"""Vectorized greedy rollouts: evaluate one agent over N envs at once.

The serial :func:`repro.training.evaluate_agent` plays evaluation episodes
one at a time.  ``evaluate_agent_vectorized`` drives a
:class:`~repro.parallel.vector_env.VectorEnv` with the agent's batched
action path (:meth:`~repro.core.agents.QLearningAgent.act_batch`): each
iteration selects actions for all N in-flight episodes with one forward
pass, so the Q-network cost per environment step drops by ~N.

Each sub-env is assigned a fixed quota of ``n_episodes / num_envs``
episodes up front and contributes exactly its first ``quota`` episodes —
crediting episodes in completion order instead would oversample short
episodes (fast envs finish more of them while a long episode is still in
flight) and bias the statistic low.  With a seed, the batch's initial
states derive from ``spawn_seeds`` via the vector env, so results are
reproducible for a fixed ``(seed, num_envs)`` (they intentionally differ
from the serial evaluator's episode stream).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.agents import QLearningAgent
from repro.parallel.vector_env import VectorEnv, make_vector


def evaluate_agent_vectorized(agent: QLearningAgent,
                              env: Union[str, VectorEnv] = "CartPole-v0", *,
                              n_episodes: int = 10, num_envs: int = 4,
                              seed: Optional[int] = None,
                              max_steps: int = 100_000) -> np.ndarray:
    """Greedy evaluation over a vector env; returns ``n_episodes`` lengths.

    Parameters
    ----------
    agent:
        Any agent; ones overriding ``act_batch`` (the ELM family) evaluate
        the whole batch in one forward pass per step.
    env:
        Registered env id (a :class:`SyncVectorEnv` of ``num_envs`` copies
        is built) or an existing vector env.
    n_episodes:
        How many finished episodes to credit.
    num_envs:
        Batch width when ``env`` is an id.
    seed:
        Root seed for the batch's reset streams.
    max_steps:
        Safety valve on total vector steps (guards against a policy that
        never terminates in an env without a time limit).
    """
    if n_episodes <= 0:
        raise ValueError("n_episodes must be positive")
    venv = make_vector(env, num_envs, seed=seed) if isinstance(env, str) else env
    owns_env = isinstance(env, str)
    try:
        observations, _ = venv.reset(seed=seed if not owns_env else None)
        quotas = np.full(venv.num_envs, n_episodes // venv.num_envs, dtype=int)
        quotas[:n_episodes % venv.num_envs] += 1
        collected: list = [[] for _ in range(venv.num_envs)]
        in_flight = np.zeros(venv.num_envs, dtype=int)
        remaining = n_episodes
        for _ in range(max_steps):
            actions = agent.act_batch(observations, explore=False)
            step = venv.step(actions)
            in_flight += 1
            for i in np.flatnonzero(step.dones):
                if len(collected[i]) < quotas[i]:
                    collected[i].append(int(in_flight[i]))
                    remaining -= 1
                in_flight[i] = 0
            observations = step.observations
            if remaining <= 0:
                break
        else:  # pragma: no cover - policy never terminated
            raise RuntimeError(f"evaluation exceeded {max_steps} vector steps")
        return np.asarray([length for env_lengths in collected
                           for length in env_lengths], dtype=int)
    finally:
        if owns_env:
            venv.close()
