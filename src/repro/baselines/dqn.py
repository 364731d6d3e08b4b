"""The conventional DQN baseline (Section 2.4 / design 6 of Section 4.1).

A three-layer fully-connected network maps the state to one Q-value per
action.  Training uses:

* experience replay (uniform sampling from a large circular buffer),
* a fixed target network theta_2 synchronised with theta_1 every
  ``UPDATE_STEP`` episodes,
* the Huber loss (Equations 14–15) on the TD error,
* the Adam optimizer with learning rate 0.01,
* epsilon-greedy exploration with the same "greedy with probability
  epsilon_1 = 0.7" convention as the proposed designs, so the comparison in
  Figures 4 and 5 isolates the learning algorithm rather than the exploration
  schedule.

Operation labels follow Figure 5: ``predict_1`` (single-state forward passes
for action selection), ``predict_32`` (minibatch forward passes during
training) and ``train_DQN`` (backward pass + optimizer step).

The network is four plain functions over one flat parameter list
``[W0, b0, W1, b1, W2, b2]``: :func:`init_network`, :func:`forward`,
:func:`backward` and :func:`adam_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.replay_buffer import ReplayBuffer
from repro.core.agents import QLearningAgent
from repro.core.policies import EpsilonGreedyPolicy
from repro.linalg.spectral import lipschitz_constant_relu_network
from repro.utils.seeding import np_random
from repro.utils.validation import check_probability

#: Per-layer ``(input, pre-activation)`` pairs that :func:`backward` reads.
Cache = List[Tuple[np.ndarray, np.ndarray]]


def init_network(n_states: int, n_hidden: int, n_actions: int,
                 rng: np.random.Generator) -> List[np.ndarray]:
    """``[W0, b0, W1, b1, W2, b2]``: He-uniform weights, zero biases."""
    params: List[np.ndarray] = []
    for n_in, n_out in ((n_states, n_hidden), (n_hidden, n_hidden),
                        (n_hidden, n_actions)):
        limit = np.sqrt(6.0 / n_in)
        params += [rng.uniform(-limit, limit, size=(n_in, n_out)), np.zeros(n_out)]
    return params


def forward(params: List[np.ndarray], x: np.ndarray) -> Tuple[np.ndarray, Cache]:
    """Q-values for the rows of ``x`` (ReLU hidden layers, linear output),
    plus each layer's input and pre-activation for :func:`backward`."""
    cache: Cache = []
    out = x
    for i in range(0, len(params), 2):
        z = out @ params[i] + params[i + 1]
        cache.append((out, z))
        out = z if i == len(params) - 2 else np.maximum(z, 0.0)
    return out, cache


def backward(params: List[np.ndarray], cache: Cache,
             grad_out: np.ndarray) -> List[np.ndarray]:
    """Gradients in parameter order, given ``dL/d(output)``."""
    grads: List[np.ndarray] = [None] * len(params)
    grad = grad_out
    for layer in reversed(range(len(cache))):
        x, z = cache[layer]
        if layer < len(cache) - 1:
            grad = grad * (z > 0.0).astype(np.float64)
        grads[2 * layer] = x.T @ grad
        grads[2 * layer + 1] = grad.sum(axis=0)
        if layer:
            grad = grad @ params[2 * layer].T
    return grads


def adam_step(params: List[np.ndarray], grads: List[np.ndarray],
              m: List[np.ndarray], v: List[np.ndarray], t: int,
              learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> None:
    """Adam (Kingma & Ba, 2015): update ``params``, ``m`` and ``v`` in place
    for step ``t`` (counted from 1)."""
    for param, grad, m_i, v_i in zip(params, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * grad
        v_i *= beta2
        v_i += (1.0 - beta2) * grad * grad
        m_hat = m_i / (1.0 - beta1**t)
        v_hat = v_i / (1.0 - beta2**t)
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


@dataclass(frozen=True)
class DQNConfig:
    """Hyper-parameters of the DQN baseline (defaults follow Section 4.1)."""

    n_states: int
    n_actions: int
    n_hidden: int = 64                 #: width of both hidden layers
    gamma: float = 0.99
    greedy_probability: float = 0.7    #: epsilon_1, same convention as the proposed designs
    learning_rate: float = 0.01        #: Adam learning rate (Section 4.1)
    batch_size: int = 32               #: replay minibatch size (predict_32 in Figure 5)
    replay_capacity: int = 10_000
    min_replay_size: int = 64          #: transitions required before training starts
    target_update_interval: int = 2    #: UPDATE_STEP, in episodes
    train_interval: int = 1            #: environment steps between training steps
    clip_rewards: bool = False         #: DQN handles outliers via the Huber loss instead
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_states <= 0 or self.n_actions <= 0 or self.n_hidden <= 0:
            raise ValueError("n_states, n_actions and n_hidden must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        check_probability(self.greedy_probability, name="greedy_probability")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0 or self.replay_capacity <= 0:
            raise ValueError("batch_size and replay_capacity must be positive")
        if self.min_replay_size < self.batch_size:
            raise ValueError("min_replay_size must be at least batch_size")
        if self.target_update_interval <= 0 or self.train_interval <= 0:
            raise ValueError("target_update_interval and train_interval must be positive")


class DQNAgent(QLearningAgent):
    """Deep Q-Network agent: the network is ``params``, the target network
    ``target_params``, and ``adam_m`` / ``adam_v`` are Adam's moments."""

    name = "DQN"

    def __init__(self, config: DQNConfig) -> None:
        super().__init__()
        self.config = config
        self._rng, _ = np_random(config.seed)
        self._init_networks()
        self.replay = ReplayBuffer(config.replay_capacity, config.n_states, rng=self._rng)
        self.policy = EpsilonGreedyPolicy(config.greedy_probability, config.n_actions,
                                          rng=self._rng)
        self.train_steps = 0
        self.weight_resets = 0

    def _init_networks(self) -> None:
        cfg = self.config
        self.params = init_network(cfg.n_states, cfg.n_hidden, cfg.n_actions, self._rng)
        # The target network draws an init of its own and then copies the
        # online one; the dropped draw keeps every later replay sample and
        # epsilon-greedy choice on the same stream of the shared RNG.
        init_network(cfg.n_states, cfg.n_hidden, cfg.n_actions, self._rng)
        self.target_params = [p.copy() for p in self.params]
        self.adam_m = [np.zeros_like(p) for p in self.params]
        self.adam_v = [np.zeros_like(p) for p in self.params]

    # ------------------------------------------------------------------ acting
    def act(self, state: np.ndarray, *, explore: bool = True) -> int:
        q_values = self.q_values(state)
        self._count("predict_1")
        return self.policy.select(q_values, explore=explore)

    # ------------------------------------------------------------------ learning
    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        self.global_step += 1
        if self.config.clip_rewards:
            reward = float(np.clip(reward, -1.0, 1.0))
        self.replay.add(state, action, reward, next_state, done)
        if (len(self.replay) >= self.config.min_replay_size
                and self.global_step % self.config.train_interval == 0):
            self._train_step()

    def _train_step(self) -> None:
        cfg = self.config
        states, actions, rewards, next_states, dones = self.replay.sample(cfg.batch_size)

        next_q, _ = forward(self.target_params, next_states)
        current_q, cache = forward(self.params, states)
        self._count("predict_32", 2)

        targets = current_q.copy()
        bootstrap = rewards + cfg.gamma * (1.0 - dones.astype(float)) * next_q.max(axis=1)
        targets[np.arange(cfg.batch_size), actions] = bootstrap

        # Gradient of the mean Huber loss (Equations 14-15, delta = 1).
        grad = np.clip(current_q - targets, -1.0, 1.0) / current_q.size
        self.train_steps += 1
        adam_step(self.params, backward(self.params, cache, grad),
                  self.adam_m, self.adam_v, self.train_steps, cfg.learning_rate)
        self._count("train_DQN")

    def end_episode(self, episode_index: int) -> None:
        super().end_episode(episode_index)
        if self.episodes_completed % self.config.target_update_interval == 0:
            self.target_params = [p.copy() for p in self.params]

    # ------------------------------------------------------------------ misc interface parity
    def register_progress(self, solved: bool) -> None:
        """DQN does not use the stall-reset rule; present for interface parity."""

    def reset_weights(self) -> None:
        """Re-initialise both networks and Adam, and clear the replay buffer."""
        self._init_networks()
        self.replay.clear()
        self.global_step = 0
        self.train_steps = 0
        self.weight_resets += 1

    # ------------------------------------------------------------------ diagnostics
    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-values for every action of one state."""
        return forward(self.params, np.asarray(state, dtype=float).reshape(1, -1))[0][0]

    def lipschitz_upper_bound(self) -> float:
        """Product of layer spectral norms — comparable to the OS-ELM bound."""
        return lipschitz_constant_relu_network(self.params[0::2])
