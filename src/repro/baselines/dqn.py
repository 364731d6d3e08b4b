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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.replay_buffer import ReplayBuffer
from repro.core.agents import QLearningAgent
from repro.core.policies import EpsilonGreedyPolicy
from repro.nn.losses import HuberLoss
from repro.nn.network import MLP
from repro.nn.optimizers import Adam
from repro.utils.seeding import np_random
from repro.utils.validation import check_probability


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
    """Deep Q-Network agent on the :mod:`repro.nn` NumPy framework."""

    name = "DQN"

    def __init__(self, config: DQNConfig) -> None:
        super().__init__()
        self.config = config
        self._rng, _ = np_random(config.seed)
        hidden = [config.n_hidden, config.n_hidden]
        self.q_network = MLP(config.n_states, hidden, config.n_actions,
                             hidden_activation="relu", rng=self._rng)
        self.target_network = MLP(config.n_states, hidden, config.n_actions,
                                  hidden_activation="relu", rng=self._rng)
        self.target_network.set_parameters(self.q_network.get_parameters())
        self.optimizer = Adam(learning_rate=config.learning_rate)
        self.loss = HuberLoss(delta=1.0)
        self.replay = ReplayBuffer(config.replay_capacity, config.n_states, rng=self._rng)
        self.policy = EpsilonGreedyPolicy(config.greedy_probability, config.n_actions,
                                          rng=self._rng)
        self.train_steps = 0
        self.weight_resets = 0

    # ------------------------------------------------------------------ acting
    def act(self, state: np.ndarray, *, explore: bool = True) -> int:
        state = np.asarray(state, dtype=float).reshape(1, -1)
        q_values = self.q_network.predict(state)[0]
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

        next_q = self.target_network.predict(next_states)
        current_q = self.q_network.predict(states)
        self._count("predict_32", 2)

        targets = current_q.copy()
        bootstrap = rewards + cfg.gamma * (1.0 - dones.astype(float)) * next_q.max(axis=1)
        targets[np.arange(cfg.batch_size), actions] = bootstrap

        self.q_network.train_step(states, targets, self.loss, self.optimizer)
        self._count("train_DQN")
        self.train_steps += 1

    def end_episode(self, episode_index: int) -> None:
        super().end_episode(episode_index)
        if self.episodes_completed % self.config.target_update_interval == 0:
            self.target_network.set_parameters(self.q_network.get_parameters())

    # ------------------------------------------------------------------ misc interface parity
    def register_progress(self, solved: bool) -> None:
        """DQN does not use the stall-reset rule; present for interface parity."""

    def reset_weights(self) -> None:
        """Re-initialise both networks and clear the replay buffer."""
        cfg = self.config
        hidden = [cfg.n_hidden, cfg.n_hidden]
        self.q_network = MLP(cfg.n_states, hidden, cfg.n_actions,
                             hidden_activation="relu", rng=self._rng)
        self.target_network = MLP(cfg.n_states, hidden, cfg.n_actions,
                                  hidden_activation="relu", rng=self._rng)
        self.target_network.set_parameters(self.q_network.get_parameters())
        self.optimizer = Adam(learning_rate=cfg.learning_rate)
        self.replay.clear()
        self.global_step = 0
        self.train_steps = 0
        self.weight_resets += 1

    # ------------------------------------------------------------------ diagnostics
    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-values for every action (evaluation helper used by tests/examples)."""
        return self.q_network.predict(np.asarray(state, dtype=float).reshape(1, -1))[0]

    def lipschitz_upper_bound(self) -> float:
        """Product of layer spectral norms — comparable to the OS-ELM bound."""
        return self.q_network.lipschitz_upper_bound()
