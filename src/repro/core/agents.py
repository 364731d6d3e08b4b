"""ELM and OS-ELM Q-Network agents (Algorithm 1).

Both agents follow the paper's four-state loop:

* **Determine** — epsilon-greedy over the simplified Q-function (greedy with
  probability ``epsilon_1``).
* **Observe** — the environment transition is received from the runner.
* **Store** — the transition is appended to the small buffer ``D`` (capacity
  ``N-tilde``).
* **Update** — once ``global_step >= N-tilde``:

  * when the buffer holds exactly ``N-tilde`` transitions, the *initial
    training* is performed on the whole buffer with clipped targets computed
    from the fixed target network theta_2 (lines 17–19);
  * afterwards (OS-ELM only) each step triggers, with probability
    ``epsilon_2``, one batch-size-1 *sequential training* step on the current
    transition (lines 20–22, the random update of Section 3.2);
  * theta_2 is re-synchronised with theta_1 every ``UPDATE_STEP`` episodes
    (lines 23–24).

Every operation is counted under the paper's Figure 5/6 labels
(``predict_init``, ``predict_seq``, ``init_train``, ``seq_train``) in
``operation_counts``; the execution-time reports project those counts
through the PYNQ-Z1 latency models (:mod:`repro.fpga.platform`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.core.clipping import q_learning_target
from repro.core.elm import ELM
from repro.core.os_elm import OSELM
from repro.core.policies import EpsilonGreedyPolicy, RandomUpdateGate
from repro.core.qfunction import QFunction, state_action_input_size
from repro.core.regularization import RegularizationConfig
from repro.core.replay import InitialTrainingBuffer, Transition
from repro.utils.seeding import np_random
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class AgentConfig:
    """Hyper-parameters shared by the ELM / OS-ELM Q-Network agents.

    Defaults follow Section 4.1: ``epsilon_1 = 0.7``, ``epsilon_2 = 0.5``,
    ``UPDATE_STEP = 2``, ReLU activation; the regularization deltas are set
    per design by :mod:`repro.core.designs`.
    """

    n_states: int
    n_actions: int
    n_hidden: int = 64
    gamma: float = 0.99
    greedy_probability: float = 0.7       #: epsilon_1 — probability of the greedy action
    update_probability: float = 0.5       #: epsilon_2 — probability of a sequential update
    target_update_interval: int = 2       #: UPDATE_STEP — episodes between theta_2 syncs
    clip_targets: bool = True
    clip_low: float = -1.0
    clip_high: float = 1.0
    activation: str = "relu"
    regularization: RegularizationConfig = field(default_factory=RegularizationConfig)
    one_hot_actions: bool = False
    reset_after_episodes: Optional[int] = 300   #: reset rule of Section 4.3 (None disables)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_states <= 0 or self.n_actions <= 0 or self.n_hidden <= 0:
            raise ValueError("n_states, n_actions and n_hidden must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        check_probability(self.greedy_probability, name="greedy_probability")
        check_probability(self.update_probability, name="update_probability")
        if self.target_update_interval <= 0:
            raise ValueError("target_update_interval must be positive")
        if self.clip_low > self.clip_high:
            raise ValueError("clip_low must be <= clip_high")
        if self.reset_after_episodes is not None and self.reset_after_episodes <= 0:
            raise ValueError("reset_after_episodes must be positive or None")

    @property
    def input_size(self) -> int:
        """Input size of the simplified output model (5 for CartPole)."""
        return state_action_input_size(self.n_states, self.n_actions,
                                       one_hot=self.one_hot_actions)

    def with_updates(self, **changes) -> "AgentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


class QLearningAgent:
    """Common interface shared by the ELM/OS-ELM agents and the DQN baseline.

    The training runner drives agents exclusively through this interface:
    ``begin_episode`` / ``act`` / ``observe`` / ``end_episode`` plus the
    weight-reset hook used by the paper's stall-reset rule.
    """

    #: Display name used in experiment tables (overridden per design).
    name: str = "agent"

    def __init__(self) -> None:
        #: Invocations per Figure 5/6 operation label.
        self.operation_counts: Dict[str, int] = {}
        self.global_step = 0
        self.episodes_completed = 0

    # -- hooks ---------------------------------------------------------------
    def begin_episode(self, episode_index: int) -> None:
        """Called by the runner before each episode starts."""

    def act(self, state: np.ndarray, *, explore: bool = True) -> int:
        raise NotImplementedError

    def act_batch(self, states: np.ndarray, *, explore: bool = True) -> np.ndarray:
        """Choose one action per row of a ``(B, n_states)`` batch.

        The base implementation falls back to per-state :meth:`act` calls;
        agents with a batchable Q-function override it with a single forward
        pass (the path the vectorized rollout engine uses).
        """
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states.reshape(1, -1)
        return np.array([self.act(state, explore=explore) for state in states],
                        dtype=np.int64)

    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        raise NotImplementedError

    def end_episode(self, episode_index: int) -> None:
        """Called by the runner after each episode finishes."""
        self.episodes_completed += 1

    def reset_weights(self) -> None:
        """Re-initialise all trainable state (the paper's 300-episode reset rule)."""
        raise NotImplementedError

    # -- bookkeeping -----------------------------------------------------------
    def _count(self, operation: str, count: int = 1) -> None:
        self.operation_counts[operation] = self.operation_counts.get(operation, 0) + count


class _ELMFamilyAgent(QLearningAgent):
    """Shared machinery for the ELM and OS-ELM Q-Network agents."""

    model_class = ELM

    def __init__(self, config: AgentConfig, *, model: Optional[ELM] = None) -> None:
        super().__init__()
        self.config = config
        self._rng, _ = np_random(config.seed)
        if model is None:
            model = self.model_class(
                config.input_size, config.n_hidden, 1,
                activation=config.activation,
                regularization=config.regularization,
                rng=self._rng,
            )
        self.model = model
        self.q_online = QFunction(self.model, config.n_states, config.n_actions,
                                  one_hot_actions=config.one_hot_actions)
        # theta_2: only beta differs from theta_1 (alpha and the bias are shared),
        # so the target network is represented by a snapshot of beta.
        self._target_beta: Optional[np.ndarray] = None
        self.policy = EpsilonGreedyPolicy(config.greedy_probability, config.n_actions,
                                          rng=self._rng)
        self.buffer = InitialTrainingBuffer(config.n_hidden)
        self.initial_training_done = False
        self._episodes_since_progress = 0
        self.weight_resets = 0

    # ------------------------------------------------------------------ target network
    def _sync_target(self) -> None:
        """theta_2 <- theta_1 (Algorithm 1 lines 23–24)."""
        if self.model.beta is not None:
            self._target_beta = self.model.beta.copy()

    def _target_max_q(self, state: np.ndarray) -> float:
        """``max_a Q_theta2(state, a)`` using the target beta snapshot."""
        if self._target_beta is None:
            return 0.0
        rows = self.q_online.encode_all_actions(self.q_online.check_states(state))[0]
        return float(np.max(self.model._hidden_rows(rows) @ self._target_beta))

    # ------------------------------------------------------------------ acting
    def act(self, state: np.ndarray, *, explore: bool = True) -> int:
        q_values = self.q_online.q_values(state)
        self._count("predict_seq" if self.initial_training_done else "predict_init",
                    self.config.n_actions)
        return self.policy.select(q_values, explore=explore)

    def act_batch(self, states: np.ndarray, *, explore: bool = True) -> np.ndarray:
        """Epsilon-greedy actions for a batch of states in one forward pass.

        All ``B * n_actions`` Q-values come out of a single matrix multiply
        (the batched :meth:`QFunction.q_values` path) instead of ``B``
        separate network evaluations.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states.reshape(1, -1)
        q_matrix = self.q_online.q_values(states)
        self._count("predict_seq" if self.initial_training_done else "predict_init",
                    states.shape[0] * self.config.n_actions)
        return self.policy.select_batch(q_matrix, explore=explore)

    # ------------------------------------------------------------------ training helpers
    def _compute_targets(self, rewards: np.ndarray, dones: np.ndarray,
                         next_states: np.ndarray) -> np.ndarray:
        """Clipped one-step targets for a batch, using the theta_2 bootstrap."""
        targets = np.empty(rewards.shape[0])
        for i in range(rewards.shape[0]):
            max_next = self._target_max_q(next_states[i])
            targets[i] = q_learning_target(
                rewards[i], bool(dones[i]), max_next,
                gamma=self.config.gamma, clip=self.config.clip_targets,
                clip_low=self.config.clip_low, clip_high=self.config.clip_high,
            )
        self._count("predict_seq" if self.initial_training_done else "predict_init",
                    rewards.shape[0] * self.config.n_actions)
        return targets

    def _initial_training(self) -> None:
        """Lines 17–19: one-shot training on the full buffer with clipped targets."""
        states, actions, rewards, next_states, dones = self.buffer.as_batches()
        targets = self._compute_targets(rewards, dones, next_states)
        self.q_online.fit_batch(states, actions, targets)
        self._count("init_train")
        self.initial_training_done = True
        if self._target_beta is None:
            self._sync_target()

    # ------------------------------------------------------------------ reset rule
    def end_episode(self, episode_index: int) -> None:
        super().end_episode(episode_index)
        if self.episodes_completed % self.config.target_update_interval == 0:
            self._sync_target()

    def register_progress(self, solved: bool) -> None:
        """Inform the agent whether the run has completed the task (for the reset rule)."""
        if solved:
            self._episodes_since_progress = 0
            return
        self._episodes_since_progress += 1
        limit = self.config.reset_after_episodes
        if limit is not None and self._episodes_since_progress >= limit:
            self.reset_weights()
            self._episodes_since_progress = 0

    def reset_weights(self) -> None:
        self.model.reset(self._rng)
        self._target_beta = None
        self.buffer.clear()
        self.initial_training_done = False
        self.global_step = 0
        self.weight_resets += 1

    # ------------------------------------------------------------------ diagnostics
    def lipschitz_upper_bound(self) -> float:
        """Current bound on the Q-network's Lipschitz constant."""
        return self.model.lipschitz_upper_bound()

    def beta_norm(self) -> float:
        return self.model.beta_frobenius_norm()


class ELMQAgent(_ELMFamilyAgent):
    """ELM Q-Network (design 1): batch training only.

    The model is (re)trained from scratch each time the buffer fills with
    ``N-tilde`` fresh transitions; there is no sequential update and no
    random-update gate.  After each batch fit the target network is
    synchronised so subsequent targets use the newly fitted weights (the
    episode-interval sync of lines 23–24 is specific to OS-ELM).
    """

    model_class = ELM
    name = "ELM"

    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        self.global_step += 1
        self.buffer.store(state, action, reward, next_state, done)
        if self.global_step >= self.config.n_hidden and self.buffer.full:
            self._initial_training()
            self._sync_target()
            self.buffer.clear()


class OSELMQAgent(_ELMFamilyAgent):
    """OS-ELM Q-Network (designs 2–5 and the FPGA design's algorithmic core).

    The first full buffer triggers the initial training (Equation 7/8); every
    later step performs, with probability ``epsilon_2``, a batch-size-1
    sequential update (Equations 5–6) on the current transition with a
    clipped target bootstrapped from theta_2.
    """

    model_class = OSELM
    name = "OS-ELM"

    def __init__(self, config: AgentConfig, *, model: Optional[OSELM] = None) -> None:
        super().__init__(config, model=model)
        self.update_gate = RandomUpdateGate(config.update_probability, rng=self._rng)
        #: Sequential updates skipped because the P update lost positive definiteness.
        #: Plain OS-ELM (no L2 regularization) is prone to this — it is the numerical
        #: face of the instability the paper reports for the unregularized design.
        self.skipped_updates = 0

    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        self.global_step += 1
        if not self.initial_training_done:
            self.buffer.store(state, action, reward, next_state, done)
            if self.global_step >= self.config.n_hidden and self.buffer.full:
                self._initial_training()
            return
        if not self.update_gate.should_update():
            return
        # Sequential update on the current transition (lines 20–22).
        max_next = self._predict_target_bootstrap(next_state)
        target = q_learning_target(
            reward, done, max_next,
            gamma=self.config.gamma, clip=self.config.clip_targets,
            clip_low=self.config.clip_low, clip_high=self.config.clip_high,
        )
        try:
            self.q_online.update(state, action, target)
        except np.linalg.LinAlgError:
            # The inverse-Gram state P became indefinite (possible without the
            # L2 term when the initial Gram matrix is near-singular).  The real
            # device would keep running with a corrupted P; we skip the update
            # and count the event so experiments can report the instability.
            self.skipped_updates += 1
        self._count("seq_train")

    def _predict_target_bootstrap(self, next_state: np.ndarray) -> float:
        max_next = self._target_max_q(next_state)
        self._count("predict_seq", self.config.n_actions)
        return max_next

    def reset_weights(self) -> None:
        super().reset_weights()
        # A fresh OS-ELM also discards its recursive (P, beta) state, which
        # ``ELM.reset`` already cleared via ``OSELM.reset``; nothing extra to do,
        # but keep the update-gate statistics meaningful across resets.
        self.update_gate.reset_counters()


__all__ = ["AgentConfig", "QLearningAgent", "ELMQAgent", "OSELMQAgent", "Transition"]
