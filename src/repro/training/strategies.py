"""Lock-step strategies: the per-step math of the Trainer's one step loop.

The Trainer owns episode semantics (criterion, records, solved/reset
handling, callbacks); a strategy owns how N trials' *agents* advance each
decision point.  Two implementations:

:class:`GenericLockstepStrategy`
    Drives any :class:`~repro.training.protocols.AgentProtocol` agent
    through its own per-agent ``act``/``observe`` hooks while the
    environment stepping is vectorized.  Because every trial's arithmetic
    is executed by the agent's own (scalar) code, one call per step in
    order, results replay the pinned per-step curves bit-for-bit for
    *every* design — including the DQN baseline, the FPGA fixed-point model and
    the unregularized OS-ELM variants whose chaotic P update rules the
    batched strategy out.
:class:`BatchedELMStrategy`
    The ELM/OS-ELM fast path: stacked hidden layers, one batched
    epsilon-greedy sweep and a batched Sherman-Morrison sequential update
    per step.  Requires the batch to share layer sizes
    and every agent to pass :func:`supports_lockstep`.

``resolve_strategy`` implements the Trainer's ``"auto"`` choice: batched
when the whole batch qualifies, generic otherwise.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.agents import ELMQAgent, _ELMFamilyAgent
from repro.core.elm import ELM
from repro.core.os_elm import OSELM


def supports_lockstep(agent: object) -> bool:
    """Whether an agent can join a *batched* lock-step batch.

    True for the ELM design and the L2-regularized OS-ELM designs.  False
    for DQN (different update rule), the FPGA design (fixed-point core with
    its own state), and the *unregularized* OS-ELM variants: without the
    ridge term the recursive inverse-Gram update is numerically chaotic, so
    the 1-ULP differences between batched and serial BLAS paths amplify
    into visibly different trajectories, breaking the serial-replay
    guarantee.  Unsupported designs still train lock-step through
    :class:`GenericLockstepStrategy` (per-agent math, vectorized stepping).
    """
    if not isinstance(agent, _ELMFamilyAgent) or type(agent.model) not in (ELM, OSELM):
        return False
    if isinstance(agent.model, OSELM) and agent.model.regularization.l2_delta <= 0:
        return False
    return True


def _batch_is_layer_compatible(agents: Sequence[Any]) -> bool:
    first = agents[0].config
    first_activation = agents[0].model.activation.name
    for agent in agents[1:]:
        cfg = agent.config
        if (cfg.input_size, cfg.n_hidden, cfg.n_actions, cfg.n_states) != (
                first.input_size, first.n_hidden, first.n_actions, first.n_states):
            return False
        if agent.model.activation.name != first_activation:
            return False
    return True


def resolve_strategy(strategy: Any, agents: Sequence[Any]) -> "LockstepStrategy":
    """Materialize the ``strategy=`` argument of ``Trainer.fit_lockstep``."""
    if not isinstance(strategy, str):
        return strategy
    if strategy == "auto":
        if all(supports_lockstep(agent) for agent in agents) \
                and _batch_is_layer_compatible(agents):
            return BatchedELMStrategy()
        return GenericLockstepStrategy()
    if strategy == "batched":
        return BatchedELMStrategy()
    if strategy == "generic":
        return GenericLockstepStrategy()
    raise ValueError(f"unknown strategy {strategy!r}; "
                     "use 'auto', 'batched', 'generic' or an instance")


class LockstepStrategy:
    """Interface the lock-step driver calls into (see module docstring)."""

    def bind(self, trials: List[Any], venv: Any) -> None:
        """Attach to a batch before training starts."""
        raise NotImplementedError

    def start(self, states: np.ndarray) -> None:
        """Initial observations are available (right after ``venv.reset``)."""

    def select_actions(self, states: np.ndarray, actions: np.ndarray,
                       active_indices: List[int]):
        """Fill ``actions`` (int64, one per sub-env) for the active trials.

        Returns the per-trial raw actions handed to ``observe`` — the
        object each agent's own ``act`` produced, so per-agent call
        semantics are preserved exactly.
        """
        raise NotImplementedError

    def post_env_step(self, step: Any) -> None:
        """The vector env advanced; next-state derived tensors go here."""

    def observe(self, i: int, state: np.ndarray, action: Any, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        """Trial ``i`` observed one transition (called in trial order)."""
        raise NotImplementedError

    def flush_updates(self, actions: np.ndarray) -> None:
        """All observes of this step are in; run any batched update phase."""

    def end_episode(self, i: int) -> None:
        """Trial ``i`` finished an episode (target syncs live here)."""
        raise NotImplementedError

    def prepare_record(self, i: int) -> None:
        """Make trial ``i``'s agent-side model current (lipschitz recording)."""

    def after_weight_reset(self, i: int) -> None:
        """The stall-reset rule re-initialised trial ``i``'s weights."""

    def sync_agent(self, i: int) -> None:
        """Write trial ``i``'s state and operation counts so far into its agent."""

    def end_step(self) -> None:
        """Bottom of the step loop (buffer rotation)."""

    def finalize(self) -> None:
        """Training over: flush state back to the agents, add their counts."""


class GenericLockstepStrategy(LockstepStrategy):
    """Per-agent hooks over a vectorized env: every protocol agent trains."""

    def bind(self, trials: List[Any], venv: Any) -> None:
        self.trials = trials
        self.raw_actions: List[Any] = [0] * len(trials)

    def select_actions(self, states: np.ndarray, actions: np.ndarray,
                       active_indices: List[int]):
        raw = self.raw_actions
        for i in active_indices:
            action = self.trials[i].agent.act(states[i])
            raw[i] = action
            actions[i] = action
        return raw

    def observe(self, i: int, state: np.ndarray, action: Any, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        self.trials[i].agent.observe(state, action, reward, next_state, done)

    def end_episode(self, i: int) -> None:
        trial = self.trials[i]
        trial.agent.end_episode(trial.episode)


class BatchedELMStrategy(LockstepStrategy):
    """Stacked-model fast path for ELM / L2-regularized OS-ELM batches.

    Each step performs one batched epsilon-greedy sweep (stacked
    ``(N, n_actions, n_in) @ (N, n_in, H)`` matmuls), and one batched
    OS-ELM sequential update (targets, Sherman-Morrison ``P`` update and
    ``beta`` update stacked over the agents whose random update gate fired).
    The RNG draw order per trial is exactly the agent's own ``act`` /
    ``observe`` order, so trials replay the per-agent hooks bit-for-bit.

    Operation counts: each trial's batched acts, bootstraps and sequential
    updates are tallied here and added to its agent's ``operation_counts``
    by :meth:`sync_agent` (at a checkpoint and in :meth:`finalize`), so the
    counts equal the per-agent hooks' exactly.
    """

    def bind(self, trials: List[Any], venv: Any) -> None:
        agents = [trial.agent for trial in trials]
        for agent in agents:
            if not supports_lockstep(agent):
                raise TypeError(
                    f"{type(agent).__name__} (model "
                    f"{type(getattr(agent, 'model', None)).__name__}) cannot join a "
                    "batched lock-step batch; use the generic strategy instead")
        if not _batch_is_layer_compatible(agents):
            raise ValueError(
                "all agents in a batched lock-step batch must share layer sizes "
                "and activation")
        obs_dim = int(np.prod(venv.single_observation_space.shape))
        shared = agents[0].config
        if obs_dim != shared.n_states:
            raise ValueError(
                f"env observations have {obs_dim} dims but agents expect "
                f"{shared.n_states}")

        self.trials = trials
        self.agents = agents
        n_trials = len(agents)
        n_in, n_hidden = shared.input_size, shared.n_hidden
        n_states, n_actions = shared.n_states, shared.n_actions
        self.n_states, self.n_actions, self.n_hidden = n_states, n_actions, n_hidden
        activation = agents[0].model.activation
        self.activation = activation

        # ---------------------------------------------------------- stacked model state
        self.alpha = np.stack([agent.model.alpha for agent in agents])   # (N, n_in, H)
        self.bias = np.stack([agent.model.bias for agent in agents])     # (N, H)
        self.beta = np.zeros((n_trials, n_hidden, 1))                    # (N, H, 1)
        self.p_stack = np.zeros((n_trials, n_hidden, n_hidden))          # (N, H, H)
        self.target_beta = np.zeros((n_trials, n_hidden, 1))             # (N, H, 1)
        self.has_beta = np.zeros(n_trials, dtype=bool)
        self.any_beta = False              #: event-maintained mirror of has_beta.any()

        self.gamma = np.array([agent.config.gamma for agent in agents])
        self.clip_targets = np.array([agent.config.clip_targets for agent in agents])
        self.clip_low = np.array([agent.config.clip_low for agent in agents])
        self.clip_high = np.array([agent.config.clip_high for agent in agents])

        # Network-input buffer for the batched action sweep: the action block
        # is constant, only the state slice changes each step.
        self.sweep_inputs = np.empty((n_trials, n_actions, n_in))
        if shared.one_hot_actions:
            self.sweep_inputs[:, :, n_states:] = np.eye(n_actions)
        else:
            self.sweep_inputs[:, :, n_states] = np.arange(n_actions, dtype=float)
        # The hidden tensor of each step is computed once and reused three
        # times (action sweep, target bootstrap, Sherman-Morrison input row);
        # two buffers ping-pong between "current" and "next" states.
        self.hidden_a = np.empty((n_trials, n_actions, n_hidden))
        self.hidden_b = np.empty((n_trials, n_actions, n_hidden))
        self.q_buf = np.empty((n_trials, n_actions, 1))
        self.q_zeros = np.zeros((n_trials, n_actions))
        self.relu = activation.name == "relu"
        self.uniform_clip = bool(self.clip_targets.all()) \
            and np.unique(self.clip_low).size == 1 \
            and np.unique(self.clip_high).size == 1
        self.clip_lo_scalar = float(self.clip_low[0])
        self.clip_hi_scalar = float(self.clip_high[0])

        # The per-step epsilon-greedy and update-gate decisions are inlined
        # from EpsilonGreedyPolicy.select / RandomUpdateGate.should_update:
        # same RNG objects, same draw order, so trials stay bit-identical to
        # the agents' own hooks while skipping per-call validation overhead.
        self.policies = [agent.policy for agent in agents]
        self.gates = [getattr(agent, "update_gate", None) for agent in agents]

        # ---------------------------------------------------------- per-trial extras
        #: Whether the trial has entered the batched sequential-update phase.
        self.seq_phase = [False] * n_trials
        #: ELM agents retrain in-place on every buffer refill; their observe
        #: path stays on the agent object and only acting is batched.
        self.delegate_observe = [isinstance(agent, ELMQAgent) for agent in agents]
        self.acts_init = [0] * n_trials
        self.acts_seq = [0] * n_trials
        #: Gated sequential updates (skipped ones too), each with its bootstrap.
        self.seq_updates = [0] * n_trials
        self.n_applied_updates = [0] * n_trials

        self.batched_updates: List[int] = []
        self.update_rewards: List[float] = []
        self.update_dones: List[bool] = []
        self.hidden_cur: Optional[np.ndarray] = None
        self.hidden_next: Optional[np.ndarray] = None
        self.spare: Optional[np.ndarray] = None

        # An agent that already trained (a second fit, or a resumed
        # checkpoint) acts on its model from the first step.
        for i, agent in enumerate(agents):
            if self.delegate_observe[i]:
                if agent.model.beta is not None:
                    self.beta[i] = agent.model.beta
                    self.has_beta[i] = True
                    self.any_beta = True
            elif agent.initial_training_done:
                self.seq_phase[i] = True
                self._sync_from_model(i)

    # ---------------------------------------------------------------- helpers
    def _compute_hidden(self, out: np.ndarray) -> np.ndarray:
        """Hidden layers of all trials for the states currently in sweep_inputs."""
        np.matmul(self.sweep_inputs, self.alpha, out=out)
        out += self.bias[:, None, :]
        if self.relu:
            np.maximum(out, 0.0, out=out)
        else:
            out[:] = self.activation.forward(out)
        return out

    def _sync_from_model(self, i: int) -> None:
        """Copy a trained model's (beta, P, theta_2, update count) into the stacks."""
        model = self.agents[i].model
        self.beta[i] = model.beta
        if isinstance(model, OSELM) and model._recursive is not None:
            self.p_stack[i] = model._recursive.p
            self.n_applied_updates[i] = model._recursive.updates
        if self.agents[i]._target_beta is not None:
            self.target_beta[i] = self.agents[i]._target_beta
        self.has_beta[i] = True
        self.any_beta = True

    def _flush_to_model(self, i: int) -> None:
        """Write the stacked (beta, P, theta_2) back into the trial's model."""
        if self.delegate_observe[i] or not self.seq_phase[i]:
            return
        model = self.agents[i].model
        model.beta = self.beta[i].copy()
        if isinstance(model, OSELM) and model._recursive is not None:
            model._recursive.beta = model.beta
            model._recursive.p = self.p_stack[i].copy()
            model._recursive.updates = self.n_applied_updates[i]
        self.agents[i]._target_beta = self.target_beta[i].copy()

    # ---------------------------------------------------------------- driver hooks
    def start(self, states: np.ndarray) -> None:
        self.sweep_inputs[:, :, :self.n_states] = states[:, None, :]
        self.hidden_cur = self._compute_hidden(self.hidden_a)
        self.spare = self.hidden_b

    def select_actions(self, states: np.ndarray, actions: np.ndarray,
                       active_indices: List[int]):
        if self.any_beta:
            q_matrix = np.matmul(self.hidden_cur, self.beta, out=self.q_buf)[:, :, 0]
        else:
            q_matrix = self.q_zeros
        n_actions = self.n_actions
        for i in active_indices:
            policy = self.policies[i]
            if policy._rng.random() >= policy.greedy_probability:
                policy.random_selections += 1
                actions[i] = policy._rng.integers(n_actions)
            else:
                policy.greedy_selections += 1
                row = q_matrix[i]
                if n_actions == 2:
                    actions[i] = 0 if row[0] >= row[1] else 1
                else:
                    actions[i] = np.argmax(row)
            if self.agents[i].initial_training_done:
                self.acts_seq[i] += 1
            else:
                self.acts_init[i] += 1
        return actions

    def post_env_step(self, step: Any) -> None:
        self.sweep_inputs[:, :, :self.n_states] = step.observations[:, None, :]
        self.hidden_next = self._compute_hidden(self.spare)

    def observe(self, i: int, state: np.ndarray, action: Any, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        agent = self.agents[i]
        if self.delegate_observe[i] or not self.seq_phase[i]:
            agent.observe(state, action, reward, next_state, done)
            if self.delegate_observe[i]:
                model_beta = agent.model.beta
                if model_beta is not None:
                    self.beta[i] = model_beta
                    self.has_beta[i] = True
                    self.any_beta = True
            elif agent.initial_training_done:
                self.seq_phase[i] = True
                self._sync_from_model(i)
        else:
            agent.global_step += 1
            gate = self.gates[i]
            if gate._rng.random() < gate.update_probability:
                gate.accepted += 1
                self.batched_updates.append(i)
                self.update_rewards.append(reward)
                self.update_dones.append(done)
            else:
                gate.rejected += 1

    def flush_updates(self, actions: np.ndarray) -> None:
        if not self.batched_updates:
            return
        batched_updates = self.batched_updates
        update_rewards = self.update_rewards
        update_dones = self.update_dones
        idx = np.asarray(batched_updates)
        n_actions, n_hidden = self.n_actions, self.n_hidden
        # Clipped targets bootstrapped from the stacked theta_2 snapshots.
        # Next-state hidden rows are the slices just computed for the next
        # action sweep, except for episode ends, whose bootstrap state is
        # the terminal observation rather than the auto-reset one.
        boot_hidden = np.empty((idx.size, n_actions, n_hidden))
        for pos, i in enumerate(batched_updates):
            if update_dones[pos]:
                # The target drops the bootstrap on terminal transitions
                # (q_learning_target's (1 - d_t) factor), so the terminal
                # state's hidden rows are never needed — zero-fill rather
                # than evaluate them.
                boot_hidden[pos] = 0.0
            else:
                boot_hidden[pos] = self.hidden_next[i]
        max_next = (boot_hidden @ self.target_beta[idx])[:, :, 0].max(axis=1)
        not_done = 1.0 - np.asarray(update_dones, dtype=float)
        targets = np.asarray(update_rewards) + self.gamma[idx] * not_done * max_next
        if self.uniform_clip:
            np.maximum(targets, self.clip_lo_scalar, out=targets)
            np.minimum(targets, self.clip_hi_scalar, out=targets)
        else:
            clip_mask = self.clip_targets[idx]
            targets[clip_mask] = np.clip(targets[clip_mask],
                                         self.clip_low[idx][clip_mask],
                                         self.clip_high[idx][clip_mask])
        # Sherman-Morrison rank-1 update of each gated trial's (P, beta),
        # in place through views of the stacks (copying P in and out via
        # fancy indexing would cost O(H^2) per update).  The input row is
        # the chosen-action slice of the hidden tensor the action sweep
        # already evaluated; the operation sequence per trial is exactly
        # the agent's RecursiveInverse.update, i.e. the _sherman_morrison /
        # _beta_update pair in repro.linalg.incremental.
        h = self.hidden_cur[idx, actions[idx]]                           # (U, H)
        for pos, i in enumerate(batched_updates):
            self.seq_updates[i] += 1
            h_row = h[pos]
            p_i = self.p_stack[i]
            ph = p_i @ h_row
            denom = 1.0 + float(h_row @ ph)
            if denom <= 0:
                # The agent's own path raises LinAlgError here and it
                # skips the update (plain OS-ELM's instability).
                self.agents[i].skipped_updates += 1
                continue
            np.subtract(p_i, np.outer(ph, ph) / denom, out=p_i)
            beta_col = self.beta[i, :, 0]
            residual = targets[pos] - float(h_row @ beta_col)
            beta_col += p_i @ (h_row * residual)
            self.n_applied_updates[i] += 1
        self.batched_updates = []
        self.update_rewards = []
        self.update_dones = []

    def end_episode(self, i: int) -> None:
        trial = self.trials[i]
        agent = self.agents[i]
        if self.seq_phase[i] and not self.delegate_observe[i]:
            agent.episodes_completed += 1
            if agent.episodes_completed % agent.config.target_update_interval == 0:
                self.target_beta[i] = self.beta[i]
        else:
            agent.end_episode(trial.episode)

    def prepare_record(self, i: int) -> None:
        self._flush_to_model(i)

    def after_weight_reset(self, i: int) -> None:
        """Mirror a stall-triggered weight reset (fresh alpha, cleared state)."""
        model = self.agents[i].model
        self.alpha[i] = model.alpha
        self.bias[i] = model.bias
        self.beta[i] = 0.0
        self.p_stack[i] = 0.0
        self.target_beta[i] = 0.0
        self.has_beta[i] = False
        self.any_beta = bool(self.has_beta.any())
        self.seq_phase[i] = False
        self.n_applied_updates[i] = 0
        # The trial's alpha changed, so its next-step hidden rows (already
        # computed with the old weights) must be redone.
        pre = self.sweep_inputs[i] @ self.alpha[i] + self.bias[i]
        self.hidden_next[i] = (np.maximum(pre, 0.0) if self.relu
                               else self.activation.forward(pre))

    def end_step(self) -> None:
        self.hidden_cur, self.spare = self.hidden_next, self.hidden_cur

    def sync_agent(self, i: int) -> None:
        self._flush_to_model(i)
        agent, n_actions = self.agents[i], self.n_actions
        if self.acts_init[i]:
            agent._count("predict_init", self.acts_init[i] * n_actions)
        if self.acts_seq[i]:
            agent._count("predict_seq", self.acts_seq[i] * n_actions)
        if self.seq_updates[i]:
            agent._count("predict_seq", self.seq_updates[i] * n_actions)
            agent._count("seq_train", self.seq_updates[i])
        self.acts_init[i] = self.acts_seq[i] = self.seq_updates[i] = 0

    def finalize(self) -> None:
        for i in range(len(self.agents)):
            self.sync_agent(i)


__all__ = [
    "BatchedELMStrategy", "GenericLockstepStrategy", "LockstepStrategy",
    "resolve_strategy", "supports_lockstep",
]
