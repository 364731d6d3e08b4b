"""The one canonical training loop behind every design in the paper.

``Trainer`` drives Algorithm 1's outer loops (episodes x steps) for any
agent implementing :class:`~repro.training.protocols.AgentProtocol`, with:

* optional reward shaping so the clipped targets stay in [-1, 1],
* the 100-episode moving-average solved criterion,
* the 300-episode stall-reset rule (via ``register_progress``),
* the 50,000-episode "impossible" cutoff,
* a typed :class:`~repro.training.callbacks.Callback` lifecycle
  (progress streaming, metric recording, mid-trial checkpointing),
* ``action_repeat`` frame skip, one
  :class:`~repro.envs.wrappers.ActionRepeat` around each trial's env.

One step loop runs every trial: N independent trials advance in lock-step
through one :class:`~repro.parallel.vector_env.SyncVectorEnv`, and a
:mod:`~repro.training.strategies` object does the per-step math — the
batched ELM/OS-ELM strategy (stacked matmuls + batched Sherman-Morrison) or
the generic strategy that drives *any* protocol agent, DQN and the FPGA
fixed-point design included.  Two entry points feed it:

:meth:`Trainer.fit`
    One agent: a one-trial batch with the ``"auto"`` strategy, on a caller's
    :class:`~repro.envs.core.Env` instance or one built from the config.
:meth:`Trainer.fit_lockstep`
    N trials that share an ``env_id``.  A trial's curve and operation counts
    do not depend on the batch it trains in.

A :class:`~repro.training.callbacks.CheckpointCallback` makes a one-trial
batch resumable mid-trial; with more trials it raises.

The independent reference is the pinned curves and operation counts in
``tests/data`` (``pinned_curves.json``, made by the hand-rolled loops before
the Trainer, and ``pinned_training.json``, made by the per-step serial loop
before ``fit`` became a one-trial batch).

Every per-episode decision — criterion update, record construction, solved
handling, the stall-reset rule, callback firing — lives in exactly one
place (:meth:`Trainer._finish_episode`).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.core.clipping import shaped_cartpole_reward
from repro.envs.core import Env
from repro.envs.registry import make as make_env
from repro.envs.wrappers import ActionRepeat
from repro.training.callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    MetricsRecorder,
    StepEvent,
)
from repro.telemetry.tracing import span
from repro.training.config import TrainingConfig
from repro.training.records import EpisodeRecord, TrainingCurve, TrainingResult
from repro.utils.logging import get_logger
from repro.utils.metrics import SolvedCriterion
from repro.utils.seeding import spawn_seeds

_LOGGER = get_logger("repro.training.trainer")

#: Format tag inside pickled mid-trial checkpoints (bumped on layout change).
#: Version 2 pickles the env after its auto-reset, plus the observation it
#: drew; a version-1 blob reads as "no checkpoint".
CHECKPOINT_STATE_VERSION = 2


class TrialState:
    """Canonical per-trial bookkeeping of the step loop."""

    __slots__ = ("index", "agent", "config", "criterion", "episode", "steps",
                 "shaped_return", "active", "solved", "episodes_to_solve")

    def __init__(self, index: int, agent: Any, config: TrainingConfig) -> None:
        self.index = index
        self.agent = agent
        self.config = config
        self.criterion = SolvedCriterion(config.solved_threshold,
                                         config.solved_window,
                                         config.max_episodes)
        self.episode = 1
        self.steps = 0
        self.shaped_return = 0.0
        self.active = True
        self.solved = False
        self.episodes_to_solve: Optional[int] = None


@dataclass
class TrainingRun:
    """What ``on_train_start`` / ``on_train_end`` see: the whole fit call."""

    mode: str                               #: "serial" (fit) or "lockstep" (fit_lockstep)
    trials: List[TrialState] = field(default_factory=list)
    strategy: Optional[str] = None          #: lock-step strategy name
    resumed: bool = False                   #: fit restored a mid-trial checkpoint


def resolve_env(env: Union[str, Env, None], config: TrainingConfig) -> Env:
    """Build (or pass through) the scalar env one trial runs in."""
    if env is None:
        env = config.env_id
    if isinstance(env, str):
        kwargs = dict(config.env_params)
        if config.max_steps_per_episode is not None:
            kwargs["max_episode_steps"] = config.max_steps_per_episode
        return make_env(env, seed=config.seed, **kwargs)
    return env


def _frame_skip(env: Env, config: TrainingConfig) -> Env:
    """``env`` under ``ActionRepeat(env, config.action_repeat)`` if k > 1.

    At k = 1 the env stays bare: the vector env's batched fast paths check
    ``type(env)``.
    """
    if config.action_repeat > 1:
        return ActionRepeat(env, config.action_repeat)
    return env


def evaluate_agent(agent: Any, env: Union[str, Env, None] = None, *,
                   n_episodes: int = 10, config: TrainingConfig = TrainingConfig()
                   ) -> np.ndarray:
    """Run greedy (no-exploration) evaluation episodes and return their lengths.

    When ``config.seed`` is set, each episode's initial state is drawn from
    its own :func:`~repro.utils.seeding.spawn_seeds`-derived seed, so the
    evaluation suite is reproducible episode-by-episode and independent of
    how much entropy training consumed from the environment's stream.
    """
    if n_episodes <= 0:
        raise ValueError("n_episodes must be positive")
    environment = resolve_env(env, config)
    episode_seeds = (spawn_seeds(config.seed, n_episodes) if config.seed is not None
                     else [None] * n_episodes)
    lengths = np.zeros(n_episodes, dtype=int)
    for i in range(n_episodes):
        state, _ = environment.reset(seed=episode_seeds[i])
        steps = 0
        done = False
        while not done:
            action = agent.act(state, explore=False)
            result = environment.step(action)
            state = result.observation
            steps += 1
            done = result.done
        lengths[i] = steps
    return lengths


class Trainer:
    """Drive the canonical episode/step loop over one or many trials.

    Parameters
    ----------
    callbacks:
        :class:`~repro.training.callbacks.Callback` instances observing the
        run.  A :class:`MetricsRecorder` is appended automatically when none
        is present (the trainer needs the curves it collects); a
        :class:`CheckpointCallback` additionally enables mid-trial
        checkpoint/resume of a one-trial batch.
    """

    def __init__(self, *, callbacks: Sequence[Callback] = ()) -> None:
        self.callbacks = CallbackList(callbacks)
        recorder = self.callbacks.first_of(MetricsRecorder)
        if recorder is None:
            recorder = MetricsRecorder()
            self.callbacks.callbacks.append(recorder)
        self.recorder: MetricsRecorder = recorder

    # ------------------------------------------------------------------ shared episode semantics
    def _shaped_reward(self, trial: TrialState, terminated: bool,
                       truncated: bool, raw_reward: float) -> float:
        if trial.config.reward_shaping:
            return shaped_cartpole_reward(terminated, truncated, trial.steps,
                                          success_steps=trial.config.success_steps)
        return float(raw_reward)

    def _finish_episode(self, trial: TrialState, *,
                        prepare_record=None) -> tuple:
        """Criterion update + record + solved/reset handling for one episode.

        Returns ``(now_solved, stop, reset_occurred)``: whether the solved
        criterion fired this episode, whether the trial should stop, and
        whether the stall-reset rule re-initialised the agent's weights.
        """
        agent = trial.agent
        config = trial.config
        now_solved = trial.criterion.update(trial.steps)
        record = EpisodeRecord(
            episode=trial.episode,
            steps=trial.steps,
            shaped_return=trial.shaped_return,
            moving_average=trial.criterion.average,
        )
        if config.record_lipschitz and hasattr(agent, "lipschitz_upper_bound"):
            if prepare_record is not None:
                prepare_record(trial.index)
            record.lipschitz_bound = agent.lipschitz_upper_bound()
            if hasattr(agent, "beta_norm"):
                record.beta_norm = agent.beta_norm()
        self.callbacks.episode_end(trial, record)

        stop = False
        if now_solved and trial.episodes_to_solve is None:
            trial.episodes_to_solve = trial.episode
            trial.solved = True
            _LOGGER.info("task solved", design=getattr(agent, "name", "agent"),
                         episode=trial.episode)
            if config.stop_when_solved:
                return now_solved, True, False
        reset_occurred = False
        if hasattr(agent, "register_progress"):
            resets_before = getattr(agent, "weight_resets", 0)
            agent.register_progress(now_solved)
            reset_occurred = getattr(agent, "weight_resets", 0) != resets_before
        if trial.episode >= config.max_episodes:
            stop = True
        return now_solved, stop, reset_occurred

    def _result(self, trial: TrialState, n_hidden: int,
                wall_time: float) -> TrainingResult:
        agent = trial.agent
        curve = self.recorder.curve(trial.index)
        return TrainingResult(
            design=getattr(agent, "name", "agent"),
            n_hidden=int(n_hidden),
            solved=trial.solved,
            episodes=len(curve),
            episodes_to_solve=trial.episodes_to_solve,
            wall_time_seconds=wall_time,
            curve=curve,
            operation_counts=agent.operation_counts,
            weight_resets=getattr(agent, "weight_resets", 0),
            seed=trial.config.seed,
        )

    # ------------------------------------------------------------------ entry points
    def fit(self, agent: Any, env: Union[str, Env, None] = None, *,
            config: TrainingConfig = TrainingConfig(),
            n_hidden: Optional[int] = None) -> TrainingResult:
        """Train one agent until solved or the episode budget is exhausted.

        The agent trains as a one-trial lock-step batch with the ``"auto"``
        strategy, so its curve and operation counts are those of the same
        trial inside any :meth:`fit_lockstep` batch.

        Parameters
        ----------
        agent:
            Any :class:`~repro.training.protocols.AgentProtocol` agent.
        env:
            Environment instance, registered id, or ``None`` to build
            ``config.env_id``.  An instance is stepped in place (frame skip
            wraps it), and like every sub-env of a vector env it is reset
            again after the final episode.
        config:
            Protocol parameters.
        n_hidden:
            Recorded in the result for reporting; inferred from the agent's
            config when omitted.
        """
        if n_hidden is None:
            n_hidden = _n_hidden(agent)
        return self._fit([agent], [config], "auto", mode="serial",
                         envs=[resolve_env(env, config)], n_hidden=[n_hidden])[0]

    def fit_lockstep(self, agents: Sequence[Any],
                     configs: Sequence[TrainingConfig], *,
                     strategy: Union[str, Any] = "auto") -> List[TrainingResult]:
        """Train N independent trials in lock-step; one result per trial.

        Parameters
        ----------
        agents, configs:
            One protocol agent and one :class:`TrainingConfig` per trial.
            ``env_id`` must match across the batch; one
            :class:`~repro.parallel.vector_env.SyncVectorEnv` drives every
            trial, each sub-env the env :meth:`fit` would step (frame skip
            included).  Budgets, thresholds, seeds and ``action_repeat`` may
            differ per trial.  A :class:`CheckpointCallback` needs a
            one-trial batch.
        strategy:
            ``"auto"`` picks the batched ELM/OS-ELM strategy when every
            agent qualifies (see
            :func:`~repro.training.strategies.supports_lockstep`) and the
            generic per-agent strategy otherwise; ``"batched"`` /
            ``"generic"`` force one; or pass a strategy instance.
        """
        if not agents:
            raise ValueError("fit_lockstep needs at least one agent")
        if len(agents) != len(configs):
            raise ValueError(f"got {len(agents)} agents but {len(configs)} configs")
        env_ids = {config.env_id for config in configs}
        if len(env_ids) != 1:
            raise ValueError(
                f"all trials in a lock-step batch must share env_id, got {env_ids}")
        return self._fit(list(agents), list(configs), strategy, mode="lockstep",
                         envs=[resolve_env(None, config) for config in configs],
                         n_hidden=[_n_hidden(agent) for agent in agents])

    def _fit(self, agents: List[Any], configs: List[TrainingConfig],
             strategy: Union[str, Any], *, mode: str, envs: List[Env],
             n_hidden: List[int]) -> List[TrainingResult]:
        """Restore a checkpointed trial if there is one, then run the batch."""
        from repro.training.strategies import resolve_strategy

        trials = [TrialState(i, agent, config)
                  for i, (agent, config) in enumerate(zip(agents, configs))]
        callback = self.callbacks.first_of(CheckpointCallback)
        checkpoint = None
        if callback is not None:
            if len(trials) != 1:
                raise ValueError("mid-trial checkpoints need a one-trial batch, "
                                 f"got {len(trials)} trials")
            checkpoint = self._load_checkpoint(callback, trials[0])
            if checkpoint is None:
                checkpoint = _Checkpoint(callback, envs[0])
            else:
                envs[0] = checkpoint.environment
                _LOGGER.info("resumed mid-trial",
                             design=getattr(trials[0].agent, "name", "agent"),
                             episode=trials[0].episode)
        strat = resolve_strategy(strategy, [trial.agent for trial in trials])
        venv = _build_vector_env(configs, envs)
        run = TrainingRun(mode=mode, trials=trials, strategy=type(strat).__name__,
                          resumed=checkpoint is not None
                          and checkpoint.observation is not None)
        try:
            with span("trainer.fit_lockstep"):
                return self._run_lockstep(run, venv, strat, n_hidden, checkpoint)
        finally:
            if mode == "lockstep":      # fit leaves the env it was handed open
                venv.close()

    # ------------------------------------------------------------------ the step loop
    def _run_lockstep(self, run: TrainingRun, venv: Any, strat: Any,
                      n_hidden: List[int],
                      checkpoint: Optional["_Checkpoint"]) -> List[TrainingResult]:
        trials = run.trials
        for trial in trials:
            self.recorder.curves[trial.index] = TrainingCurve()
        if run.resumed:
            self.recorder.curves[0] = checkpoint.curve
        self.callbacks.train_start(run)
        emit_steps = self.callbacks.wants_steps
        n_trials = len(trials)
        strat.bind(trials, venv)

        start_wall = time.perf_counter()
        for trial in trials:
            trial.agent.begin_episode(trial.episode)
            self.callbacks.episode_start(trial)
        if run.resumed:
            # The sub-env was saved right after it auto-reset: it already
            # drew the observation the next episode starts from.
            states = venv.continue_from(checkpoint.observation[None, :])
        else:
            states, _ = venv.reset()
        strat.start(states)
        actions = np.zeros(n_trials, dtype=np.int64)
        active_indices = list(range(n_trials))

        while active_indices:
            raw_actions = strat.select_actions(states, actions, active_indices)
            step = venv.step(actions)
            strat.post_env_step(step)

            finished: List[int] = []
            terminated_flags = step.terminated.tolist()
            truncated_flags = step.truncated.tolist()
            rewards = step.rewards.tolist()
            for i in active_indices:
                trial = trials[i]
                term, trunc = terminated_flags[i], truncated_flags[i]
                done = term or trunc
                info = step.infos[i]
                frames = info.get("frames", 1)
                trial.steps += frames
                next_obs = (info["final_observation"] if done
                            else step.observations[i])
                reward = self._shaped_reward(trial, term, trunc, rewards[i])
                trial.shaped_return += reward
                strat.observe(i, states[i], raw_actions[i], reward, next_obs, done)
                if emit_steps:
                    self.callbacks.step(trial, StepEvent(
                        state=states[i], action=raw_actions[i], reward=reward,
                        next_state=next_obs, done=done, frames=frames))
                if done:
                    finished.append(i)
            strat.flush_updates(actions)

            for i in finished:
                trial = trials[i]
                strat.end_episode(i)
                _, stop, reset_occurred = self._finish_episode(
                    trial, prepare_record=strat.prepare_record)
                if reset_occurred:
                    strat.after_weight_reset(i)
                if stop:
                    trial.active = False
                    continue
                if checkpoint is not None and checkpoint.callback.due_after_episode():
                    strat.sync_agent(i)
                    self._save_checkpoint(checkpoint, trial, step.observations[i],
                                          time.perf_counter() - start_wall)
                    self.callbacks.checkpoint(trial)
                trial.episode += 1
                trial.steps = 0
                trial.shaped_return = 0.0
                trial.agent.begin_episode(trial.episode)
                self.callbacks.episode_start(trial)
            if finished:
                active_indices = [i for i in active_indices if trials[i].active]
            states = step.observations
            strat.end_step()

        wall_time = time.perf_counter() - start_wall
        strat.finalize()
        if checkpoint is not None:
            wall_time += checkpoint.elapsed_seconds
            checkpoint.callback.clear()   # the finished artifact supersedes it
        results = [self._result(trial, hidden, wall_time)
                   for trial, hidden in zip(trials, n_hidden)]
        self.callbacks.train_end(run, results)
        return results

    # ------------------------------------------------------------------ checkpointing
    def _save_checkpoint(self, checkpoint: "_Checkpoint", trial: TrialState,
                         observation: np.ndarray, elapsed: float) -> None:
        payload = {
            "version": CHECKPOINT_STATE_VERSION,
            "agent": trial.agent,
            "environment": checkpoint.environment,
            "observation": np.array(observation),
            "episode": trial.episode,           # last completed episode
            "criterion": trial.criterion,
            "curve": self.recorder.curve(trial.index),
            "solved": trial.solved,
            "episodes_to_solve": trial.episodes_to_solve,
            "elapsed_seconds": checkpoint.elapsed_seconds + elapsed,
        }
        checkpoint.callback.save(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def _load_checkpoint(self, callback: CheckpointCallback,
                         trial: TrialState) -> Optional["_Checkpoint"]:
        """The saved state of ``trial``, restored into it; ``None`` if none.

        The config stays the caller's (it defines the budget); everything
        mutable comes from the snapshot.
        """
        blob = callback.load()
        if blob is None:
            return None
        try:
            payload = pickle.loads(blob)
            if payload.get("version") != CHECKPOINT_STATE_VERSION:
                return None
        except Exception:           # corrupt blob reads as "no checkpoint"
            _LOGGER.warning("ignoring unreadable mid-trial checkpoint")
            return None
        trial.agent = payload["agent"]
        trial.criterion = payload["criterion"]
        trial.episode = payload["episode"] + 1     # resume at the next episode
        trial.solved = payload["solved"]
        trial.episodes_to_solve = payload["episodes_to_solve"]
        return _Checkpoint(callback, payload["environment"],
                           observation=payload["observation"], curve=payload["curve"],
                           elapsed_seconds=payload["elapsed_seconds"])


@dataclass
class _Checkpoint:
    """Mid-trial checkpointing of a one-trial batch, and what it restored."""

    callback: CheckpointCallback
    environment: Env                            #: the bare env under the sub-env
    observation: Optional[np.ndarray] = None    #: restored: the sub-env's observation
    curve: Optional[TrainingCurve] = None       #: restored: the curve so far
    elapsed_seconds: float = 0.0                #: restored: time trained before the save


def _n_hidden(agent: Any) -> int:
    return getattr(getattr(agent, "config", None), "n_hidden", 0)


def _build_vector_env(configs: Sequence[TrainingConfig],
                      envs: Optional[Sequence[Env]] = None) -> Any:
    """One in-process sub-env per trial, frame skip included, in trial order.

    ``envs`` are the bare envs to wrap; by default each config builds its own.
    """
    from repro.parallel.vector_env import SyncVectorEnv

    if envs is None:
        envs = [resolve_env(None, config) for config in configs]
    # The trainer emits guaranteed-valid int64 actions every step, so the
    # per-step validation of the batched path is pure overhead here.
    return SyncVectorEnv([partial(_frame_skip, env, config)
                          for env, config in zip(envs, configs)], validate=False)


__all__ = ["CHECKPOINT_STATE_VERSION", "Trainer", "TrainingRun", "TrialState",
           "evaluate_agent", "resolve_env"]
