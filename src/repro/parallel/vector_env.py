"""Vectorized environments: batched ``reset()``/``step()`` over N sub-envs.

The serial training loop steps one :class:`~repro.envs.core.Env` at a time;
everything the paper sweeps over (designs, seeds, environments) therefore
executes sequentially.  A :class:`VectorEnv` exposes the same episode
semantics over a *batch* of environments: observations come back stacked as
``(N, obs_dim)`` arrays, rewards and the ``terminated``/``truncated`` flags
as length-``N`` vectors, and finished sub-envs are reset automatically so
the batch never stalls (the Gym vector-env convention).

Auto-reset contract
-------------------
When sub-env ``i`` finishes an episode during :meth:`VectorEnv.step`, the
returned ``observations[i]`` is the *initial observation of the next
episode* and the terminal observation is preserved in
``infos[i]["final_observation"]`` — exactly what a Q-learning loop needs to
bootstrap from the true terminal state while continuing the rollout.

:class:`SyncVectorEnv` steps its sub-envs in lock-step inside the calling
process.  When every sub-env is a stock CartPole it transparently switches
to a batched physics path (:meth:`CartPoleEnv.batch_dynamics`) that advances
all N cart-poles with array arithmetic; any other homogeneous batch of an
env class flagging ``supports_batch_dynamics`` (e.g.
:class:`~repro.envs.autoscale.AutoscaleEnv`) goes through the generic
``batch_dynamics(states, steps, actions, params, rngs)`` hook, rewards and
RNG streams included.  The per-env trajectories are identical either way.
Wrapped sub-envs (e.g. :class:`~repro.envs.wrappers.ActionRepeat` frame
skip) step through the per-env loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.cartpole import CartPoleEnv
from repro.envs.core import Env
from repro.envs.registry import make as make_env
from repro.envs.spaces import Space
from repro.telemetry.tracing import span
from repro.utils.seeding import spawn_seeds


@dataclass
class VectorStepResult:
    """The stacked 5-tuple returned by :meth:`VectorEnv.step`."""

    observations: np.ndarray          #: ``(N, obs_dim)`` next observations (post auto-reset)
    rewards: np.ndarray               #: ``(N,)`` raw environment rewards
    terminated: np.ndarray            #: ``(N,)`` bool, true termination (pole fell, ...)
    truncated: np.ndarray             #: ``(N,)`` bool, time-limit truncation
    infos: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def dones(self) -> np.ndarray:
        """``terminated | truncated`` per sub-env."""
        return self.terminated | self.truncated

    def as_tuple(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                List[Dict[str, Any]]]:
        return (self.observations, self.rewards, self.terminated, self.truncated,
                self.infos)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class EnvFactory:
    """A picklable environment constructor bound to a registry id."""

    env_id: str
    seed: Optional[int] = None
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self) -> Env:
        return make_env(self.env_id, seed=self.seed, **dict(self.kwargs))


class VectorEnv:
    """Abstract batched environment: N sub-envs behind one stacked interface."""

    num_envs: int
    single_observation_space: Space
    single_action_space: Space

    def reset(self, *, seed: Optional[int] = None
              ) -> Tuple[np.ndarray, List[Dict[str, Any]]]:
        """Reset every sub-env; returns stacked observations and per-env infos.

        ``seed`` re-seeds the whole batch reproducibly: sub-env ``i`` receives
        the ``i``-th seed of ``spawn_seeds(seed, num_envs)``, so the N initial
        states are independent but fully determined by one root seed.
        """
        raise NotImplementedError

    def step(self, actions) -> VectorStepResult:
        """Advance every sub-env by one timestep (with auto-reset on done)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release sub-env resources."""

    def _spawn_reset_seeds(self, seed: Optional[int]) -> List[Optional[int]]:
        if seed is None:
            return [None] * self.num_envs
        return list(spawn_seeds(seed, self.num_envs))

    def _check_actions(self, actions) -> np.ndarray:
        actions = np.asarray(actions)
        if actions.shape != (self.num_envs,):
            raise ValueError(
                f"expected {self.num_envs} actions (one per sub-env), got shape {actions.shape}"
            )
        return actions

    def __len__(self) -> int:
        return self.num_envs

    def __enter__(self) -> "VectorEnv":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} num_envs={self.num_envs}>"


class SyncVectorEnv(VectorEnv):
    """Lock-step vector env: N sub-envs stepped inside the calling process.

    Parameters
    ----------
    env_fns:
        One zero-argument constructor per sub-env (e.g. :class:`EnvFactory`
        instances, or closures over ``make``).  Finished sub-envs reset
        automatically during :meth:`step`.
    batch_physics:
        Use the vectorized CartPole dynamics when every sub-env is a stock
        :class:`CartPoleEnv` with identical parameters.  Trajectories are
        identical to the per-env path; this only changes speed.
    validate:
        Check per-step preconditions (reset-before-step, action membership)
        on the batched path.  Trusted internal drivers that construct
        guaranteed-valid integer actions (the lock-step trainer) disable
        this; invalid actions then silently behave like "not the push-right
        action" instead of raising.
    """

    def __init__(self, env_fns: Sequence[Callable[[], Env]], *,
                 batch_physics: bool = True,
                 validate: bool = True) -> None:
        if not env_fns:
            raise ValueError("SyncVectorEnv needs at least one env_fn")
        self.envs: List[Env] = [fn() for fn in env_fns]
        self.num_envs = len(self.envs)
        self.validate = bool(validate)
        self.single_observation_space = self.envs[0].observation_space
        self.single_action_space = self.envs[0].action_space
        obs_shapes = {env.observation_space.shape for env in self.envs}
        if len(obs_shapes) != 1:
            raise ValueError(f"sub-envs have mismatched observation shapes: {obs_shapes}")
        self._obs_dim = self.envs[0].n_observations
        self._batch_physics = bool(batch_physics) and self._cartpole_fast_path_ok()
        self._batch_dynamics = (bool(batch_physics) and not self._batch_physics
                                and self._generic_fast_path_ok())
        # Fast-path mirrors of the per-env state; refreshed on every reset().
        # While batched stepping is active, these arrays are authoritative and
        # the sub-env objects are only guaranteed current at reset boundaries.
        self._states = np.zeros((self.num_envs, self._obs_dim))
        self._steps = np.zeros(self.num_envs, dtype=np.int64)
        self._started = np.zeros(self.num_envs, dtype=bool)
        self._unit_rewards = np.ones(self.num_envs)

    # ------------------------------------------------------------------ fast path
    def _cartpole_fast_path_ok(self) -> bool:
        if not all(type(env) is CartPoleEnv for env in self.envs):
            return False
        from repro.envs.spaces import Discrete

        first = self.envs[0]
        return (isinstance(first.action_space, Discrete)
                and first.action_space.start == 0
                and all(env.params == first.params
                        and env.max_episode_steps == first.max_episode_steps
                        for env in self.envs))

    def _generic_fast_path_ok(self) -> bool:
        """Homogeneous batch of a capability-flagged env class?

        Any :class:`~repro.envs.core.Env` subclass that sets
        ``supports_batch_dynamics = True`` and provides the
        ``batch_dynamics(states, steps, actions, params, rngs)`` hook (e.g.
        :class:`~repro.envs.autoscale.AutoscaleEnv`) is stepped through one
        vectorized call instead of N scalar ``step()``s.  CartPole keeps its
        dedicated path above (different hook signature, scalar small-batch
        twin); this generic gate deliberately excludes it.
        """
        first = self.envs[0]
        cls = type(first)
        if not getattr(cls, "supports_batch_dynamics", False):
            return False
        if not all(type(env) is cls for env in self.envs):
            return False
        from repro.envs.spaces import Discrete

        return (isinstance(first.action_space, Discrete)
                and first.action_space.start == 0
                and all(env.params == first.params
                        and env.max_episode_steps == first.max_episode_steps
                        for env in self.envs))

    @property
    def uses_batch_physics(self) -> bool:
        """Whether steps go through the vectorized CartPole dynamics."""
        return self._batch_physics

    @property
    def uses_batch_dynamics(self) -> bool:
        """Whether steps go through a vectorized path (CartPole's or generic)."""
        return self._batch_physics or self._batch_dynamics

    # ------------------------------------------------------------------ API
    def reset(self, *, seed: Optional[int] = None
              ) -> Tuple[np.ndarray, List[Dict[str, Any]]]:
        with span("vector_env.reset"):
            seeds = self._spawn_reset_seeds(seed)
            observations = np.empty((self.num_envs, self._obs_dim))
            infos: List[Dict[str, Any]] = []
            for i, env in enumerate(self.envs):
                obs, info = env.reset(seed=seeds[i])
                observations[i] = obs
                infos.append(info)
            self._states = observations.copy()
            self._steps[:] = 0
            self._started[:] = True
            return observations, infos

    def continue_from(self, observations) -> np.ndarray:
        """Start from sub-envs that were just reset elsewhere, without resetting.

        ``observations[i]`` must be what sub-env ``i``'s last ``reset()``
        returned (a checkpoint saved right after an auto-reset, say); the
        batch then steps exactly as if this vector env had drawn them.
        """
        observations = np.array(observations, dtype=np.float64).reshape(
            self.num_envs, self._obs_dim)
        self._states = observations.copy()
        self._steps[:] = 0
        self._started[:] = True
        return observations

    def step(self, actions) -> VectorStepResult:
        with span("vector_env.step"):
            actions = self._check_actions(actions)
            if self._batch_physics:
                return self._step_batched(actions)
            if self._batch_dynamics:
                return self._step_batched_generic(actions)
            result = self._step_loop(actions)
            self._autoreset(result)
            return result

    def close(self) -> None:
        for env in self.envs:
            env.close()

    # ------------------------------------------------------------------ stepping
    def _step_loop(self, actions: np.ndarray) -> VectorStepResult:
        observations = np.empty((self.num_envs, self._obs_dim))
        rewards = np.empty(self.num_envs)
        terminated = np.zeros(self.num_envs, dtype=bool)
        truncated = np.zeros(self.num_envs, dtype=bool)
        infos: List[Dict[str, Any]] = []
        for i, env in enumerate(self.envs):
            step = env.step(actions[i])
            observations[i] = step.observation
            rewards[i] = step.reward
            terminated[i] = step.terminated
            truncated[i] = step.truncated
            infos.append(dict(step.info))
        return VectorStepResult(observations, rewards, terminated, truncated, infos)

    def _step_batched(self, actions: np.ndarray) -> VectorStepResult:
        """Vectorized CartPole stepping over the persistent state mirror.

        Produces trajectories identical to the per-env loop; the sub-env
        objects themselves are refreshed at episode boundaries only (their
        ``state`` attribute is stale between resets on this path).  Small
        batches take :meth:`_step_scalar` (NumPy ufunc dispatch costs more
        than the arithmetic below ~16 cart-poles); large batches go through
        :meth:`CartPoleEnv.batch_dynamics`.  Both evaluate the identical
        Euler step.
        """
        if self.validate:
            self._validate_batch_actions(actions)
        if self.num_envs <= 16:
            return self._step_scalar(actions)
        env0 = self.envs[0]
        params = env0.params
        max_steps = env0.max_episode_steps
        self._steps += 1
        new_states = CartPoleEnv.batch_dynamics(self._states, actions, params)
        terminated = (np.abs(new_states[:, 0]) > params.position_threshold) \
            | (np.abs(new_states[:, 2]) > params.angle_threshold)
        self._states = new_states
        if max_steps is None:
            dones = terminated
            truncated = np.zeros(self.num_envs, dtype=bool)
        else:
            truncated = self._steps >= max_steps
            dones = terminated | truncated
        observations = new_states.copy()
        # Same per-step infos as CartPoleEnv._step produces on the loop path,
        # so the two paths stay interchangeable for info consumers too.
        steps_list = self._steps.tolist()
        infos: List[Dict[str, Any]] = [{"steps": steps_list[i]}
                                       for i in range(self.num_envs)]
        self._reset_finished(dones, observations, infos)
        return VectorStepResult(observations, self._unit_rewards.copy(),
                                terminated, truncated, infos)

    def _step_scalar(self, actions: np.ndarray) -> VectorStepResult:
        """The small-batch CartPole step in scalar Python, from state to
        auto-reset: one array built per output, no per-step ufunc."""
        env0 = self.envs[0]
        max_steps = env0.max_episode_steps
        rows, terminated = CartPoleEnv.batch_dynamics_scalar(
            self._states.tolist(), actions.tolist(), env0.params)
        steps = [n + 1 for n in self._steps.tolist()]
        truncated = ([False] * self.num_envs if max_steps is None
                     else [n >= max_steps for n in steps])
        infos: List[Dict[str, Any]] = [{"steps": n} for n in steps]
        observations = np.array(rows)
        self._states = observations.copy()
        for i, (term, trunc) in enumerate(zip(terminated, truncated)):
            if term or trunc:
                infos[i]["final_observation"] = self._states[i].copy()
                obs, _ = self.envs[i].reset()
                self._states[i] = obs
                observations[i] = obs
                steps[i] = 0
        self._steps[:] = steps
        return VectorStepResult(observations, self._unit_rewards.copy(),
                                np.array(terminated), np.array(truncated), infos)

    def _reset_finished(self, dones: np.ndarray, observations: np.ndarray,
                        infos: List[Dict[str, Any]]) -> None:
        """Auto-reset the sub-envs a batched step finished, in place."""
        for i in np.flatnonzero(dones):
            infos[i]["final_observation"] = self._states[i].copy()
            obs, _ = self.envs[i].reset()
            self._states[i] = obs
            observations[i] = obs
            self._steps[i] = 0

    def _validate_batch_actions(self, actions: np.ndarray) -> None:
        """Batched mirror of the per-env step preconditions."""
        if not self._started.all():
            i = int(np.flatnonzero(~self._started)[0])
            raise RuntimeError(f"step() called before reset() on sub-env {i}")
        space = self.single_action_space
        if actions.dtype.kind not in "iu":
            # Discrete spaces reject floats/bools element-wise on the
            # per-env path; mirror that wholesale for the batch.
            raise ValueError(
                f"actions must be an integer array for {space}, got dtype "
                f"{actions.dtype}"
            )
        if ((actions < 0) | (actions >= space.n)).any():
            bad = next(a for a in actions if not space.contains(int(a)))
            raise ValueError(f"action {bad!r} is not contained in {space}")

    def _step_batched_generic(self, actions: np.ndarray) -> VectorStepResult:
        """One vectorized step through the env class's ``batch_dynamics`` hook.

        The hook receives the persistent state/step mirrors plus each
        sub-env's own generator (in sub-env order), so the RNG streams
        advance exactly as N scalar ``step()`` calls would — the serial
        ``_step`` of a capability-flagged env delegates to the same function
        on a one-row batch, which is what makes the two paths bit-identical.
        Unlike the CartPole path, rewards come from the dynamics, not a
        constant.
        """
        if self.validate:
            self._validate_batch_actions(actions)
        env0 = self.envs[0]
        new_states, rewards, terminated = type(env0).batch_dynamics(
            self._states, self._steps, actions, env0.params,
            [env._rng for env in self.envs])
        self._steps += 1
        max_steps = env0.max_episode_steps
        terminated = np.asarray(terminated, dtype=bool)
        if max_steps is None:
            truncated = np.zeros(self.num_envs, dtype=bool)
        else:
            truncated = self._steps >= max_steps
        dones = terminated | truncated
        self._states = np.asarray(new_states, dtype=np.float64)
        observations = self._states.copy()
        steps_list = self._steps.tolist()
        infos: List[Dict[str, Any]] = [{"steps": steps_list[i]}
                                       for i in range(self.num_envs)]
        self._reset_finished(dones, observations, infos)
        return VectorStepResult(observations, np.asarray(rewards, dtype=np.float64),
                                terminated, truncated, infos)

    def _autoreset(self, result: VectorStepResult) -> None:
        for i in np.flatnonzero(result.dones):
            result.infos[i]["final_observation"] = result.observations[i].copy()
            obs, _ = self.envs[i].reset()
            result.observations[i] = obs


def make_vector(env_id: str, num_envs: int, *, seed: Optional[int] = None,
                **kwargs: Any) -> SyncVectorEnv:
    """Build a :class:`SyncVectorEnv` of ``num_envs`` registry environments.

    Parameters
    ----------
    env_id:
        Registered id, e.g. ``"CartPole-v0"``.
    num_envs:
        Batch size N.
    seed:
        Root seed; sub-env ``i`` is constructed with the ``i``-th seed of
        ``spawn_seeds(seed, num_envs)`` so the batch is reproducible and the
        per-env streams never overlap.
    kwargs:
        Forwarded to the environment constructor (e.g. ``max_episode_steps``).
    """
    if num_envs <= 0:
        raise ValueError(f"num_envs must be positive, got {num_envs}")
    seeds: List[Optional[int]] = (list(spawn_seeds(seed, num_envs))
                                  if seed is not None else [None] * num_envs)
    factory_kwargs = tuple(sorted(kwargs.items()))
    env_fns = [EnvFactory(env_id, seed=seeds[i], kwargs=factory_kwargs)
               for i in range(num_envs)]
    return SyncVectorEnv(env_fns)
