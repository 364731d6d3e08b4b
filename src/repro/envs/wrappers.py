"""Environment wrappers (time limits, frame skip and episode statistics)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.envs.core import Env, StepResult


class Wrapper(Env):
    """Transparent pass-through wrapper; subclasses override ``reset``/``step``."""

    def __init__(self, env: Env) -> None:
        # Note: deliberately does not call Env.__init__ — the wrapped env owns the RNG.
        self.env = env
        self._episode_started = False

    @property
    def observation_space(self):  # type: ignore[override]
        return self.env.observation_space

    @property
    def action_space(self):  # type: ignore[override]
        return self.env.action_space

    @property
    def spec(self):  # type: ignore[override]
        return self.env.spec

    @property
    def unwrapped(self) -> Env:
        inner = self.env
        while isinstance(inner, Wrapper):
            inner = inner.env
        return inner

    def seed(self, seed: Optional[int] = None) -> int:
        return self.env.seed(seed)

    def reset(self, *, seed: Optional[int] = None) -> Tuple[np.ndarray, Dict[str, Any]]:
        return self.env.reset(seed=seed)

    def step(self, action) -> StepResult:
        return self.env.step(action)

    def close(self) -> None:
        self.env.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}{self.env!r}>"


class TimeLimit(Wrapper):
    """Truncate episodes after ``max_episode_steps`` steps.

    Used by the registry to impose CartPole-v0's 200-step horizon on
    environments constructed without a built-in limit.
    """

    def __init__(self, env: Env, max_episode_steps: int) -> None:
        super().__init__(env)
        if max_episode_steps <= 0:
            raise ValueError("max_episode_steps must be positive")
        self.max_episode_steps = int(max_episode_steps)
        self._elapsed = 0

    def reset(self, *, seed: Optional[int] = None) -> Tuple[np.ndarray, Dict[str, Any]]:
        self._elapsed = 0
        return super().reset(seed=seed)

    def step(self, action) -> StepResult:
        result = super().step(action)
        self._elapsed += 1
        if self._elapsed >= self.max_episode_steps and not result.terminated:
            result.truncated = True
            result.info.setdefault("TimeLimit.truncated", True)
        return result


class ActionRepeat(Wrapper):
    """Frame skip: each ``step`` repeats its action up to ``repeat`` times.

    Stepping stops early at episode end; the reward is the sum over the
    frames actually advanced, the observation, flags and info are the last
    frame's, and ``info["frames"]`` counts the frames.  Wrap the registry
    env (outside any :class:`TimeLimit`) so time limits count frames.
    """

    def __init__(self, env: Env, repeat: int) -> None:
        super().__init__(env)
        if repeat <= 0:
            raise ValueError("repeat must be positive")
        self.repeat = int(repeat)

    def step(self, action) -> StepResult:
        reward = 0.0
        for frames in range(1, self.repeat + 1):
            result = self.env.step(action)
            reward += result.reward
            if result.done:
                break
        result.reward = reward
        result.info["frames"] = frames
        return result


class EpisodeStatistics(Wrapper):
    """Record per-episode returns and lengths (the raw data behind Figure 4)."""

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.episode_returns: List[float] = []
        self.episode_lengths: List[int] = []
        self._current_return = 0.0
        self._current_length = 0

    def reset(self, *, seed: Optional[int] = None) -> Tuple[np.ndarray, Dict[str, Any]]:
        self._current_return = 0.0
        self._current_length = 0
        return super().reset(seed=seed)

    def step(self, action) -> StepResult:
        result = super().step(action)
        self._current_return += result.reward
        self._current_length += 1
        if result.done:
            self.episode_returns.append(self._current_return)
            self.episode_lengths.append(self._current_length)
            result.info["episode"] = {
                "return": self._current_return,
                "length": self._current_length,
            }
        return result

    @property
    def n_episodes(self) -> int:
        return len(self.episode_returns)
