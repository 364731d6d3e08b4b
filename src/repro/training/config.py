"""The training protocol configuration shared by both Trainer entry points.

It lives next to :class:`~repro.training.trainer.Trainer` so that the
protocol's input language sits beside the loop that interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple


@dataclass(frozen=True)
class TrainingConfig:
    """Protocol parameters for one training run (paper defaults).

    ``action_repeat`` is the frame-skip factor: the agent picks an action
    once per *decision point* and the environment advances up to that many
    steps with it (stopping early at episode end), the agent observing one
    aggregate transition.  The default of 1 is the paper's per-step protocol
    (Algorithm 1).  The trainer implements k > 1 by wrapping each trial's env
    in :class:`~repro.envs.wrappers.ActionRepeat`.
    """

    env_id: str = "CartPole-v0"
    max_episodes: int = 50_000            #: the paper's "impossible" cutoff
    max_steps_per_episode: Optional[int] = None   #: None -> use the env's own limit
    solved_threshold: float = 195.0
    solved_window: int = 100
    reward_shaping: bool = True           #: shape rewards into {-1, 0, +1}
    success_steps: int = 195              #: survival length counted as success by the shaper
    stop_when_solved: bool = True
    record_lipschitz: bool = False        #: record the Lipschitz bound each episode (ablation A1)
    action_repeat: int = 1                #: env steps per agent decision (frame skip)
    seed: Optional[int] = None
    #: Extra env-constructor kwargs as a sorted (key, value) tuple — hashable
    #: and picklable, set from ``ExperimentSpec.env_overrides``.  A dict is
    #: accepted and normalized.  The empty default is excluded from trial
    #: descriptors so pre-existing artifact keys are unchanged.
    env_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        params = self.env_params
        if isinstance(params, dict):
            params = params.items()
        object.__setattr__(self, "env_params",
                           tuple(sorted((str(key), value) for key, value in params)))
        if self.max_episodes <= 0:
            raise ValueError("max_episodes must be positive")
        if self.solved_window <= 0:
            raise ValueError("solved_window must be positive")
        if self.solved_threshold <= 0:
            raise ValueError("solved_threshold must be positive")
        if self.success_steps <= 0:
            raise ValueError("success_steps must be positive")
        if self.action_repeat <= 0:
            raise ValueError("action_repeat must be positive")


__all__ = ["TrainingConfig"]
