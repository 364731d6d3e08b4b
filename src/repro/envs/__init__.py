"""Gym-style reinforcement-learning environments (the OpenAI Gym substitute).

The paper evaluates on OpenAI Gym CartPole-v0.  This subpackage re-implements
the relevant slice of the Gym API from scratch:

* :class:`Env` — the ``reset`` / ``step`` protocol,
* :class:`Box` and :class:`Discrete` spaces,
* a string registry and :func:`make` factory,
* :class:`TimeLimit`, :class:`ActionRepeat` (frame skip) and
  :class:`EpisodeStatistics` wrappers,
* the classic-control tasks CartPole-v0/v1 (the paper's benchmark, with the
  exact Table 2 bounds), MountainCar-v0 and Acrobot-v1 (the "other
  reinforcement tasks" mentioned as future work in Section 5),
* the systems family: Autoscale-v0, a seeded queueing/autoscaling simulator
  (stochastic traffic, replica scaling with cold starts, SLO/cost reward).
"""

from repro.envs.core import Env, EnvSpec, StepResult
from repro.envs.spaces import Box, Discrete, Space
from repro.envs.registry import env_dimensions, make, register, registry, spec
from repro.envs.autoscale import AutoscaleEnv, AutoscaleParams
from repro.envs.cartpole import CartPoleEnv
from repro.envs.mountain_car import MountainCarEnv
from repro.envs.acrobot import AcrobotEnv
from repro.envs.wrappers import ActionRepeat, EpisodeStatistics, TimeLimit, Wrapper

__all__ = [
    "Env",
    "EnvSpec",
    "StepResult",
    "Box",
    "Discrete",
    "Space",
    "env_dimensions",
    "make",
    "register",
    "registry",
    "spec",
    "AutoscaleEnv",
    "AutoscaleParams",
    "CartPoleEnv",
    "MountainCarEnv",
    "AcrobotEnv",
    "ActionRepeat",
    "EpisodeStatistics",
    "TimeLimit",
    "Wrapper",
]
