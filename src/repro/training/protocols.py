"""Typed interfaces between the Trainer and the things it drives.

``AgentProtocol`` is the contract every trainable agent implements — the
ELM family (:class:`~repro.core.agents.ELMQAgent` /
:class:`~repro.core.agents.OSELMQAgent`), the DQN baseline
(:class:`~repro.baselines.dqn.DQNAgent`) and the FPGA-simulated design all
satisfy it, which is what lets one :class:`~repro.training.trainer.Trainer`
loop serve every design in the paper.  The protocol is structural
(``typing.Protocol``): nothing needs to inherit from it, and
``isinstance(agent, AgentProtocol)`` checks conformance at runtime.

``BatchableAgentProtocol`` adds the batched hooks
(:meth:`~BatchableAgentProtocol.act_batch`) that vectorized drivers may
exploit; agents without them still train lock-step through the per-agent
hooks.
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class AgentProtocol(Protocol):
    """The hooks the Trainer's canonical episode/step loop drives.

    Lifecycle per trial::

        begin_episode -> (act -> observe)* -> end_episode   (repeated)

    plus ``register_progress`` after each episode (the stall-reset rule;
    agents without a reset rule implement it as a no-op) and
    ``reset_weights`` when that rule fires.
    """

    #: Display name used in experiment tables.
    name: str
    #: Invocations per Figure 5/6 operation label.
    operation_counts: Dict[str, int]
    #: Environment steps observed so far.
    global_step: int
    #: Episodes finished so far.
    episodes_completed: int

    def begin_episode(self, episode_index: int) -> None:
        """Called before each episode starts (1-indexed)."""

    def act(self, state: np.ndarray, *, explore: bool = True) -> int:
        """Choose an action for one state (epsilon-greedy when exploring)."""

    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        """Receive one (possibly frame-skipped) transition and learn from it."""

    def end_episode(self, episode_index: int) -> None:
        """Called after each episode finishes (target syncs live here)."""

    def reset_weights(self) -> None:
        """Re-initialise all trainable state (the paper's 300-episode rule)."""


@runtime_checkable
class BatchableAgentProtocol(AgentProtocol, Protocol):
    """An agent whose forward pass vectorizes over a batch of states."""

    def act_batch(self, states: np.ndarray, *, explore: bool = True) -> np.ndarray:
        """One action per row of a ``(B, n_states)`` batch."""


__all__ = ["AgentProtocol", "BatchableAgentProtocol"]
