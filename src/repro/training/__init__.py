"""Unified training API: one Trainer + callback lifecycle for every design.

The paper's headline claim is that one update loop serves every design
(ELM, OS-ELM, regularized variants, DQN baseline) on-device; this package
is that loop in the reproduction.  :class:`Trainer` drives the canonical
episode/step protocol for any :class:`AgentProtocol` agent, one trial or
many in lock-step over a vector env, with a typed :class:`Callback`
lifecycle for progress streaming, metric recording and mid-trial
checkpointing.

It is the only training entry point: ``Trainer().fit`` for one trial (a
one-trial lock-step batch), ``Trainer().fit_lockstep`` for a batch.
Fixed-seed curves replay the pinned pre-refactor curves bit-for-bit
(``tests/data/pinned_curves.json`` and ``pinned_training.json``).
"""

from repro.training.callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    MetricsRecorder,
    ProgressCallback,
    StepEvent,
    progress_to_stderr,
)
from repro.training.config import TrainingConfig
from repro.training.protocols import AgentProtocol, BatchableAgentProtocol
from repro.training.records import EpisodeRecord, TrainingCurve, TrainingResult
from repro.training.strategies import (
    BatchedELMStrategy,
    GenericLockstepStrategy,
    LockstepStrategy,
    resolve_strategy,
    supports_lockstep,
)
from repro.training.trainer import (
    Trainer,
    TrainingRun,
    TrialState,
    evaluate_agent,
    resolve_env,
)

__all__ = [
    "AgentProtocol",
    "BatchableAgentProtocol",
    "BatchedELMStrategy",
    "Callback",
    "CallbackList",
    "CheckpointCallback",
    "EpisodeRecord",
    "GenericLockstepStrategy",
    "LockstepStrategy",
    "MetricsRecorder",
    "ProgressCallback",
    "StepEvent",
    "Trainer",
    "TrainingConfig",
    "TrainingCurve",
    "TrainingResult",
    "TrainingRun",
    "TrialState",
    "evaluate_agent",
    "progress_to_stderr",
    "resolve_env",
    "resolve_strategy",
    "supports_lockstep",
]
