"""Training-curve and training-result records (the data behind Figure 4/5).

Home of the metric containers the :class:`~repro.training.trainer.Trainer`
emits.  The curve itself is assembled by the built-in
:class:`~repro.training.callbacks.MetricsRecorder` callback; these classes
are the pure data layer shared by the trainer, the sweep engine, the
artifact store and the reporting adapters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class EpisodeRecord:
    """One row of the training curve."""

    episode: int
    steps: int                    #: steps the pole stayed up (the Y-axis of Figure 4)
    shaped_return: float          #: sum of shaped rewards seen by the agent
    moving_average: float         #: 100-episode moving average of ``steps``
    lipschitz_bound: Optional[float] = None
    beta_norm: Optional[float] = None


@dataclass
class TrainingCurve:
    """The full per-episode history of one training run."""

    records: List[EpisodeRecord] = field(default_factory=list)

    def append(self, record: EpisodeRecord) -> None:
        self.records.append(record)

    @property
    def episodes(self) -> np.ndarray:
        return np.array([r.episode for r in self.records], dtype=int)

    @property
    def steps(self) -> np.ndarray:
        return np.array([r.steps for r in self.records], dtype=float)

    @property
    def moving_average(self) -> np.ndarray:
        return np.array([r.moving_average for r in self.records], dtype=float)

    @property
    def lipschitz_bounds(self) -> np.ndarray:
        return np.array([r.lipschitz_bound if r.lipschitz_bound is not None else np.nan
                         for r in self.records], dtype=float)

    def __len__(self) -> int:
        return len(self.records)

    def final_average(self, window: int = 100) -> float:
        """Average steps over the last ``window`` episodes (0 when empty)."""
        if not self.records:
            return 0.0
        tail = self.steps[-window:]
        return float(tail.mean())

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {
            "episodes": self.episodes,
            "steps": self.steps,
            "moving_average": self.moving_average,
        }


@dataclass
class TrainingResult:
    """Outcome of one trained trial (one :meth:`Trainer.fit` lane)."""

    design: str
    n_hidden: int
    solved: bool
    episodes: int                              #: episodes actually run
    episodes_to_solve: Optional[int]           #: None when the run failed / was cut off
    wall_time_seconds: float                   #: the run's (lock-step: its group's) wall time
    curve: TrainingCurve
    operation_counts: Dict[str, int]           #: invocations per Figure 5/6 label
    weight_resets: int = 0
    seed: Optional[int] = None

    @property
    def completed(self) -> bool:
        """Alias matching the paper's phrasing ("acquire correct behaviors")."""
        return self.solved


__all__ = ["EpisodeRecord", "TrainingCurve", "TrainingResult"]
