"""repro.parallel: vectorized environments and multi-seed sweep orchestration.

The subsystem has two layers (see the README for the architecture sketch
and determinism guarantees):

* **Vector env** — :class:`SyncVectorEnv` steps N environments in-process
  behind one stacked ``reset()``/``step()`` interface with auto-reset;
  :func:`make_vector` builds one from a registered id with
  ``spawn_seeds``-derived per-env seeds.
* **Sweep orchestration** — :class:`SweepRunner` fans a
  (design x env x seed) :class:`SweepSpec` grid across the vectorized,
  process-pool, serial or distributed (:mod:`repro.distributed`) backend
  and aggregates the streamed results into a :class:`SweepResult`.  Every
  backend but serial trains through one executor,
  :func:`~repro.parallel.sweep.execute_tasks`: one
  :meth:`repro.training.Trainer.fit_lockstep` per group of compatible trials.
"""

from repro.parallel.pool import parallel_map
from repro.parallel.rollout import evaluate_agent_vectorized
from repro.parallel.sweep import SweepResult, SweepRunner, SweepSpec, SweepTask
from repro.parallel.vector_env import (
    EnvFactory,
    SyncVectorEnv,
    VectorEnv,
    VectorStepResult,
    make_vector,
)

__all__ = [
    "EnvFactory",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepTask",
    "SyncVectorEnv",
    "VectorEnv",
    "VectorStepResult",
    "evaluate_agent_vectorized",
    "make_vector",
    "parallel_map",
]
