"""Declarative experiment specifications: the input language of ``repro run``.

An :class:`ExperimentSpec` describes *what* to reproduce — which designs,
hidden sizes, environments, how many seeds, under which training budget —
without saying *how*: the engine (:mod:`repro.api.engine`) expands it into
:class:`~repro.parallel.sweep.SweepTask` trials and executes them on any of
the sweep backends.  Specs are frozen, JSON round-trippable and
content-addressable (:attr:`ExperimentSpec.spec_hash`), which is what makes
the artifact store's resume/caching work: the same spec always names the
same trials.

Seed derivation is part of the spec, so a spec names its trials' seeds
exactly: a trial's seed is ::

    seed + 1000*trial + seed_stride*n_hidden
         + stable_hash(design) % seed_mod + 104729*env_index

The ``figure4`` registry spec uses ``seed_stride=17, seed_mod=997`` and
``figure5`` uses ``13 / 991``.  The env term is zero for the first environment, so a
single-env spec keeps those seeds while multi-env specs still get distinct
streams per environment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.designs import SOFTWARE_DESIGNS, design_spec
from repro.training.config import TrainingConfig
from repro.utils.seeding import stable_digest, stable_hash

#: Experiment kinds the engine knows how to execute and report.
EXPERIMENT_KINDS: Tuple[str, ...] = ("training_curve", "execution_time",
                                     "resource_table")

#: Prime spacing the env index contributes to trial seeds (0 for env 0, so
#: single-env specs keep the seed formula without an env term).
_ENV_SEED_STRIDE = 104729

#: Spec-format version recorded in every serialized spec / trial descriptor.
SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Budget:
    """The training-protocol knobs that distinguish CI from paper scale.

    A ci-scale and a paper-scale variant of the same experiment differ only
    in these fields — never in code path.  Field defaults are the paper's
    full Section 4.3/4.4 protocol.
    """

    max_episodes: int = 50_000            #: the paper's "impossible" cutoff
    max_steps_per_episode: Optional[int] = None   #: None -> the env's own limit
    solved_threshold: float = 195.0
    solved_window: int = 100
    reward_shaping: bool = True
    success_steps: int = 195
    stop_when_solved: bool = True
    record_lipschitz: bool = False

    def training_config(self, *, env_id: str, seed: Optional[int] = None
                        ) -> TrainingConfig:
        """Materialize the budget as a per-trial :class:`TrainingConfig`."""
        return TrainingConfig(
            env_id=env_id,
            max_episodes=self.max_episodes,
            max_steps_per_episode=self.max_steps_per_episode,
            solved_threshold=self.solved_threshold,
            solved_window=self.solved_window,
            reward_shaping=self.reward_shaping,
            success_steps=self.success_steps,
            stop_when_solved=self.stop_when_solved,
            record_lipschitz=self.record_lipschitz,
            seed=seed,
        )

    @staticmethod
    def from_training_config(config: TrainingConfig) -> "Budget":
        """Lift a :class:`TrainingConfig` into a budget (drops env/seed)."""
        return Budget(
            max_episodes=config.max_episodes,
            max_steps_per_episode=config.max_steps_per_episode,
            solved_threshold=config.solved_threshold,
            solved_window=config.solved_window,
            reward_shaping=config.reward_shaping,
            success_steps=config.success_steps,
            stop_when_solved=config.stop_when_solved,
            record_lipschitz=config.record_lipschitz,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, declaratively: grid axes x budget x seed derivation.

    Parameters
    ----------
    name:
        Display / registry name (``"figure4"``, ``"my-acrobot-sweep"``).
    kind:
        One of :data:`EXPERIMENT_KINDS`.  ``resource_table`` specs have no
        trials — the engine evaluates the analytical area model over
        ``hidden_sizes`` directly.
    designs, hidden_sizes, env_ids, n_seeds:
        The trial grid; one trial per (env, hidden size, design, seed index),
        expanded in that nesting order.
    seed, seed_stride, seed_mod:
        Parameters of the per-trial seed formula (see module docstring).
    budget:
        The training protocol; swap budgets to move between CI and paper
        scale without touching anything else.
    max_workers:
        Spec-level parallelism hint: caps the worker count (process pool
        size / distributed local fleet) when the caller of ``repro run`` /
        :func:`repro.api.engine.run` does not pass one explicitly.  ``None``
        (default) defers to the runner's own default.  Lets a spec that is,
        say, memory-hungry per trial ship its own cap without CLI flags.
    env_overrides:
        Optional per-environment adjustments for multi-family grids, keyed
        by env id.  Each entry may override :class:`Budget` fields (e.g.
        ``{"max_episodes": 30}`` to shorten one env's protocol) and/or carry
        an ``"env_params"`` dict forwarded to the env constructor (e.g.
        ``{"env_params": {"max_episode_steps": 50}}``).  An empty mapping is
        excluded from :meth:`canonical_json`, so specs that never use the
        feature keep their historical ``spec_hash`` — and their artifact
        caches — unchanged.
    """

    name: str
    kind: str = "training_curve"
    designs: Tuple[str, ...] = SOFTWARE_DESIGNS
    hidden_sizes: Tuple[int, ...] = (32, 64, 128, 192)
    env_ids: Tuple[str, ...] = ("CartPole-v0",)
    n_seeds: int = 1
    seed: int = 42
    gamma: float = 0.99
    budget: Budget = field(default_factory=Budget)
    seed_stride: int = 17
    seed_mod: int = 997
    description: str = ""
    max_workers: Optional[int] = None
    env_overrides: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "env_ids", tuple(self.env_ids))
        if not self.name:
            raise ValueError("spec name must not be empty")
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {EXPERIMENT_KINDS}")
        if not self.hidden_sizes or any(h <= 0 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty and positive")
        if self.n_seeds <= 0:
            raise ValueError("n_seeds must be positive")
        if self.seed_mod <= 0:
            raise ValueError("seed_mod must be positive")
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError("max_workers must be positive or None")
        if self.kind != "resource_table":
            if not self.designs:
                raise ValueError("designs must not be empty")
            if not self.env_ids:
                raise ValueError("env_ids must not be empty")
            for design in self.designs:
                design_spec(design)          # raises on unknown names up-front
            if len(set(self.designs)) != len(self.designs):
                raise ValueError(f"duplicate designs in {self.designs}")
        if len(set(self.hidden_sizes)) != len(self.hidden_sizes):
            raise ValueError(f"duplicate hidden_sizes in {self.hidden_sizes}")
        if len(set(self.env_ids)) != len(self.env_ids):
            raise ValueError(f"duplicate env_ids in {self.env_ids}")
        overrides = {str(env_id): dict(entry)
                     for env_id, entry in dict(self.env_overrides).items()}
        object.__setattr__(self, "env_overrides", overrides)
        allowed = {f.name for f in fields(Budget)} | {"env_params"}
        for env_id, entry in overrides.items():
            if env_id not in self.env_ids:
                raise ValueError(
                    f"env_overrides names {env_id!r}, which is not in env_ids "
                    f"{self.env_ids}")
            unknown = set(entry) - allowed
            if unknown:
                raise ValueError(
                    f"env_overrides[{env_id!r}] has unknown keys {sorted(unknown)}; "
                    f"allowed: Budget fields and 'env_params'")
            env_params = entry.get("env_params")
            if env_params is not None and not isinstance(env_params, dict):
                raise ValueError(
                    f"env_overrides[{env_id!r}]['env_params'] must be a dict, "
                    f"got {type(env_params).__name__}")

    # ------------------------------------------------------------------ grid
    @property
    def n_trials(self) -> int:
        if self.kind == "resource_table":
            return 0
        return len(self.env_ids) * len(self.hidden_sizes) * len(self.designs) * self.n_seeds

    def grid(self) -> List[Tuple[str, int, str, int]]:
        """All (env_id, n_hidden, design, trial) cells, in expansion order."""
        return [(env_id, n_hidden, design, trial)
                for env_id in self.env_ids
                for n_hidden in self.hidden_sizes
                for design in self.designs
                for trial in range(self.n_seeds)]

    def trial_seed(self, design: str, n_hidden: int, trial: int = 0,
                   env_index: int = 0) -> int:
        """The deterministic per-trial seed (no env term for env 0)."""
        return (self.seed + 1000 * trial + self.seed_stride * int(n_hidden)
                + stable_hash(design) % self.seed_mod
                + _ENV_SEED_STRIDE * env_index)

    def env_budget(self, env_id: str) -> Budget:
        """The budget one environment trains under (base + its overrides)."""
        entry = self.env_overrides.get(env_id, {})
        budget_fields = {key: value for key, value in entry.items()
                         if key != "env_params"}
        return replace(self.budget, **budget_fields) if budget_fields else self.budget

    def env_params(self, env_id: str) -> Dict[str, Any]:
        """Constructor overrides one environment is built with."""
        return dict(self.env_overrides.get(env_id, {}).get("env_params", {}))

    def tasks(self) -> List["SweepTask"]:  # noqa: F821 - forward ref, imported below
        """Expand the grid into fully seeded, picklable sweep tasks.

        Observation/action dimensions come from the env registry's
        capability metadata inside ``SweepTask`` itself — nothing is
        hand-threaded here.
        """
        from repro.parallel.sweep import SweepTask

        if self.kind == "resource_table":
            return []
        tasks: List[SweepTask] = []
        for env_index, env_id in enumerate(self.env_ids):
            budget = self.env_budget(env_id)
            env_params = tuple(sorted(self.env_params(env_id).items()))
            for n_hidden in self.hidden_sizes:
                for design in self.designs:
                    for trial in range(self.n_seeds):
                        seed = self.trial_seed(design, n_hidden, trial, env_index)
                        training = budget.training_config(env_id=env_id, seed=seed)
                        if env_params:
                            training = replace(training, env_params=env_params)
                        tasks.append(SweepTask(
                            design=design,
                            env_id=env_id,
                            n_hidden=int(n_hidden),
                            gamma=self.gamma,
                            seed=seed,
                            trial=trial,
                            training=training,
                        ))
        return tasks

    # ------------------------------------------------------------------ variants
    def with_budget(self, budget: Optional[Budget] = None, **budget_fields: Any
                    ) -> "ExperimentSpec":
        """A copy with a new budget (or the current one with fields replaced)."""
        if budget is None:
            budget = replace(self.budget, **budget_fields)
        elif budget_fields:
            budget = replace(budget, **budget_fields)
        return replace(self, budget=budget)

    def with_grid(self, *, designs: Optional[Sequence[str]] = None,
                  hidden_sizes: Optional[Sequence[int]] = None,
                  env_ids: Optional[Sequence[str]] = None,
                  n_seeds: Optional[int] = None) -> "ExperimentSpec":
        """A copy with some grid axes replaced (budget and seeds untouched)."""
        changes: Dict[str, Any] = {}
        if designs is not None:
            changes["designs"] = tuple(designs)
        if hidden_sizes is not None:
            changes["hidden_sizes"] = tuple(hidden_sizes)
        if env_ids is not None:
            changes["env_ids"] = tuple(env_ids)
        if n_seeds is not None:
            changes["n_seeds"] = n_seeds
        return replace(self, **changes)

    # ------------------------------------------------------------------ JSON
    def to_json(self) -> Dict[str, Any]:
        """Plain-dict form (lists instead of tuples), inverse of :meth:`from_json`."""
        data = asdict(self)
        data["designs"] = list(self.designs)
        data["hidden_sizes"] = list(self.hidden_sizes)
        data["env_ids"] = list(self.env_ids)
        data["format_version"] = SPEC_FORMAT_VERSION
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output (unknown keys rejected)."""
        payload = dict(data)
        payload.pop("format_version", None)
        budget_data = payload.pop("budget", None)
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        budget = Budget(**budget_data) if budget_data is not None else Budget()
        return cls(budget=budget, **payload)

    def canonical_json(self) -> str:
        """Key-sorted compact JSON — the content-addressing input.

        Pure *execution hints* (``max_workers``) are excluded: they change
        how fast a run executes, never what it computes (backend
        equivalence is the library's core guarantee), so two specs that
        differ only in hints share one identity, one run record and one
        set of cached trials.
        """
        data = self.to_json()
        data.pop("max_workers", None)
        if not data.get("env_overrides"):
            # Specs predating (or not using) per-env overrides keep their
            # historical hash — and their cached artifacts.
            data.pop("env_overrides", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """Stable hex digest of the canonical JSON form."""
        return stable_digest(self.canonical_json())


__all__ = ["Budget", "EXPERIMENT_KINDS", "ExperimentSpec", "SPEC_FORMAT_VERSION"]
