"""Named experiment registry: the deliverables behind ``repro run <name>``.

Every paper deliverable is registered here as a pair of
:class:`~repro.api.spec.ExperimentSpec` variants — ``paper`` (the full
Section 4 protocol) and ``ci`` (a minutes-scale budget the benchmark suite
and the CI workflow run on every push).  The two variants of one experiment
share the grid machinery, the seed formula and the execution engine; they
differ only in declarative fields.

Built-ins
---------
``figure4``
    Training curves of the six software designs (Section 4.3).
``figure5`` / ``table2``
    Execution time to complete CartPole-v0 under the PYNQ-Z1 latency model
    (Section 4.4; ``table2`` is an alias — the paper prints the same
    numbers as a table and as Figure 5's bars, and the alias shares the
    cache because both names resolve to the identical spec).
``table3``
    FPGA resource utilization of the OS-ELM Q-Network core (analytical
    area model; no training trials).
``autoscale`` / ``autoscale_ci``
    The systems env family: the software designs autoscaling the
    ``Autoscale-v0`` queueing workload (the ci variant shortens episodes
    through ``env_overrides``).

User specs register with :func:`register_experiment` — see
``examples/custom_experiment.py`` for an Acrobot/MountainCar scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.designs import DESIGN_NAMES, SOFTWARE_DESIGNS
from repro.api.spec import Budget, ExperimentSpec

#: Scale names accepted by :func:`get_spec` and the CLI.
SCALES = ("paper", "ci")

#: The minutes-scale budget shared by the built-in CI variants.
CI_BUDGET = Budget(max_episodes=60, solved_threshold=60.0, solved_window=20)


@dataclass(frozen=True)
class RegisteredExperiment:
    """One registry entry: a name bound to its paper- and ci-scale specs."""

    name: str
    paper: ExperimentSpec
    ci: ExperimentSpec
    description: str = ""
    alias_of: Optional[str] = None     #: set when this name aliases another entry

    def spec(self, scale: str = "paper") -> ExperimentSpec:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
        return self.paper if scale == "paper" else self.ci


_REGISTRY: Dict[str, RegisteredExperiment] = {}


def register_experiment(paper: ExperimentSpec, ci: Optional[ExperimentSpec] = None, *,
                        name: Optional[str] = None, description: str = "",
                        overwrite: bool = False) -> RegisteredExperiment:
    """Register an experiment under ``name`` (default: the paper spec's name).

    Parameters
    ----------
    paper:
        The full-scale spec.
    ci:
        The minutes-scale variant; defaults to ``paper`` itself when the
        experiment is already cheap.
    overwrite:
        Allow replacing an existing entry (built-ins are protected unless
        this is set).
    """
    entry_name = name or paper.name
    if entry_name in _REGISTRY and not overwrite:
        raise ValueError(
            f"experiment {entry_name!r} is already registered; pass overwrite=True "
            "to replace it")
    entry = RegisteredExperiment(name=entry_name, paper=paper, ci=ci or paper,
                                 description=description or paper.description)
    _REGISTRY[entry_name] = entry
    return entry


def register_alias(alias: str, target: str, *, overwrite: bool = False) -> RegisteredExperiment:
    """Register ``alias`` to resolve to the exact specs of ``target``.

    Because the specs are shared objects (identical hashes), runs under
    either name hit the same artifact-store entries.
    """
    entry = get_entry(target)
    if alias in _REGISTRY and not overwrite:
        raise ValueError(f"experiment {alias!r} is already registered")
    aliased = RegisteredExperiment(name=alias, paper=entry.paper, ci=entry.ci,
                                   description=f"alias of {target!r}: {entry.description}",
                                   alias_of=target)
    _REGISTRY[alias] = aliased
    return aliased


def unregister_experiment(name: str) -> None:
    """Remove an entry (primarily for tests); unknown names are a no-op."""
    _REGISTRY.pop(name, None)


def get_entry(name: str) -> RegisteredExperiment:
    """Look up a registry entry by name; raises ``KeyError`` with suggestions."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"no experiment named {name!r}; registered: {known}") from None


def get_spec(name: str, scale: str = "paper") -> ExperimentSpec:
    """Resolve a registered name to its spec at the requested scale."""
    return get_entry(name).spec(scale)


def list_experiments() -> List[RegisteredExperiment]:
    """All registry entries, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ---------------------------------------------------------------------- built-ins

def _register_builtins() -> None:
    figure4_paper = ExperimentSpec(
        name="figure4",
        kind="training_curve",
        designs=SOFTWARE_DESIGNS,
        hidden_sizes=(32, 64, 128, 192),
        seed=42,
        seed_stride=17,
        seed_mod=997,
        description="Training curves of the six software designs (Figure 4)",
    )
    figure4_ci = figure4_paper.with_grid(
        designs=("OS-ELM-L2-Lipschitz", "DQN"), hidden_sizes=(32,),
    ).with_budget(CI_BUDGET)
    register_experiment(figure4_paper, figure4_ci)

    figure5_paper = ExperimentSpec(
        name="figure5",
        kind="execution_time",
        designs=DESIGN_NAMES,
        hidden_sizes=(32, 64, 128, 192),
        seed=7,
        seed_stride=13,
        seed_mod=991,
        description="Modelled execution time to complete CartPole-v0 "
                    "(Figure 5 / Table 2)",
    )
    figure5_ci = figure5_paper.with_grid(
        designs=("OS-ELM-L2-Lipschitz", "DQN", "FPGA"), hidden_sizes=(32,),
    ).with_budget(CI_BUDGET)
    register_experiment(figure5_paper, figure5_ci)
    register_alias("table2", "figure5")

    table3 = ExperimentSpec(
        name="table3",
        kind="resource_table",
        hidden_sizes=(32, 64, 128, 192, 256),
        description="FPGA resource utilization of the OS-ELM core (Table 3)",
    )
    register_experiment(table3, table3)

    # The systems env family: the six software designs autoscaling a
    # queueing workload.  reward_shaping stays off — the env's own
    # latency/cost reward is the training signal — and the solved criterion
    # is on survival steps (episodes terminate on backlog overload).
    autoscale_paper = ExperimentSpec(
        name="autoscale",
        kind="training_curve",
        designs=SOFTWARE_DESIGNS,
        hidden_sizes=(32, 64, 128),
        env_ids=("Autoscale-v0",),
        n_seeds=3,
        seed=2718,
        seed_stride=19,
        seed_mod=983,
        budget=Budget(max_episodes=400, solved_threshold=350.0,
                      solved_window=50, reward_shaping=False),
        description="OS-ELM vs DQN designs autoscaling a queueing workload "
                    "(systems env family)",
    )
    autoscale_ci = ExperimentSpec(
        name="autoscale_ci",
        kind="training_curve",
        designs=("OS-ELM-L2-Lipschitz", "DQN"),
        hidden_sizes=(32,),
        env_ids=("Autoscale-v0",),
        n_seeds=1,
        seed=2718,
        seed_stride=19,
        seed_mod=983,
        budget=Budget(max_episodes=15, solved_threshold=45.0,
                      solved_window=10, reward_shaping=False),
        env_overrides={"Autoscale-v0": {"env_params": {"max_episode_steps": 50}}},
        description="Minutes-scale autoscale variant (short episodes via "
                    "env_overrides)",
    )
    register_experiment(autoscale_paper, autoscale_ci)
    # Also addressable directly (`repro run autoscale_ci`); both names
    # resolve to the identical spec object, so they share one cache.
    register_experiment(autoscale_ci)


_register_builtins()

__all__ = [
    "CI_BUDGET",
    "RegisteredExperiment",
    "SCALES",
    "get_entry",
    "get_spec",
    "list_experiments",
    "register_alias",
    "register_experiment",
    "unregister_experiment",
]
