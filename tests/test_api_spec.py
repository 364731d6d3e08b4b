"""Tests for the declarative spec layer: ExperimentSpec, Budget, registry."""

import json

import pytest

from repro.api import (
    Budget,
    ExperimentSpec,
    get_entry,
    get_spec,
    list_experiments,
    register_alias,
    register_experiment,
    unregister_experiment,
)
from repro.utils.seeding import stable_digest, stable_hash


class TestBudget:
    def test_training_config_materialization(self):
        budget = Budget(max_episodes=10, solved_threshold=50.0, solved_window=5)
        config = budget.training_config(env_id="CartPole-v1", seed=3)
        assert config.env_id == "CartPole-v1"
        assert config.max_episodes == 10
        assert config.solved_threshold == 50.0
        assert config.seed == 3

    def test_round_trip_via_training_config(self):
        budget = Budget(max_episodes=7, reward_shaping=False, record_lipschitz=True)
        config = budget.training_config(env_id="CartPole-v0")
        assert Budget.from_training_config(config) == budget


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="")
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", kind="nope")
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", designs=())
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", designs=("NoSuchDesign",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", hidden_sizes=())
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", n_seeds=0)
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", designs=("ELM", "ELM"))

    def test_json_round_trip(self):
        spec = ExperimentSpec(
            name="round-trip", kind="execution_time",
            designs=("ELM", "DQN"), hidden_sizes=(16, 32),
            env_ids=("CartPole-v0",), n_seeds=3, seed=5, gamma=0.9,
            budget=Budget(max_episodes=12, solved_threshold=30.0),
            seed_stride=13, seed_mod=991, description="d")
        # Through actual JSON text, not just the dict form.
        rebuilt = ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec
        assert rebuilt.spec_hash == spec.spec_hash

    def test_from_json_rejects_unknown_fields(self):
        data = ExperimentSpec(name="x").to_json()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec.from_json(data)

    def test_spec_hash_sensitivity(self):
        base = ExperimentSpec(name="h", designs=("ELM",), hidden_sizes=(16,))
        assert base.spec_hash == ExperimentSpec(name="h", designs=("ELM",),
                                                hidden_sizes=(16,)).spec_hash
        assert base.spec_hash != base.with_budget(max_episodes=9).spec_hash
        assert base.spec_hash != base.with_grid(hidden_sizes=(32,)).spec_hash

    def test_trial_seed_matches_legacy_formula(self):
        """The figure4/figure5 specs must derive exactly the seeds the
        paper reports have always been pinned under (strides 17/997, 13/991)."""
        spec = get_spec("figure4", scale="paper")
        for design in spec.designs:
            for n_hidden in spec.hidden_sizes:
                legacy = 42 + 17 * n_hidden + stable_hash(design) % 997
                assert spec.trial_seed(design, n_hidden, trial=0) == legacy
        figure5 = get_spec("figure5", scale="paper")
        assert (figure5.trial_seed("DQN", 32)
                == 7 + 13 * 32 + stable_hash("DQN") % 991)

    def test_tasks_expansion(self):
        spec = ExperimentSpec(name="grid", designs=("ELM", "DQN"),
                              hidden_sizes=(8, 16), n_seeds=2,
                              budget=Budget(max_episodes=3))
        tasks = spec.tasks()
        assert len(tasks) == spec.n_trials == 8
        assert len({task.seed for task in tasks}) == 8
        for task in tasks:
            assert task.training.seed == task.seed
            assert task.training.max_episodes == 3
            assert (task.n_states, task.n_actions) == (4, 2)   # CartPole dims

    def test_tasks_pick_up_env_dimensions(self):
        spec = ExperimentSpec(name="mc", designs=("OS-ELM-L2",),
                              hidden_sizes=(8,), env_ids=("MountainCar-v0",),
                              budget=Budget(max_episodes=2, reward_shaping=False))
        task = spec.tasks()[0]
        assert (task.n_states, task.n_actions) == (2, 3)
        agent = task.make_agent()
        assert agent.config.n_states == 2
        assert agent.config.n_actions == 3

    def test_multi_env_seeds_distinct(self):
        spec = ExperimentSpec(name="envs", designs=("OS-ELM-L2",),
                              hidden_sizes=(8,),
                              env_ids=("CartPole-v0", "CartPole-v1"),
                              budget=Budget(max_episodes=2))
        seeds = [task.seed for task in spec.tasks()]
        assert len(set(seeds)) == 2
        # Env 0 keeps the legacy (env-free) formula.
        assert seeds[0] == spec.trial_seed("OS-ELM-L2", 8, 0, env_index=0)

    def test_resource_table_has_no_trials(self):
        spec = get_spec("table3")
        assert spec.kind == "resource_table"
        assert spec.n_trials == 0
        assert spec.tasks() == []


class TestStableDigest:
    def test_stable_and_distinct(self):
        assert stable_digest("abc") == stable_digest("abc")
        assert stable_digest("abc") != stable_digest("abd")
        assert len(stable_digest("abc")) == 16
        assert len(stable_digest("abc", length=8)) == 8
        with pytest.raises(ValueError):
            stable_digest("abc", length=0)


class TestRegistry:
    def test_builtins_present(self):
        names = {entry.name for entry in list_experiments()}
        assert {"figure4", "figure5", "table2", "table3"} <= names

    def test_figure4_variants(self):
        paper = get_spec("figure4", scale="paper")
        ci = get_spec("figure4", scale="ci")
        assert paper.kind == ci.kind == "training_curve"
        assert paper.budget.max_episodes == 50_000
        assert ci.budget.max_episodes == 60
        # Scales share the seed machinery; only declarative fields differ.
        assert (paper.seed, paper.seed_stride, paper.seed_mod) == \
            (ci.seed, ci.seed_stride, ci.seed_mod)

    def test_table2_aliases_figure5(self):
        assert get_entry("table2").alias_of == "figure5"
        assert get_spec("table2") is get_spec("figure5")   # shared cache keys

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="figure4"):
            get_spec("figure99")
        with pytest.raises(ValueError):
            get_entry("figure4").spec("huge")

    def test_register_and_unregister(self):
        spec = ExperimentSpec(name="custom-test-spec", designs=("ELM",),
                              hidden_sizes=(8,), budget=Budget(max_episodes=2))
        try:
            register_experiment(spec)
            assert get_spec("custom-test-spec") == spec
            assert get_spec("custom-test-spec", scale="ci") == spec   # defaults to paper
            with pytest.raises(ValueError, match="already registered"):
                register_experiment(spec)
            register_alias("custom-alias", "custom-test-spec")
            assert get_spec("custom-alias") is spec
        finally:
            unregister_experiment("custom-test-spec")
            unregister_experiment("custom-alias")
        with pytest.raises(KeyError):
            get_spec("custom-test-spec")


class TestPinnedSpecHashes:
    """The built-in specs' content hashes, pinned against the values the
    registry produced before the env-family generalization (env_overrides,
    registry-derived dimensions).  A changed hash silently orphans every
    cached trial of that spec — any diff here must be deliberate."""

    PINNED = {
        ("figure4", "paper"): "b886779f63af43a9",
        ("figure4", "ci"): "4c017fa5d8bf5ce7",
        ("figure5", "paper"): "1d560342ab4157be",
        ("figure5", "ci"): "4bcc172f31dabbe0",
        ("table3", "paper"): "649916b9cab4a3a5",
        ("table3", "ci"): "649916b9cab4a3a5",
    }

    @pytest.mark.parametrize("name,scale", sorted(PINNED))
    def test_builtin_spec_hash_unchanged(self, name, scale):
        assert get_spec(name, scale=scale).spec_hash == self.PINNED[(name, scale)]


class TestSpecMaxWorkers:
    def test_default_is_none_and_round_trips(self):
        spec = ExperimentSpec(name="mw", designs=("ELM",), hidden_sizes=(8,))
        assert spec.max_workers is None
        hinted = ExperimentSpec(name="mw", designs=("ELM",), hidden_sizes=(8,),
                                max_workers=3)
        assert ExperimentSpec.from_json(hinted.to_json()).max_workers == 3
        # Old spec JSONs (no max_workers key) still load.
        legacy = spec.to_json()
        legacy.pop("max_workers")
        assert ExperimentSpec.from_json(legacy).max_workers is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExperimentSpec(name="mw", designs=("ELM",), hidden_sizes=(8,),
                           max_workers=0)

    def test_execution_hint_excluded_from_content_hash(self):
        """max_workers changes how fast a run executes, never what it
        computes — two specs differing only in the hint must share one
        content identity (run record, cached trials)."""
        plain = ExperimentSpec(name="mw", designs=("ELM",), hidden_sizes=(8,))
        hinted = ExperimentSpec(name="mw", designs=("ELM",), hidden_sizes=(8,),
                                max_workers=3)
        assert plain.spec_hash == hinted.spec_hash
        assert "max_workers" not in plain.canonical_json()
        # ...while the round-trippable JSON form still carries it.
        assert hinted.to_json()["max_workers"] == 3

    def test_engine_falls_back_to_spec_hint(self, monkeypatch):
        """run(max_workers=None) must plumb the spec's own hint into the
        SweepRunner; an explicit argument wins over the hint."""
        from repro.api import engine as engine_module
        from repro.api.spec import Budget

        seen = []
        real_runner = engine_module.SweepRunner

        class _SpyRunner(real_runner):
            def __init__(self, spec, **kwargs):
                seen.append(kwargs.get("max_workers"))
                super().__init__(spec, **kwargs)

        monkeypatch.setattr(engine_module, "SweepRunner", _SpyRunner)
        spec = ExperimentSpec(name="mw-hint", designs=("ELM",),
                              hidden_sizes=(8,), budget=Budget(max_episodes=2),
                              max_workers=2)
        engine_module.run(spec, backend="serial")
        engine_module.run(spec, backend="serial", max_workers=5)
        assert seen == [2, 5]
