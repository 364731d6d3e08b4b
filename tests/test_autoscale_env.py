"""The systems env family: Autoscale-v0 dynamics, bit-identity, spec API.

Three layers under test, mirroring the env-family redesign:

* the queueing simulator itself — seeded determinism, reward bounds,
  overload termination, the cold-start pipeline;
* the generic vectorized fast path — ``SyncVectorEnv`` must drive
  ``AutoscaleEnv.batch_dynamics`` bit-identically to the per-env loop, and
  the unified Trainer's serial and lock-step drivers must produce
  float-exact identical curves (the same ``.hex()`` discipline as
  ``test_training_equivalence.py``);
* the spec/registry generalization — ``EnvSpec`` capability metadata,
  registry-derived ``SweepTask`` dimensions with the deprecation path for
  explicit overrides, and ``ExperimentSpec.env_overrides`` plumbing.
"""

import warnings

import numpy as np
import pytest

from repro.api import ArtifactStore, Budget, ExperimentSpec, get_spec, run
from repro.core.designs import make_design
from repro.envs import AutoscaleEnv, AutoscaleParams
from repro.envs.registry import (
    env_dimensions,
    make as make_env,
    register as register_env,
    registry as registry_dict,
    spec as env_spec,
)
from repro.parallel import EnvFactory, SyncVectorEnv
from repro.parallel.sweep import SweepRunner, SweepSpec, SweepTask
from repro.training import Trainer, TrainingConfig

N_DIMS = AutoscaleParams().n_state_dims


def _autoscale_factories(n, *, base_seed=300, **kwargs):
    return [EnvFactory("Autoscale-v0", seed=base_seed + i,
                       kwargs=tuple(sorted(kwargs.items()))) for i in range(n)]


# ------------------------------------------------------------------- dynamics
class TestAutoscaleEnv:
    def test_reset_shape_and_initial_fleet(self):
        env = AutoscaleEnv(seed=5)
        obs, info = env.reset()
        params = env.params
        assert obs.shape == (N_DIMS,)
        assert obs[0] == params.initial_replicas / params.max_replicas
        assert obs[1] == 0.0                       # empty backlog
        assert 0.0 <= obs[5] < 1.0                 # the episode's diurnal phase

    def test_same_seed_same_trajectory(self):
        def rollout(seed):
            env = AutoscaleEnv(seed=seed)
            obs, _ = env.reset()
            trace = [obs]
            for step in range(60):
                result = env.step(step % 3)
                trace.append(result.observation)
                if result.terminated or result.truncated:
                    break
            return np.array(trace)

        np.testing.assert_array_equal(rollout(11), rollout(11))
        assert not np.array_equal(rollout(11), rollout(12))

    def test_reward_bounds(self):
        env = AutoscaleEnv(seed=3)
        env.reset()
        worst = -(env.params.latency_weight + env.params.cost_weight)
        for step in range(200):
            result = env.step(env.action_space.sample())
            assert worst <= result.reward < 0.0    # cost > 0 while fleet > 0
            if result.terminated or result.truncated:
                env.reset()

    def test_scale_down_policy_overloads(self):
        """Retiring replicas forever must eventually overflow the queue."""
        env = AutoscaleEnv(seed=0, max_episode_steps=None)
        env.reset()
        for _ in range(2000):
            result = env.step(0)
            if result.terminated:
                assert result.observation[1] >= 1.0   # backlog >= queue_limit
                break
        else:
            pytest.fail("scale-to-min policy never overloaded")

    def test_cold_start_pipeline_delays_launches(self):
        """A launched replica joins the warm pool only after cold_start_steps."""
        params = AutoscaleParams(burst_start_probability=0.0)
        env = AutoscaleEnv(seed=9, params=params)
        obs, _ = env.reset()
        warm0 = obs[0]
        result = env.step(2)                        # launch
        assert result.observation[0] == warm0       # still cold
        assert result.observation[7:].sum() > 0.0   # sitting in the pipeline
        for _ in range(params.cold_start_steps):
            result = env.step(1)                    # hold while it warms
        assert result.observation[0] == warm0 + 1.0 / params.max_replicas

    def test_truncates_at_max_episode_steps(self):
        env = AutoscaleEnv(seed=21, max_episode_steps=7)
        env.reset()
        for _ in range(6):
            result = env.step(1)
            assert not result.truncated
        result = env.step(1)
        assert result.truncated

    def test_power_of_two_scales_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            AutoscaleParams(queue_limit=1000.0)
        with pytest.raises(ValueError, match="cold_start_steps"):
            AutoscaleParams(cold_start_steps=0)

    def test_serial_step_is_one_row_batch_dynamics(self):
        """The serial env must walk the exact stream batch_dynamics defines."""
        env = AutoscaleEnv(seed=17)
        obs, _ = env.reset()
        shadow_rng = np.random.default_rng(np.random.SeedSequence(17))
        shadow_state = obs[None, :].copy()
        # Re-draw the reset's phase so the shadow generator stays in sync.
        shadow_rng.random()
        for step in range(50):
            expected, rewards, terminated = AutoscaleEnv.batch_dynamics(
                shadow_state, np.array([step]), np.array([1]), env.params,
                [shadow_rng])
            result = env.step(1)
            np.testing.assert_array_equal(result.observation, expected[0])
            assert result.reward == rewards[0]
            shadow_state = expected


# ------------------------------------------------- vectorized generic fast path
class TestGenericBatchedPath:
    def test_fast_path_enabled_for_uniform_autoscale(self):
        venv = SyncVectorEnv(_autoscale_factories(3))
        assert venv.uses_batch_dynamics
        assert not venv.uses_batch_physics      # CartPole's dedicated hook only
        off = SyncVectorEnv(_autoscale_factories(3), batch_physics=False)
        assert not off.uses_batch_dynamics

    def test_fast_path_disabled_for_mixed_params(self):
        heavy = AutoscaleParams(service_rate=4.0)
        fns = [lambda: make_env("Autoscale-v0", seed=0),
               lambda: AutoscaleEnv(params=heavy, seed=1)]
        assert not SyncVectorEnv(fns).uses_batch_dynamics

    def test_batched_matches_per_env_loop_bit_for_bit(self):
        fns = _autoscale_factories(4, max_episode_steps=90)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        assert fast.uses_batch_dynamics and not slow.uses_batch_dynamics
        obs_fast, _ = fast.reset(seed=23)
        obs_slow, _ = slow.reset(seed=23)
        np.testing.assert_array_equal(obs_fast, obs_slow)
        rng = np.random.default_rng(1)
        for _ in range(400):                    # crosses autoresets
            actions = rng.integers(0, 3, size=4)
            rf, rs = fast.step(actions), slow.step(actions)
            np.testing.assert_array_equal(rf.observations, rs.observations)
            np.testing.assert_array_equal(rf.rewards, rs.rewards)
            np.testing.assert_array_equal(rf.terminated, rs.terminated)
            np.testing.assert_array_equal(rf.truncated, rs.truncated)
            for info_fast, info_slow in zip(rf.infos, rs.infos):
                if "final_observation" in info_fast or "final_observation" in info_slow:
                    np.testing.assert_array_equal(
                        info_fast["final_observation"],
                        info_slow["final_observation"])


# ------------------------------------------------------ trainer bit-identity
def _autoscale_config(seed, max_episodes=3):
    return TrainingConfig(env_id="Autoscale-v0", max_episodes=max_episodes,
                          max_steps_per_episode=60, solved_threshold=55.0,
                          solved_window=5, reward_shaping=False, seed=seed)


class TestSerialLockstepBitIdentity:
    @pytest.mark.parametrize("design", ["OS-ELM-L2-Lipschitz", "DQN"])
    def test_fit_equals_fit_lockstep(self, design):
        def agent(seed):
            return make_design(design, n_states=N_DIMS, n_actions=3,
                               n_hidden=8, seed=seed)

        serial = Trainer().fit(agent(31), config=_autoscale_config(31),
                               n_hidden=8)
        lockstep = Trainer().fit_lockstep([agent(31)], [_autoscale_config(31)],
                                          strategy="generic")[0]
        assert [r.steps for r in serial.curve.records] \
            == [r.steps for r in lockstep.curve.records]
        # .hex() round-trips floats exactly: these are byte-identity checks.
        assert [r.shaped_return.hex() for r in serial.curve.records] \
            == [r.shaped_return.hex() for r in lockstep.curve.records]
        assert [r.moving_average.hex() for r in serial.curve.records] \
            == [r.moving_average.hex() for r in lockstep.curve.records]

    def test_mixed_design_lockstep_batch_matches_serial(self):
        designs = ["OS-ELM", "DQN", "FPGA"]
        agents = [make_design(d, n_states=N_DIMS, n_actions=3, n_hidden=8,
                              seed=40 + i) for i, d in enumerate(designs)]
        configs = [_autoscale_config(40 + i) for i in range(len(designs))]
        batch = Trainer().fit_lockstep(agents, configs, strategy="generic")
        for i, design in enumerate(designs):
            solo = Trainer().fit(
                make_design(design, n_states=N_DIMS, n_actions=3, n_hidden=8,
                            seed=40 + i),
                config=configs[i], n_hidden=8)
            assert [r.steps for r in solo.curve.records] \
                == [r.steps for r in batch[i].curve.records], design

    def test_vectorized_backend_reports_lockstep(self):
        spec = SweepSpec(designs=("OS-ELM-L2-Lipschitz", "DQN"), n_seeds=1,
                         n_hidden=8, training=_autoscale_config(None, 2),
                         root_seed=13)
        vec = SweepRunner(spec, backend="vectorized").run()
        assert set(vec.backends_used) == {"lockstep"}
        ser = SweepRunner(spec, backend="serial").run()
        for vec_result, ser_result in zip(vec.results_for(), ser.results_for()):
            np.testing.assert_array_equal(vec_result.curve.steps,
                                          ser_result.curve.steps)


# -------------------------------------------------------- registry metadata
class TestEnvRegistryMetadata:
    def test_autoscale_spec_capabilities(self):
        spec = env_spec("Autoscale-v0")
        assert spec.n_states == N_DIMS
        assert spec.n_actions == 3
        assert spec.supports_batch_dynamics is True
        assert spec.family == "systems"

    def test_classic_control_family_default(self):
        assert env_spec("CartPole-v0").family == "classic-control"
        assert env_spec("CartPole-v0").supports_batch_dynamics is True
        assert env_spec("MountainCar-v0").supports_batch_dynamics is False

    def test_env_dimensions_answered_from_metadata(self):
        """With metadata present the factory must never be called."""
        def exploding_factory(**kwargs):
            raise AssertionError("metadata lookup must not instantiate")

        register_env("MetaOnly-v0", exploding_factory, n_states=12, n_actions=5)
        try:
            assert env_dimensions("MetaOnly-v0") == (12, 5)
        finally:
            registry_dict.pop("MetaOnly-v0", None)

    def test_env_dimensions_falls_back_to_instantiation(self):
        register_env("NoMeta-v0", lambda **kw: AutoscaleEnv(**kw))
        try:
            assert env_dimensions("NoMeta-v0") == (N_DIMS, 3)
        finally:
            registry_dict.pop("NoMeta-v0", None)


class TestSweepTaskDimensionDerivation:
    def test_dims_derived_from_registry(self):
        task = SweepTask(design="DQN", env_id="Autoscale-v0", n_hidden=8,
                         gamma=0.99, seed=1, trial=0,
                         training=TrainingConfig(max_episodes=1))
        assert (task.n_states, task.n_actions) == (N_DIMS, 3)

    def test_matching_explicit_dims_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            task = SweepTask(design="DQN", env_id="CartPole-v0", n_hidden=8,
                             gamma=0.99, seed=1, trial=0,
                             training=TrainingConfig(max_episodes=1),
                             n_states=4, n_actions=2)
        assert (task.n_states, task.n_actions) == (4, 2)

    def test_contradicting_explicit_dims_raise(self):
        with pytest.raises(ValueError, match="registry"):
            SweepTask(design="DQN", env_id="CartPole-v0", n_hidden=8,
                      gamma=0.99, seed=1, trial=0,
                      training=TrainingConfig(max_episodes=1),
                      n_states=6, n_actions=3)

    @pytest.mark.parametrize("explicit", [{"n_states": 6}, {"n_actions": 3},
                                          {"n_states": 6, "n_actions": 2}])
    def test_one_contradicting_explicit_dim_raises(self, explicit):
        with pytest.raises(ValueError, match="registry"):
            SweepTask(design="DQN", env_id="CartPole-v0", n_hidden=8,
                      gamma=0.99, seed=1, trial=0,
                      training=TrainingConfig(max_episodes=1), **explicit)

    def test_unregistered_env_requires_and_keeps_explicit_dims(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            task = SweepTask(design="DQN", env_id="NotRegistered-v9", n_hidden=8,
                             gamma=0.99, seed=1, trial=0,
                             training=TrainingConfig(max_episodes=1),
                             n_states=3, n_actions=2)
        assert (task.n_states, task.n_actions) == (3, 2)


# ------------------------------------------------------------- env_overrides
class TestEnvOverrides:
    def _spec(self, **overrides):
        defaults = dict(
            name="ov", designs=("OS-ELM-L2",), hidden_sizes=(8,),
            env_ids=("Autoscale-v0",),
            budget=Budget(max_episodes=4, solved_threshold=45.0,
                          solved_window=5, reward_shaping=False))
        defaults.update(overrides)
        return ExperimentSpec(**defaults)

    def test_budget_and_env_params_overrides_reach_tasks(self):
        spec = self._spec(env_overrides={"Autoscale-v0": {
            "max_episodes": 9,
            "env_params": {"max_episode_steps": 50}}})
        task = spec.tasks()[0]
        assert task.training.max_episodes == 9
        assert task.training.env_params == (("max_episode_steps", 50),)
        assert spec.env_budget("Autoscale-v0").max_episodes == 9
        assert spec.env_params("Autoscale-v0") == {"max_episode_steps": 50}

    def test_overrides_scoped_per_env(self):
        spec = self._spec(env_ids=("CartPole-v0", "Autoscale-v0"),
                          env_overrides={"Autoscale-v0": {"max_episodes": 2}})
        by_env = {task.env_id: task for task in spec.tasks()}
        assert by_env["Autoscale-v0"].training.max_episodes == 2
        assert by_env["CartPole-v0"].training.max_episodes == 4

    def test_unknown_env_or_field_rejected(self):
        with pytest.raises(ValueError, match="env_overrides"):
            self._spec(env_overrides={"MountainCar-v0": {"max_episodes": 2}})
        with pytest.raises(ValueError, match="env_overrides"):
            self._spec(env_overrides={"Autoscale-v0": {"bogus_knob": 1}})

    def test_empty_overrides_excluded_from_hash(self):
        """Pre-existing specs must keep their spec_hash: an empty
        env_overrides may not enter the canonical form."""
        plain = self._spec()
        explicit = self._spec(env_overrides={})
        assert plain.spec_hash == explicit.spec_hash
        assert "env_overrides" not in plain.canonical_json()
        loaded = ExperimentSpec.from_json(plain.to_json())
        assert loaded == plain and loaded.spec_hash == plain.spec_hash

    def test_non_empty_overrides_change_hash_and_round_trip(self):
        spec = self._spec(env_overrides={"Autoscale-v0": {"max_episodes": 9}})
        assert spec.spec_hash != self._spec().spec_hash
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec and rebuilt.spec_hash == spec.spec_hash


# ----------------------------------------------------- registered experiments
class TestAutoscaleSpecs:
    def test_registered_variants(self):
        paper = get_spec("autoscale", scale="paper")
        ci = get_spec("autoscale", scale="ci")
        assert paper.env_ids == ci.env_ids == ("Autoscale-v0",)
        assert paper.budget.reward_shaping is False
        assert ci is get_spec("autoscale_ci")        # shared cache identity
        assert ci.env_params("Autoscale-v0") == {"max_episode_steps": 50}

    def test_ci_run_serial_vs_vectorized_byte_identical(self, tmp_path):
        from repro.api.reports import summary_csv

        spec = get_spec("autoscale_ci")
        serial = run(spec, backend="serial")
        vectorized = run(spec, backend="vectorized")
        assert {record.backend_used for record in vectorized.trials} \
            == {"lockstep"}
        assert summary_csv(serial) == summary_csv(vectorized)

    def test_save_policy_serve_round_trip(self, tmp_path):
        from repro.serving import PolicyClient, PolicyServer, load_spec_policies

        spec = get_spec("autoscale_ci")
        run(spec, backend="serial", out=str(tmp_path), save_policy=True)
        store = ArtifactStore(tmp_path)
        policies, problems = load_spec_policies(store, spec)
        assert problems == []
        assert sorted(policies) == sorted(spec.designs)
        design = "OS-ELM-L2-Lipschitz"
        agent = policies[design]
        states = np.random.default_rng(0).uniform(0.0, 1.0, size=(8, N_DIMS))
        with PolicyServer({design: agent}) as server:
            with PolicyClient(*server.address) as client:
                served = [client.act(state, design=design) for state in states]
        offline = [agent.act(state, explore=False) for state in states]
        assert served == offline
