"""Tests for the vector-env layer: semantics, auto-reset, frame skip."""

import numpy as np
import pytest

from repro.envs.cartpole import CartPoleEnv, CartPoleParams
from repro.envs.registry import make as make_env
from repro.envs.wrappers import ActionRepeat, TimeLimit
from repro.parallel import (
    EnvFactory,
    SyncVectorEnv,
    VectorStepResult,
    make_vector,
)


def _factories(n, *, base_seed=100, **kwargs):
    return [EnvFactory("CartPole-v0", seed=base_seed + i,
                       kwargs=tuple(sorted(kwargs.items()))) for i in range(n)]


class TestVectorStepResult:
    def test_dones_combines_flags(self):
        result = VectorStepResult(np.zeros((2, 4)), np.ones(2),
                                  np.array([True, False]), np.array([False, False]))
        np.testing.assert_array_equal(result.dones, [True, False])

    def test_iterates_as_tuple(self):
        result = VectorStepResult(np.zeros((2, 4)), np.ones(2),
                                  np.zeros(2, bool), np.zeros(2, bool), [{}, {}])
        obs, rewards, terminated, truncated, infos = result
        assert obs.shape == (2, 4) and len(infos) == 2


class TestSyncVectorEnv:
    def test_reset_and_step_shapes(self):
        venv = SyncVectorEnv(_factories(3))
        observations, infos = venv.reset()
        assert observations.shape == (3, 4) and len(infos) == 3
        result = venv.step(np.array([0, 1, 0]))
        assert result.observations.shape == (3, 4)
        assert result.rewards.shape == (3,)
        assert result.terminated.dtype == bool and result.truncated.dtype == bool

    def test_seeded_reset_reproducible(self):
        venv = SyncVectorEnv(_factories(3))
        first, _ = venv.reset(seed=42)
        second, _ = venv.reset(seed=42)
        np.testing.assert_array_equal(first, second)
        # spawn_seeds decorrelates the sub-envs from each other.
        assert not np.array_equal(first[0], first[1])

    def test_wrong_action_count_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.array([0, 1, 0]))

    def test_invalid_action_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.array([0, 7]))

    def test_non_integer_actions_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        venv.reset()
        with pytest.raises(ValueError, match="integer"):
            venv.step(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            venv.step(np.array([True, False]))

    def test_step_before_reset_rejected(self):
        venv = SyncVectorEnv(_factories(2))
        with pytest.raises(RuntimeError):
            venv.step(np.array([0, 1]))

    def test_truncation_flag_per_env(self):
        venv = SyncVectorEnv(_factories(2, max_episode_steps=5))
        venv.reset(seed=0)
        for _ in range(4):
            result = venv.step(np.array([0, 1]))
        # By step 5 any env still alive must report truncated (not terminated).
        result = venv.step(np.array([0, 1]))
        for i in range(2):
            assert result.terminated[i] or result.truncated[i]

    def test_autoreset_returns_fresh_obs_and_final_observation(self):
        venv = SyncVectorEnv(_factories(2, max_episode_steps=3))
        venv.reset(seed=1)
        result = None
        for _ in range(3):
            result = venv.step(np.array([1, 1]))
        done_envs = np.flatnonzero(result.dones)
        assert done_envs.size > 0
        for i in done_envs:
            final = result.infos[i]["final_observation"]
            assert final.shape == (4,)
            # The returned row is the next episode's initial state, which is
            # drawn from U[-0.05, 0.05] and distinct from the terminal state.
            assert not np.array_equal(final, result.observations[i])
            assert np.all(np.abs(result.observations[i]) <= 0.05)

    def test_batch_physics_enabled_for_uniform_cartpoles(self):
        assert SyncVectorEnv(_factories(2)).uses_batch_physics
        assert not SyncVectorEnv(_factories(2), batch_physics=False).uses_batch_physics

    def test_batch_physics_disabled_for_mixed_params(self):
        heavy = CartPoleParams(cart_mass=2.0)
        fns = [lambda: make_env("CartPole-v0", seed=0),
               lambda: CartPoleEnv(params=heavy, seed=1)]
        assert not SyncVectorEnv(fns).uses_batch_physics

    def test_batched_physics_matches_per_env_loop(self):
        fns = _factories(3)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        obs_fast, _ = fast.reset(seed=7)
        obs_slow, _ = slow.reset(seed=7)
        np.testing.assert_array_equal(obs_fast, obs_slow)
        rng = np.random.default_rng(0)
        for _ in range(250):
            actions = rng.integers(0, 2, size=3)
            result_fast = fast.step(actions)
            result_slow = slow.step(actions)
            np.testing.assert_array_equal(result_fast.observations,
                                          result_slow.observations)
            np.testing.assert_array_equal(result_fast.terminated,
                                          result_slow.terminated)
            np.testing.assert_array_equal(result_fast.truncated,
                                          result_slow.truncated)

    def test_large_batch_numpy_branch_matches_loop(self):
        # Above 16 sub-envs the fast path switches from the scalar-Python
        # integrator to CartPoleEnv.batch_dynamics; both must match the
        # per-env loop exactly.
        fns = _factories(20)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        obs_fast, _ = fast.reset(seed=3)
        obs_slow, _ = slow.reset(seed=3)
        np.testing.assert_array_equal(obs_fast, obs_slow)
        rng = np.random.default_rng(2)
        for _ in range(60):
            actions = rng.integers(0, 2, size=20)
            result_fast = fast.step(actions)
            result_slow = slow.step(actions)
            np.testing.assert_array_equal(result_fast.observations,
                                          result_slow.observations)
            np.testing.assert_array_equal(result_fast.terminated,
                                          result_slow.terminated)

    def test_fast_path_infos_match_loop_path(self):
        fns = _factories(2)
        fast = SyncVectorEnv(fns)
        slow = SyncVectorEnv(fns, batch_physics=False)
        fast.reset(seed=5)
        slow.reset(seed=5)
        result_fast = fast.step(np.array([0, 1]))
        result_slow = slow.step(np.array([0, 1]))
        assert result_fast.infos == result_slow.infos
        assert result_fast.infos[0]["steps"] == 1

    def test_batch_dynamics_matches_scalar_dynamics(self):
        env = CartPoleEnv(seed=3)
        env.reset()
        rng = np.random.default_rng(1)
        states = rng.uniform(-0.1, 0.1, size=(8, 4))
        actions = rng.integers(0, 2, size=8)
        batched = CartPoleEnv.batch_dynamics(states, actions, env.params)
        for i in range(8):
            scalar = env._dynamics(states[i], int(actions[i]))
            np.testing.assert_array_equal(batched[i], scalar)


class TestMakeVector:
    def test_builds_sync(self):
        venv = make_vector("CartPole-v0", 2, seed=5)
        assert isinstance(venv, SyncVectorEnv) and venv.num_envs == 2

    def test_seeded_construction_reproducible(self):
        a, _ = make_vector("CartPole-v0", 2, seed=5).reset()
        b, _ = make_vector("CartPole-v0", 2, seed=5).reset()
        np.testing.assert_array_equal(a, b)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_vector("CartPole-v0", 0)
        with pytest.raises(KeyError):
            make_vector("NoSuchEnv-v0", 2)


class TestActionRepeat:
    """Frame skip as an env wrapper: k env steps per ``step`` call."""

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_non_positive_repeat_rejected(self, repeat):
        with pytest.raises(ValueError, match="repeat"):
            ActionRepeat(make_env("CartPole-v0", seed=0), repeat)

    def test_early_stop_at_episode_end(self):
        """With max_episode_steps=3 and k=10 the wrapper stops after 3
        frames, truncated, with the 3 unit rewards summed."""
        env = ActionRepeat(make_env("CartPole-v0", seed=11, max_episode_steps=3), 10)
        env.reset()
        result = env.step(1)
        assert result.info["frames"] == 3
        assert result.truncated and not result.terminated
        assert result.reward == 3.0

    def test_early_stop_auto_resets_inside_sync_vector_env(self):
        factory = _factories(1, base_seed=11, max_episode_steps=3)[0]
        venv = SyncVectorEnv([lambda: ActionRepeat(factory(), 10)])
        venv.reset()
        result = venv.step(np.array([1]))
        info = result.infos[0]
        assert info["frames"] == 3
        assert result.truncated[0] and result.rewards[0] == 3.0
        # The row returned is the next episode's initial state.
        assert not np.array_equal(info["final_observation"], result.observations[0])
        assert np.all(np.abs(result.observations[0]) <= 0.05)
        assert venv.step(np.array([1])).infos[0]["frames"] == 3

    def test_outside_a_time_limit_counts_frames(self):
        env = ActionRepeat(TimeLimit(CartPoleEnv(max_episode_steps=None, seed=0), 5), 2)
        env.reset()
        frames = []
        result = None
        while result is None or not result.done:
            result = env.step(0 if len(frames) % 2 else 1)
            frames.append(result.info["frames"])
        assert frames == [2, 2, 1] and result.truncated

    @pytest.mark.parametrize("env_id,repeat", [("CartPole-v0", 4),
                                               ("Autoscale-v0", 3)])
    def test_k_frames_equal_k_manual_steps(self, env_id, repeat):
        """One wrapped step equals k bare steps of the repeated action
        (stopping at episode end), rewards summed in order."""
        wrapped = ActionRepeat(make_env(env_id, seed=7, max_episode_steps=50), repeat)
        bare = make_env(env_id, seed=7, max_episode_steps=50)
        obs, _ = wrapped.reset()
        np.testing.assert_array_equal(obs, bare.reset()[0])
        rng = np.random.default_rng(41)
        episodes = 0
        for _ in range(80):
            action = int(rng.integers(0, bare.action_space.n))
            result = wrapped.step(action)
            reward, frames = 0.0, 0
            for _frame in range(repeat):
                expected = bare.step(action)
                reward += expected.reward
                frames += 1
                if expected.done:
                    break
            np.testing.assert_array_equal(result.observation, expected.observation)
            assert result.reward.hex() == float(reward).hex()
            assert (result.terminated, result.truncated) \
                == (expected.terminated, expected.truncated)
            assert result.info["frames"] == frames
            if result.done:
                episodes += 1
                np.testing.assert_array_equal(wrapped.reset()[0], bare.reset()[0])
        assert episodes > 0

    def test_wrapped_sub_envs_step_through_the_per_env_loop(self):
        """Batched physics reads the sub-env's own state, so a wrapped
        CartPole must fall back to the per-env loop."""
        fns = _factories(2)
        assert not SyncVectorEnv([lambda fn=fn: ActionRepeat(fn(), 2)
                                  for fn in fns]).uses_batch_dynamics
