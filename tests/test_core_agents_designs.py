"""Tests for Algorithm 1's agents and the seven-design factory."""

import numpy as np
import pytest

from repro.baselines.dqn import DQNAgent
from repro.core.agents import AgentConfig, ELMQAgent, OSELMQAgent
from repro.core.designs import DESIGN_NAMES, SOFTWARE_DESIGNS, design_spec, make_design
from repro.core.regularization import RegularizationConfig
from repro.fpga.accelerator import FPGAAcceleratedOSELM
from repro.utils.exceptions import NotFittedError, ShapeError


class TestAgentConfig:
    def test_paper_defaults(self, tiny_agent_config):
        config = tiny_agent_config
        assert config.greedy_probability == 0.7       # epsilon_1
        assert config.update_probability == 0.5        # epsilon_2
        assert config.target_update_interval == 2      # UPDATE_STEP
        assert config.clip_low == -1.0 and config.clip_high == 1.0
        assert config.reset_after_episodes == 300
        assert config.activation == "relu"

    def test_input_size_cartpole(self, tiny_agent_config):
        assert tiny_agent_config.input_size == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(n_states=0, n_actions=2)
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=2, gamma=1.5)
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=2, greedy_probability=2.0)
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=2, target_update_interval=0)
        with pytest.raises(ValueError):
            AgentConfig(n_states=4, n_actions=2, reset_after_episodes=0)

    def test_with_updates(self, tiny_agent_config):
        changed = tiny_agent_config.with_updates(n_hidden=64)
        assert changed.n_hidden == 64
        assert tiny_agent_config.n_hidden == 16


def _fill_buffer(agent, rng, steps=None):
    """Drive the agent with synthetic transitions until initial training happens."""
    steps = steps if steps is not None else agent.config.n_hidden + 5
    state = rng.uniform(-0.05, 0.05, size=4)
    for _ in range(steps):
        action = agent.act(state)
        next_state = state + rng.normal(scale=0.01, size=4)
        reward = float(rng.uniform(-1.0, 1.0))
        agent.observe(state, action, reward, next_state, False)
        state = next_state
    return state


class TestOSELMQAgent:
    def test_initial_training_triggers_when_buffer_full(self, tiny_agent_config, rng):
        agent = OSELMQAgent(tiny_agent_config)
        assert not agent.initial_training_done
        _fill_buffer(agent, rng)
        assert agent.initial_training_done
        assert agent.operation_counts.get("init_train", 0) == 1

    def test_operation_labels_recorded(self, tiny_agent_config, rng):
        agent = OSELMQAgent(tiny_agent_config)
        _fill_buffer(agent, rng, steps=tiny_agent_config.n_hidden + 40)
        counts = agent.operation_counts
        assert counts.get("predict_init", 0) > 0
        assert counts.get("predict_seq", 0) > 0
        assert counts.get("seq_train", 0) > 0
        assert "train_DQN" not in counts

    def test_random_update_gate_reduces_updates(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0,
                             update_probability=0.0)
        agent = OSELMQAgent(config)
        _fill_buffer(agent, rng, steps=60)
        assert agent.operation_counts.get("seq_train", 0) == 0

    def test_always_update_gate(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0,
                             update_probability=1.0)
        agent = OSELMQAgent(config)
        _fill_buffer(agent, rng, steps=16 + 30)
        assert agent.operation_counts.get("seq_train", 0) == 30

    def test_counts_per_step(self, rng):
        """Every act and every target bootstrap counts one prediction per
        action: predict_init until the initial training, predict_seq after."""
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0,
                             update_probability=1.0)
        agent = OSELMQAgent(config)
        _fill_buffer(agent, rng, steps=16 + 30)
        assert agent.operation_counts == {"predict_init": 16 * 2 + 16 * 2,
                                          "init_train": 1,
                                          "predict_seq": 30 * 2 + 30 * 2,
                                          "seq_train": 30}
        assert list(agent.operation_counts) == ["predict_init", "init_train",
                                                "predict_seq", "seq_train"]

    def test_counts_accumulate_across_weight_reset(self, rng):
        """The reset rule re-initialises the weights, not the tally of work done."""
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0,
                             update_probability=1.0)
        agent = OSELMQAgent(config)
        _fill_buffer(agent, rng, steps=16 + 30)
        before = dict(agent.operation_counts)
        agent.reset_weights()
        assert agent.operation_counts == before
        _fill_buffer(agent, rng, steps=16)
        assert agent.operation_counts["init_train"] == 2
        assert agent.operation_counts["predict_init"] == before["predict_init"] + 16 * 2 + 16 * 2
        assert agent.operation_counts["seq_train"] == before["seq_train"]

    def test_act_returns_valid_action(self, tiny_agent_config, rng):
        agent = OSELMQAgent(tiny_agent_config)
        for _ in range(10):
            assert agent.act(rng.uniform(-1, 1, 4)) in (0, 1)

    def test_target_sync_interval(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=8, seed=0,
                             target_update_interval=2)
        agent = OSELMQAgent(config)
        _fill_buffer(agent, rng, steps=20)
        beta_before = agent.model.beta.copy()
        agent._target_beta = np.zeros_like(beta_before)
        agent.end_episode(1)     # episodes_completed becomes 1 -> no sync
        assert np.allclose(agent._target_beta, 0.0)
        agent.end_episode(2)     # episodes_completed becomes 2 -> sync
        np.testing.assert_array_equal(agent._target_beta, agent.model.beta)

    def test_weight_reset_rule(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=8, seed=0,
                             reset_after_episodes=3)
        agent = OSELMQAgent(config)
        _fill_buffer(agent, rng, steps=20)
        assert agent.initial_training_done
        for _ in range(3):
            agent.register_progress(False)
        assert agent.weight_resets == 1
        assert not agent.initial_training_done
        assert agent.global_step == 0

    def test_reset_not_triggered_when_solved(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=8, seed=0,
                             reset_after_episodes=2)
        agent = OSELMQAgent(config)
        for _ in range(10):
            agent.register_progress(True)
        assert agent.weight_resets == 0

    def test_clipped_targets_bound_beta_updates(self, rng):
        """Every sequential target passed to the model lies in [-1, 1]."""
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0,
                             update_probability=1.0)
        agent = OSELMQAgent(config)
        recorded = []
        original = agent.q_online.update

        def spy(state, action, target):
            recorded.append(target)
            return original(state, action, target)

        agent.q_online.update = spy
        _fill_buffer(agent, rng, steps=60)
        assert recorded
        assert all(-1.0 <= t <= 1.0 for t in recorded)

    def test_diagnostics_available(self, tiny_agent_config, rng):
        agent = OSELMQAgent(tiny_agent_config)
        _fill_buffer(agent, rng)
        assert agent.lipschitz_upper_bound() > 0
        assert agent.beta_norm() > 0


class TestELMQAgent:
    def test_retrains_each_time_buffer_fills(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=8, seed=0)
        agent = ELMQAgent(config)
        _fill_buffer(agent, rng, steps=8 * 3 + 2)
        # the buffer is cleared after each batch fit, so 3 initial trainings fit in 26 steps
        assert agent.operation_counts.get("init_train", 0) == 3
        assert agent.operation_counts.get("seq_train", 0) is None or \
            agent.operation_counts.get("seq_train", 0) == 0

    def test_no_sequential_updates(self, rng):
        config = AgentConfig(n_states=4, n_actions=2, n_hidden=8, seed=0)
        agent = ELMQAgent(config)
        _fill_buffer(agent, rng, steps=40)
        assert "seq_train" not in agent.operation_counts


class TestDesignFactory:
    def test_all_names_present(self):
        assert DESIGN_NAMES == ("ELM", "OS-ELM", "OS-ELM-L2", "OS-ELM-Lipschitz",
                                "OS-ELM-L2-Lipschitz", "DQN", "FPGA")
        assert "FPGA" not in SOFTWARE_DESIGNS

    def test_design_spec_regularization(self):
        assert design_spec("OS-ELM").regularization == RegularizationConfig.none()
        assert design_spec("OS-ELM-L2").regularization.l2_delta == 1.0
        assert design_spec("OS-ELM-Lipschitz").regularization.spectral_normalize_alpha
        spec = design_spec("OS-ELM-L2-Lipschitz")
        assert spec.regularization.l2_delta == 0.5
        assert spec.regularization.spectral_normalize_alpha
        assert design_spec("FPGA").runs_on_fpga
        assert not design_spec("DQN").is_proposed

    def test_design_spec_unknown(self):
        with pytest.raises(ValueError):
            design_spec("A3C")

    def test_make_design_types(self):
        assert isinstance(make_design("ELM", n_hidden=8, seed=0), ELMQAgent)
        assert isinstance(make_design("OS-ELM", n_hidden=8, seed=0), OSELMQAgent)
        assert isinstance(make_design("DQN", n_hidden=8, seed=0), DQNAgent)
        fpga_agent = make_design("FPGA", n_hidden=16, seed=0)
        assert isinstance(fpga_agent, OSELMQAgent)
        assert isinstance(fpga_agent.model, FPGAAcceleratedOSELM)

    def test_make_design_names_propagate(self):
        agent = make_design("OS-ELM-L2-Lipschitz", n_hidden=8, seed=0)
        assert agent.name == "OS-ELM-L2-Lipschitz"
        assert make_design("FPGA", n_hidden=16, seed=0).name == "FPGA"

    def test_make_design_config_overrides(self):
        agent = make_design("OS-ELM", n_hidden=8, seed=0, greedy_probability=0.9)
        assert agent.config.greedy_probability == 0.9
        dqn = make_design("DQN", n_hidden=8, seed=0, batch_size=16, min_replay_size=16)
        assert dqn.config.batch_size == 16

    def test_make_design_unknown(self):
        with pytest.raises(ValueError):
            make_design("PPO")

    def test_fpga_design_uses_l2_lipschitz(self):
        agent = make_design("FPGA", n_hidden=16, seed=0)
        assert agent.config.regularization.l2_delta == 0.5
        assert agent.config.regularization.spectral_normalize_alpha


NON_FINITE = [np.nan, np.inf, -np.inf]


def _with_bad(value, index=1):
    state = np.array([0.01, -0.02, 0.03, 0.0])
    state[index] = value
    return state


class TestAgentBoundary:
    """Agents reject non-finite states at the boundary, before any update."""

    def _trained(self, rng, design="OS-ELM-L2-Lipschitz"):
        agent = make_design(design, n_hidden=16, seed=0, update_probability=1.0)
        _fill_buffer(agent, rng)
        assert agent.initial_training_done
        return agent

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("design", ["OS-ELM-L2-Lipschitz", "FPGA"])
    def test_act_rejects_non_finite_state(self, rng, design, bad):
        agent = self._trained(rng, design)
        with pytest.raises(ValueError):
            agent.act(_with_bad(bad))
        with pytest.raises(ValueError):
            agent.act(_with_bad(bad), explore=False)
        with pytest.raises(ValueError):
            agent.act_batch(np.stack([_with_bad(0.0), _with_bad(bad)]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("design", ["OS-ELM-L2-Lipschitz", "FPGA"])
    def test_gated_observe_rejects_non_finite_states(self, rng, design, bad):
        agent = self._trained(rng, design)
        beta = agent.model.beta.copy()
        good = _with_bad(0.0)
        with pytest.raises(ValueError):
            agent.observe(good, 0, 0.5, _with_bad(bad), False)
        with pytest.raises(ValueError):
            agent.observe(_with_bad(bad), 0, 0.5, good, False)
        np.testing.assert_array_equal(agent.model.beta, beta)

    def test_wrong_state_width_raises_shape_error(self, rng):
        agent = self._trained(rng)
        with pytest.raises(ShapeError):
            agent.act(np.zeros(5))
        with pytest.raises(ShapeError):
            agent.observe(np.zeros(4), 0, 0.5, np.zeros(3), False)

    def test_non_positive_denominator_is_counted_as_skipped(self, rng):
        agent = self._trained(rng)
        agent.model._recursive.p = -10.0 * np.eye(16)
        beta = agent.model.beta.copy()
        agent.observe(_with_bad(0.0), 0, 0.5, _with_bad(0.0), False)
        assert agent.skipped_updates == 1
        np.testing.assert_array_equal(agent.model.beta, beta)

    def test_skipped_and_terminal_updates_still_count(self, rng):
        """The device runs the bootstrap and the update either way, so a
        terminal transition and a skipped update both count in full."""
        agent = self._trained(rng)
        before = dict(agent.operation_counts)
        agent.observe(_with_bad(0.0), 0, 0.5, _with_bad(0.0), True)
        agent.model._recursive.p = -10.0 * np.eye(16)
        agent.observe(_with_bad(0.0), 0, 0.5, _with_bad(0.0), False)
        assert agent.skipped_updates == 1
        assert agent.operation_counts["seq_train"] == before["seq_train"] + 2
        assert agent.operation_counts["predict_seq"] == before["predict_seq"] + 2 * 2


class TestFPGAModelBoundary:
    def _model(self, rng):
        model = FPGAAcceleratedOSELM(5, 16, 1, regularization=RegularizationConfig.l2(0.5),
                                     seed=0)
        x = rng.uniform(-1, 1, size=(32, 5))
        return model.init_train(x, rng.uniform(-1, 1, size=(32, 1))), x

    def test_before_init_train_raises_not_fitted(self, rng):
        model = FPGAAcceleratedOSELM(5, 16, 1, seed=0)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros(5))
        with pytest.raises(NotFittedError):
            model.partial_fit(np.zeros((1, 5)), np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_predict_and_partial_fit_reject_non_finite(self, rng, bad):
        model, x = self._model(rng)
        row = x[0].copy()
        row[2] = bad
        for call in (lambda: model.predict(row),
                     lambda: model.predict(np.stack([x[1], row])),
                     lambda: model.partial_fit(row.reshape(1, -1), np.zeros((1, 1))),
                     lambda: model.partial_fit(x[:1], np.full((1, 1), bad))):
            with pytest.raises(ValueError):
                call()
        assert model.core.predict_invocations == 0
        assert model.core.seq_train_invocations == 0

    def test_wrong_width_raises_shape_error(self, rng):
        model, x = self._model(rng)
        with pytest.raises(ShapeError):
            model.predict(np.zeros(4))
        with pytest.raises(ShapeError):
            model.partial_fit(np.zeros((1, 6)), np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_q_function_update_rejects_non_finite_target_before_the_core(self, rng, bad):
        """The fixed-point core writes P before it quantizes the residual, so
        a bad target must be stopped before the core sees it."""
        agent = make_design("FPGA", n_hidden=16, seed=0)
        _fill_buffer(agent, rng)
        core = agent.model.core
        p_words = core.p.to_float().copy()
        with pytest.raises(ValueError):
            agent.q_online.update(_with_bad(0.0), 0, bad)
        np.testing.assert_array_equal(core.p.to_float(), p_words)
        assert core.seq_train_invocations == agent.operation_counts.get("seq_train", 0)

    def test_public_calls_run_on_the_fixed_point_core(self, rng):
        model, x = self._model(rng)
        out = model.predict(x[:3])
        assert out.shape == (3, 1)
        assert model.predict(x[0]).shape == (1,)
        model.partial_fit(x[3:5], np.zeros((2, 1)))
        assert model.core.predict_invocations == 4
        assert model.core.seq_train_invocations == 2
        np.testing.assert_array_equal(model.beta, model.core.beta.to_float())


class TestDQNAgent:
    def _agent(self, **overrides):
        from repro.baselines.dqn import DQNConfig
        defaults = dict(n_states=4, n_actions=2, n_hidden=16, seed=0,
                        replay_capacity=500, min_replay_size=32, batch_size=32)
        defaults.update(overrides)
        return DQNAgent(DQNConfig(**defaults))

    def test_act_valid(self, rng):
        agent = self._agent()
        assert agent.act(rng.normal(size=4)) in (0, 1)
        assert agent.operation_counts.get("predict_1", 0) == 1

    def test_training_starts_after_min_replay(self, rng):
        agent = self._agent()
        state = rng.normal(size=4)
        for i in range(31):
            agent.observe(state, 0, 0.0, state, False)
        assert agent.train_steps == 0
        agent.observe(state, 0, 0.0, state, False)
        assert agent.train_steps == 1
        assert agent.operation_counts.get("train_DQN", 0) == 1
        assert agent.operation_counts.get("predict_32", 0) == 2

    def test_target_network_sync(self, rng):
        agent = self._agent(target_update_interval=1)
        state = rng.normal(size=4)
        for _ in range(40):
            agent.observe(state, agent.act(state), 0.0, state, False)
        # after training the online network differs from the target network...
        assert not np.allclose(agent.params[0], agent.target_params[0])
        agent.end_episode(1)
        np.testing.assert_array_equal(agent.params[0], agent.target_params[0])

    def test_reset_weights(self, rng):
        agent = self._agent()
        state = rng.normal(size=4)
        for _ in range(40):
            agent.observe(state, 0, 0.0, state, False)
        agent.reset_weights()
        assert agent.train_steps == 0
        assert len(agent.replay) == 0
        assert agent.weight_resets == 1

    def test_q_values_shape(self, rng):
        agent = self._agent()
        assert agent.q_values(rng.normal(size=4)).shape == (2,)

    def test_lipschitz_upper_bound_is_the_product_of_weight_norms(self):
        agent = self._agent()
        expected = np.prod([np.linalg.norm(w, 2) for w in agent.params[0::2]])
        assert agent.lipschitz_upper_bound() == pytest.approx(expected)

    def test_config_validation(self):
        from repro.baselines.dqn import DQNConfig
        with pytest.raises(ValueError):
            DQNConfig(n_states=4, n_actions=2, min_replay_size=8, batch_size=32)
        with pytest.raises(ValueError):
            DQNConfig(n_states=4, n_actions=2, learning_rate=0.0)

    def test_replay_buffer(self, rng):
        from repro.baselines.replay_buffer import ReplayBuffer
        buffer = ReplayBuffer(capacity=10, n_states=4, seed=0)
        for i in range(15):
            buffer.add(np.full(4, i), i % 2, float(i), np.full(4, i + 1), False)
        assert len(buffer) == 10
        assert buffer.full
        states, actions, rewards, next_states, dones = buffer.sample(6)
        assert states.shape == (6, 4)
        assert rewards.min() >= 5.0     # oldest entries were overwritten
        buffer.clear()
        assert len(buffer) == 0

    def test_replay_buffer_errors(self):
        from repro.baselines.replay_buffer import ReplayBuffer
        with pytest.raises(ValueError):
            ReplayBuffer(0, 4)
        buffer = ReplayBuffer(4, 2, seed=0)
        with pytest.raises(ValueError):
            buffer.sample(2)
