"""Tests for the Q-learning building blocks: clipping, Q-function, buffer, policies,
regularization config (Sections 3.1–3.3)."""

import numpy as np
import pytest

from repro.core.clipping import (
    clip_q_target,
    make_reward_shaper,
    q_learning_target,
    shaped_cartpole_reward,
)
from repro.core.elm import ELM
from repro.core.os_elm import OSELM
from repro.core.policies import EpsilonGreedyPolicy, RandomUpdateGate
from repro.core.qfunction import QFunction, encode_state_action, state_action_input_size
from repro.core.regularization import RegularizationConfig, lipschitz_bound
from repro.core.replay import InitialTrainingBuffer, Transition
from repro.utils.exceptions import NotFittedError, ShapeError


class TestClipping:
    def test_clip_range(self):
        assert clip_q_target(5.0) == 1.0
        assert clip_q_target(-5.0) == -1.0
        assert clip_q_target(0.3) == 0.3

    def test_clip_invalid_range(self):
        with pytest.raises(ValueError):
            clip_q_target(0.0, low=1.0, high=-1.0)

    def test_target_bootstrap(self):
        target = q_learning_target(0.0, False, 0.5, gamma=0.9, clip=False)
        assert target == pytest.approx(0.45)

    def test_target_terminal_drops_bootstrap(self):
        assert q_learning_target(-1.0, True, 100.0, gamma=0.99) == -1.0

    def test_target_clipped(self):
        assert q_learning_target(1.0, False, 100.0, gamma=0.99) == 1.0
        assert q_learning_target(1.0, False, 100.0, gamma=0.99, clip=False) == pytest.approx(100.0)

    def test_target_invalid_gamma(self):
        with pytest.raises(ValueError):
            q_learning_target(0.0, False, 0.0, gamma=1.5)

    def test_shaped_reward_failure(self):
        assert shaped_cartpole_reward(True, False, 50) == -1.0

    def test_shaped_reward_success_at_time_limit(self):
        assert shaped_cartpole_reward(False, True, 200) == 1.0

    def test_shaped_reward_success_late_termination(self):
        assert shaped_cartpole_reward(True, False, 197) == 1.0

    def test_shaped_reward_intermediate_zero(self):
        assert shaped_cartpole_reward(False, False, 50) == 0.0

    def test_shaped_rewards_stay_in_clip_range(self):
        for terminated in (True, False):
            for truncated in (True, False):
                for step in (1, 100, 195, 200):
                    assert -1.0 <= shaped_cartpole_reward(terminated, truncated, step) <= 1.0

    def test_reward_shaper_factory(self):
        shaper = make_reward_shaper(success_steps=100)
        assert shaper(True, False, 120) == 1.0
        assert shaper(True, False, 80) == -1.0


class TestRegularizationConfig:
    def test_labels(self):
        assert RegularizationConfig.none().label == ""
        assert RegularizationConfig.l2(1.0).label == "-L2"
        assert RegularizationConfig.lipschitz().label == "-Lipschitz"
        assert RegularizationConfig.l2_lipschitz().label == "-L2-Lipschitz"

    def test_paper_deltas(self):
        assert RegularizationConfig.l2().l2_delta == 1.0
        assert RegularizationConfig.l2_lipschitz().l2_delta == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizationConfig(l2_delta=-1.0)
        with pytest.raises(ValueError):
            RegularizationConfig(spectral_norm_target=0.0)

    def test_lipschitz_bound_formula(self, rng):
        alpha = rng.normal(size=(4, 8))
        beta = rng.normal(size=(8, 1))
        expected = np.linalg.norm(alpha, 2) * np.linalg.norm(beta, 2)
        assert lipschitz_bound(alpha, beta, "relu") == pytest.approx(expected)

    def test_lipschitz_bound_sigmoid_smaller(self, rng):
        alpha = rng.normal(size=(4, 8))
        beta = rng.normal(size=(8, 1))
        assert lipschitz_bound(alpha, beta, "sigmoid") < lipschitz_bound(alpha, beta, "relu")


class TestEncodingAndQFunction:
    def test_scalar_encoding_size(self):
        # Paper: 4 states + 1 action value = 5 inputs for CartPole.
        assert state_action_input_size(4, 2) == 5
        assert state_action_input_size(4, 2, one_hot=True) == 6

    def test_encode_scalar(self):
        row = encode_state_action(np.array([1.0, 2.0, 3.0, 4.0]), 1)
        np.testing.assert_array_equal(row, [1.0, 2.0, 3.0, 4.0, 1.0])

    def test_encode_one_hot(self):
        row = encode_state_action(np.array([1.0, 2.0]), 1, n_actions=3, one_hot=True)
        np.testing.assert_array_equal(row, [1.0, 2.0, 0.0, 1.0, 0.0])

    def test_encode_one_hot_requires_n_actions(self):
        with pytest.raises(ValueError):
            encode_state_action(np.zeros(2), 0, one_hot=True)

    def _fitted_qfunction(self, rng, n_hidden=32):
        model = OSELM(5, n_hidden, 1, seed=3)
        qf = QFunction(model, n_states=4, n_actions=2)
        states = rng.uniform(-1, 1, size=(n_hidden, 4))
        actions = rng.integers(0, 2, size=n_hidden)
        targets = rng.uniform(-1, 1, size=n_hidden)
        qf.fit_batch(states, actions, targets)
        return qf

    def test_model_size_validation(self):
        model = ELM(7, 8, 1, seed=0)
        with pytest.raises(ValueError):
            QFunction(model, n_states=4, n_actions=2)

    def test_output_size_validation(self):
        model = ELM(5, 8, 2, seed=0)
        with pytest.raises(ValueError):
            QFunction(model, n_states=4, n_actions=2)

    def test_default_value_before_training(self):
        model = OSELM(5, 8, 1, seed=0)
        qf = QFunction(model, 4, 2, default_value=0.25)
        np.testing.assert_array_equal(qf.q_values(np.zeros(4)), [0.25, 0.25])
        assert qf.value(np.zeros(4), 1) == 0.25

    def test_q_values_and_greedy(self, rng):
        qf = self._fitted_qfunction(rng)
        state = rng.uniform(-1, 1, size=4)
        q = qf.q_values(state)
        assert q.shape == (2,)
        assert qf.greedy_action(state) == int(np.argmax(q))
        assert qf.max_q(state) == pytest.approx(float(np.max(q)))
        assert qf.value(state, 0) == pytest.approx(q[0])

    def test_update_sequentially_moves_prediction(self, rng):
        qf = self._fitted_qfunction(rng)
        state = rng.uniform(-1, 1, size=4)
        target = 0.9
        for _ in range(30):
            qf.update(state, 1, target)
        assert qf.value(state, 1) == pytest.approx(target, abs=0.05)

    def test_update_requires_sequential_model(self, rng):
        model = ELM(5, 8, 1, seed=0)
        qf = QFunction(model, 4, 2)
        with pytest.raises(NotFittedError):
            qf.update(np.zeros(4), 0, 0.5)

    def test_update_before_initial_training_raises(self):
        qf = QFunction(OSELM(5, 8, 1, seed=0), 4, 2)
        with pytest.raises(NotFittedError):
            qf.update(np.zeros(4), 0, 0.5)


class TestBatchedPrediction:
    """Regression tests for the 1-D/2-D shape contract of the batched paths."""

    def _fitted_qfunction(self, rng, one_hot=False):
        n_inputs = 4 + (2 if one_hot else 1)
        model = OSELM(n_inputs, 16, 1, seed=3)
        qf = QFunction(model, n_states=4, n_actions=2, one_hot_actions=one_hot)
        states = rng.uniform(-1, 1, size=(16, 4))
        actions = rng.integers(0, 2, size=16)
        qf.fit_batch(states, actions, rng.uniform(-1, 1, size=16))
        return qf

    def test_elm_predict_mirrors_input_ndim(self, rng):
        model = ELM(5, 8, 1, seed=0)
        x = rng.uniform(size=(20, 5))
        model.fit(x, rng.uniform(size=(20, 1)))
        single = model.predict(x[0])
        batch = model.predict(x[:4])
        assert single.shape == (1,)
        assert batch.shape == (4, 1)
        # BLAS may block the batched GEMM differently from the single-row
        # product, so agreement is to rounding, not bit-for-bit.
        np.testing.assert_allclose(single, batch[0], rtol=1e-10, atol=1e-12)

    def test_qfunction_predict_round_trip(self, rng):
        qf = self._fitted_qfunction(rng)
        state = rng.uniform(-1, 1, size=4)
        scalar = qf.predict(state, 1)
        batch = qf.predict(state.reshape(1, -1), [1])
        assert isinstance(scalar, float)
        assert batch.shape == (1,)
        assert scalar == batch[0]
        assert scalar == pytest.approx(qf.value(state, 1))

    def test_qfunction_predict_before_training(self):
        qf = QFunction(OSELM(5, 8, 1, seed=0), 4, 2, default_value=0.5)
        assert qf.predict(np.zeros(4), 0) == 0.5
        np.testing.assert_array_equal(qf.predict(np.zeros((3, 4)), [0, 1, 0]),
                                      [0.5, 0.5, 0.5])

    def test_q_values_batch_matches_single(self, rng):
        qf = self._fitted_qfunction(rng)
        states = rng.uniform(-1, 1, size=(6, 4))
        batch = qf.q_values(states)
        assert batch.shape == (6, 2)
        for i in range(6):
            np.testing.assert_allclose(batch[i], qf.q_values(states[i]),
                                       rtol=1e-10, atol=1e-12)

    def test_q_values_batch_one_hot(self, rng):
        qf = self._fitted_qfunction(rng, one_hot=True)
        states = rng.uniform(-1, 1, size=(3, 4))
        batch = qf.q_values(states)
        assert batch.shape == (3, 2)
        for i in range(3):
            np.testing.assert_allclose(batch[i], qf.q_values(states[i]),
                                       rtol=1e-10, atol=1e-12)

    def test_greedy_and_max_q_batch_shapes(self, rng):
        qf = self._fitted_qfunction(rng)
        states = rng.uniform(-1, 1, size=(5, 4))
        greedy = qf.greedy_action(states)
        top = qf.max_q(states)
        assert greedy.shape == (5,) and top.shape == (5,)
        assert isinstance(qf.greedy_action(states[0]), int)
        assert isinstance(qf.max_q(states[0]), float)
        q = qf.q_values(states)
        np.testing.assert_array_equal(greedy, np.argmax(q, axis=1))
        np.testing.assert_array_equal(top, np.max(q, axis=1))

    def test_untrained_batch_shapes(self):
        qf = QFunction(OSELM(5, 8, 1, seed=0), 4, 2, default_value=0.0)
        assert qf.q_values(np.zeros((3, 4))).shape == (3, 2)
        np.testing.assert_array_equal(qf.greedy_action(np.zeros((3, 4))), [0, 0, 0])

    def test_encode_batch_mismatch(self, rng):
        qf = self._fitted_qfunction(rng)
        with pytest.raises(ValueError):
            qf.encode_batch(np.zeros((3, 4)), [0, 1])


class TestQFunctionBoundary:
    """The Q-function checks the caller's state and target once, then trusts."""

    @staticmethod
    def _fitted():
        data = np.random.default_rng(7)
        qf = QFunction(OSELM(5, 16, 1, seed=3), n_states=4, n_actions=2)
        qf.fit_batch(data.uniform(-1, 1, size=(16, 4)), data.integers(0, 2, size=16),
                     data.uniform(-1, 1, size=16))
        return qf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_raise_value_error(self, bad):
        qf = self._fitted()
        state = np.array([0.1, bad, -0.2, 0.0])
        batch = np.zeros((3, 4))
        batch[2, 3] = bad
        beta, p = qf.model.beta.copy(), qf.model.p_matrix.copy()
        for call in (lambda: qf.q_values(state),
                     lambda: qf.q_values(batch),
                     lambda: qf.predict(state, 1),
                     lambda: qf.update(state, 1, 0.5),
                     lambda: qf.update(np.zeros(4), 1, bad)):
            with pytest.raises(ValueError):
                call()
        np.testing.assert_array_equal(qf.model.beta, beta)
        np.testing.assert_array_equal(qf.model.p_matrix, p)

    def test_untrained_q_values_still_reject_non_finite_states(self):
        qf = QFunction(OSELM(5, 8, 1, seed=0), 4, 2)
        with pytest.raises(ValueError):
            qf.q_values(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_wrong_width_raises_shape_error(self):
        qf = self._fitted()
        for call in (lambda: qf.q_values(np.zeros(5)),
                     lambda: qf.q_values(np.zeros((2, 3))),
                     lambda: qf.predict(np.zeros(3), 0),
                     lambda: qf.update(np.zeros(5), 0, 0.5)):
            with pytest.raises(ShapeError):
                call()

    @pytest.mark.parametrize("one_hot", [False, True])
    def test_all_action_rows_equal_per_action_encoding(self, rng, one_hot):
        n_inputs = 4 + (3 if one_hot else 1)
        qf = QFunction(OSELM(n_inputs, 8, 1, seed=0), 4, 3, one_hot_actions=one_hot)
        state = rng.uniform(-1, 1, size=4)
        per_action = np.stack([qf.encode(state, a) for a in range(3)])
        np.testing.assert_array_equal(qf.encode_all_actions(state)[0], per_action)
        np.testing.assert_array_equal(qf.encode_batch(state, [2])[0], qf.encode(state, 2))


class TestInitialTrainingBuffer:
    def test_store_and_len(self):
        buffer = InitialTrainingBuffer(4)
        for i in range(3):
            buffer.store(np.zeros(4), i % 2, 0.0, np.ones(4), False)
        assert len(buffer) == 3
        assert not buffer.full

    def test_fifo_eviction(self):
        buffer = InitialTrainingBuffer(2)
        for reward in (1.0, 2.0, 3.0):
            buffer.store(np.zeros(2), 0, reward, np.zeros(2), False)
        assert len(buffer) == 2
        assert buffer[0].reward == 2.0
        assert buffer[1].reward == 3.0

    def test_as_batches_shapes(self):
        buffer = InitialTrainingBuffer(3)
        for i in range(3):
            buffer.store(np.full(4, i), i % 2, float(i), np.full(4, i + 1), i == 2)
        states, actions, rewards, next_states, dones = buffer.as_batches()
        assert states.shape == (3, 4)
        assert actions.tolist() == [0, 1, 0]
        assert rewards.tolist() == [0.0, 1.0, 2.0]
        assert next_states.shape == (3, 4)
        assert dones.tolist() == [False, False, True]

    def test_as_batches_empty(self):
        with pytest.raises(ValueError):
            InitialTrainingBuffer(2).as_batches()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            InitialTrainingBuffer(0)

    def test_memory_footprint_small(self):
        """The whole buffer for N-tilde=64 CartPole transitions is only a few KB
        (the paper's point: no DQN-style replay memory is needed)."""
        buffer = InitialTrainingBuffer(64)
        for _ in range(64):
            buffer.store(np.zeros(4), 0, 0.0, np.zeros(4), False)
        assert buffer.nbytes < 10_000

    def test_transition_astuple(self):
        t = Transition(np.zeros(2), 1, 0.5, np.ones(2), True)
        state, action, reward, next_state, done = t.astuple()
        assert action == 1 and reward == 0.5 and done

    def test_clear(self):
        buffer = InitialTrainingBuffer(2)
        buffer.store(np.zeros(1), 0, 0.0, np.zeros(1), False)
        buffer.clear()
        assert len(buffer) == 0


class TestPolicies:
    def test_epsilon_greedy_paper_convention(self):
        """epsilon_1 is the probability of the GREEDY action (Algorithm 1 lines 10-13)."""
        policy = EpsilonGreedyPolicy(greedy_probability=1.0, n_actions=2, seed=0)
        q = np.array([0.1, 0.9])
        assert all(policy.select(q) == 1 for _ in range(20))

    def test_epsilon_zero_always_random(self):
        policy = EpsilonGreedyPolicy(greedy_probability=0.0, n_actions=4, seed=0)
        q = np.array([10.0, 0.0, 0.0, 0.0])
        choices = {policy.select(q) for _ in range(200)}
        assert len(choices) == 4    # explores the whole action set

    def test_greedy_fraction_statistics(self):
        policy = EpsilonGreedyPolicy(greedy_probability=0.7, n_actions=2, seed=1)
        q = np.array([0.0, 1.0])
        for _ in range(5000):
            policy.select(q)
        fraction = policy.greedy_selections / 5000
        assert 0.65 < fraction < 0.75

    def test_explore_false_forces_greedy(self):
        policy = EpsilonGreedyPolicy(greedy_probability=0.0, n_actions=2, seed=0)
        assert policy.select(np.array([0.0, 1.0]), explore=False) == 1

    def test_wrong_q_length(self):
        policy = EpsilonGreedyPolicy(0.5, 3, seed=0)
        with pytest.raises(ValueError):
            policy.select(np.zeros(2))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(1.5, 2)
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(0.5, 0)

    def test_random_update_gate_statistics(self):
        gate = RandomUpdateGate(0.5, seed=0)
        decisions = [gate.should_update() for _ in range(4000)]
        assert 0.45 < np.mean(decisions) < 0.55
        assert gate.accepted + gate.rejected == 4000
        assert gate.acceptance_rate == pytest.approx(np.mean(decisions))

    def test_random_update_gate_extremes(self):
        always = RandomUpdateGate(1.0, seed=0)
        never = RandomUpdateGate(0.0, seed=0)
        assert all(always.should_update() for _ in range(50))
        assert not any(never.should_update() for _ in range(50))

    def test_reset_counters(self):
        gate = RandomUpdateGate(0.5, seed=0)
        gate.should_update()
        gate.reset_counters()
        assert gate.accepted == 0 and gate.rejected == 0
