"""The DQN baseline's hand-written network math: backward, Adam, forward."""

import numpy as np
import pytest

from repro.baselines.dqn import (
    DQNAgent,
    DQNConfig,
    adam_step,
    backward,
    forward,
    init_network,
)
from repro.utils.seeding import np_random


@pytest.mark.parametrize("n_states,n_hidden,n_actions", [(4, 16, 2), (2, 64, 3), (8, 5, 1)])
def test_init_network_is_he_uniform_with_zero_biases(n_states, n_hidden, n_actions):
    params = init_network(n_states, n_hidden, n_actions, np.random.default_rng(0))
    fans = [(n_states, n_hidden), (n_hidden, n_hidden), (n_hidden, n_actions)]
    assert [p.shape for p in params[0::2]] == fans
    for weights, bias, (fan_in, fan_out) in zip(params[0::2], params[1::2], fans):
        assert np.abs(weights).max() <= np.sqrt(6.0 / fan_in)
        np.testing.assert_array_equal(bias, np.zeros(fan_out))


def test_init_network_variance_follows_fan_in():
    """He-uniform: each weight has variance ``2 / fan_in``."""
    small, large = 8, 512
    rng = np.random.default_rng(1)
    for n_in in (small, large):
        weights = init_network(n_in, 256, 256, rng)[0]
        assert weights.var() == pytest.approx(2.0 / n_in, rel=0.05)


def test_forward_has_relu_hidden_layers_and_a_linear_output():
    rng = np.random.default_rng(4)
    params = init_network(3, 8, 2, rng)
    params[-1] -= 5.0                          # push some outputs negative
    x = rng.normal(size=(10, 3))
    out, cache = forward(params, x)
    assert len(cache) == 3
    np.testing.assert_array_equal(cache[0][0], x)
    for (_, z), (next_input, _) in zip(cache[:-1], cache[1:]):
        np.testing.assert_array_equal(next_input, np.maximum(z, 0.0))
    np.testing.assert_array_equal(out, cache[-1][1])
    assert (out < 0).any()


def test_backward_gives_a_dead_unit_no_gradient():
    rng = np.random.default_rng(5)
    params = init_network(3, 6, 2, rng)
    params[1][2] = -100.0                      # hidden unit 2 never fires
    out, cache = forward(params, rng.normal(size=(7, 3)))
    grads = backward(params, cache, rng.normal(size=out.shape))
    assert not (cache[0][1][:, 2] > 0).any()
    np.testing.assert_array_equal(grads[0][:, 2], 0.0)
    assert grads[1][2] == 0.0
    np.testing.assert_array_equal(grads[2][2, :], 0.0)   # its output carries nothing
    assert np.abs(grads[0]).sum() > 0


def _huber(prediction, target):
    """Mean Huber loss with delta = 1 (Equations 14-15)."""
    diff = np.abs(prediction - target)
    return float(np.mean(np.where(diff < 1.0, 0.5 * diff * diff, diff - 0.5)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_central_differences_through_the_huber_loss(seed):
    rng = np.random.default_rng(seed)
    params = init_network(3, 5, 2, rng)
    assert [p.shape for p in params] == [(3, 5), (5,), (5, 5), (5,), (5, 2), (2,)]
    for bias in params[1::2]:                 # nonzero biases exercise their grads
        bias += rng.normal(scale=0.1, size=bias.shape)
    x = rng.normal(size=(6, 3))
    # Targets both near and far from the outputs: quadratic and linear regions.
    target = forward(params, x)[0] + rng.normal(scale=1.5, size=(6, 2))

    out, cache = forward(params, x)
    grads = backward(params, cache, np.clip(out - target, -1.0, 1.0) / out.size)

    assert [g.shape for g in grads] == [p.shape for p in params]
    eps = 1e-6
    for param, grad in zip(params, grads):
        numeric = np.empty_like(param)
        for index in np.ndindex(param.shape):
            saved = param[index]
            param[index] = saved + eps
            plus = _huber(forward(params, x)[0], target)
            param[index] = saved - eps
            minus = _huber(forward(params, x)[0], target)
            param[index] = saved
            numeric[index] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def test_adam_step_by_hand():
    param = np.array([1.0, -2.0])
    m, v = np.zeros(2), np.zeros(2)

    grad = np.array([0.5, -0.1])
    adam_step([param], [grad], [m], [v], 1, 0.01)
    np.testing.assert_allclose(m, [0.05, -0.01])
    np.testing.assert_allclose(v, [0.00025, 0.00001])
    # Step 1: m_hat = g and v_hat = g^2, so each weight moves lr * sign(g).
    first = np.array([1.0 - 0.01 * 0.5 / (0.5 + 1e-8),
                      -2.0 + 0.01 * 0.1 / (0.1 + 1e-8)])
    np.testing.assert_allclose(param, first, rtol=0, atol=1e-15)

    grad = np.array([-1.0, 0.2])
    adam_step([param], [grad], [m], [v], 2, 0.01)
    m_expected = np.array([0.9 * 0.05 + 0.1 * -1.0, 0.9 * -0.01 + 0.1 * 0.2])
    v_expected = np.array([0.999 * 0.00025 + 0.001 * 1.0,
                           0.999 * 0.00001 + 0.001 * 0.04])
    m_hat = m_expected / (1 - 0.9**2)
    v_hat = v_expected / (1 - 0.999**2)
    np.testing.assert_allclose(m, m_expected)
    np.testing.assert_allclose(v, v_expected)
    np.testing.assert_allclose(param, first - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8),
                               rtol=0, atol=1e-15)


def test_adam_step_updates_in_place_and_leaves_zero_gradients_alone():
    params = [np.array([[1.0, 2.0]]), np.array([3.0])]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    originals = params + m + v
    before = [p.copy() for p in params]
    assert adam_step(params, [np.zeros((1, 2)), np.zeros(1)], m, v, 1, 0.01) is None
    assert all(a is b for a, b in zip(params + m + v, originals))
    for param, saved in zip(params, before):
        np.testing.assert_array_equal(param, saved)

    adam_step(params, [np.array([[1.0, -1.0]]), np.array([2.0])], m, v, 2, 0.01)
    assert all(a is b for a, b in zip(params + m + v, originals))
    assert not np.array_equal(params[0], before[0])


def test_adam_step_applies_one_step_count_to_every_parameter():
    """Two parameters with the same gradient history move the same amount."""
    params = [np.array([0.0]), np.array([0.0])]
    m = [np.zeros(1), np.zeros(1)]
    v = [np.zeros(1), np.zeros(1)]
    for t, g in enumerate([0.3, -0.2, 0.5], start=1):
        adam_step(params, [np.array([g]), np.array([g])], m, v, t, 0.01)
    np.testing.assert_array_equal(params[0], params[1])


def test_forward_backward_and_adam_fit_a_small_regression():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(64, 2))
    y = np.sin(x[:, :1]) + x[:, 1:]
    params = init_network(2, 16, 1, rng)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]

    def loss():
        return float(np.mean((forward(params, x)[0] - y) ** 2))

    first = loss()
    for t in range(1, 301):
        out, cache = forward(params, x)
        adam_step(params, backward(params, cache, 2.0 * (out - y) / out.size),
                  m, v, t, 0.01)
    assert loss() < 0.1 * first


def test_a_train_step_moves_only_the_online_network():
    agent = DQNAgent(DQNConfig(n_states=4, n_actions=2, n_hidden=8, seed=2,
                               replay_capacity=100, min_replay_size=32))
    rng = np.random.default_rng(8)
    for _ in range(31):
        state = rng.normal(size=4)
        agent.observe(state, agent.act(state), 1.0, rng.normal(size=4), False)
    online = [p.copy() for p in agent.params]
    target = [p.copy() for p in agent.target_params]
    assert all(not m.any() for m in agent.adam_m)

    agent.observe(rng.normal(size=4), 0, 1.0, rng.normal(size=4), False)
    assert agent.train_steps == 1
    assert all(not np.array_equal(p, q) for p, q in zip(agent.params, online))
    for p, q in zip(agent.target_params, target):
        np.testing.assert_array_equal(p, q)
    assert all(m.any() and v.any() for m, v in zip(agent.adam_m, agent.adam_v))


def test_agent_init_draws_and_drops_a_target_network_init():
    """The online network is the first init drawn from the agent's RNG; a
    second is drawn and dropped, so later replay samples and epsilon-greedy
    draws start where two inits leave the stream."""
    agent = DQNAgent(DQNConfig(n_states=4, n_actions=2, n_hidden=16, seed=11))
    rng, _ = np_random(11)
    online = init_network(4, 16, 2, rng)
    init_network(4, 16, 2, rng)
    for p, q in zip(agent.params, online):
        np.testing.assert_array_equal(p, q)
    assert agent._rng.bit_generator.state == rng.bit_generator.state

    agent.reset_weights()
    online = init_network(4, 16, 2, rng)
    init_network(4, 16, 2, rng)
    for p, q in zip(agent.params, online):
        np.testing.assert_array_equal(p, q)
    assert agent._rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("field,value", [
    ("n_states", 0), ("n_actions", 0), ("n_hidden", 0), ("gamma", 1.5),
    ("greedy_probability", 1.5), ("learning_rate", -0.01), ("batch_size", 0),
    ("target_update_interval", 0), ("train_interval", 0),
])
def test_config_rejects(field, value):
    with pytest.raises(ValueError):
        DQNConfig(**{"n_states": 4, "n_actions": 2, field: value})


def test_training_forward_rows_agree_with_q_values():
    """A train step's minibatch forward and ``q_values`` on one of its rows
    give the same Q-values up to rounding.  Not bit for bit: BLAS rounds a
    one-row product differently from a 32-row one, and each path keeps the
    kernel its pinned curves were made with."""
    agent = DQNAgent(DQNConfig(n_states=4, n_actions=2, n_hidden=16, seed=3,
                               replay_capacity=500, min_replay_size=32))
    rng = np.random.default_rng(7)
    for _ in range(80):                       # train past the initial weights
        state = rng.normal(size=4)
        agent.observe(state, agent.act(state), 1.0, rng.normal(size=4), False)
    assert agent.train_steps > 0
    states = agent.replay.sample(32)[0]
    batch_q = forward(agent.params, states)[0]
    single_q = np.array([agent.q_values(state) for state in states])
    np.testing.assert_allclose(batch_q, single_q, rtol=0, atol=1e-12)
