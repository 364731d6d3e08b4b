"""The hidden-layer activations ``G`` shared by ELM, OS-ELM and the FPGA core."""

import numpy as np
import pytest

from repro.core.activations import Identity, LeakyReLU, ReLU, Sigmoid, Tanh, get_activation


@pytest.mark.parametrize("name,cls", [("relu", ReLU), ("tanh", Tanh),
                                      ("sigmoid", Sigmoid), ("identity", Identity),
                                      ("linear", Identity), ("leaky_relu", LeakyReLU)])
def test_lookup(name, cls):
    assert isinstance(get_activation(name), cls)


def test_lookup_ignores_case():
    assert isinstance(get_activation("ReLU"), ReLU)


def test_lookup_instance_passthrough():
    act = ReLU()
    assert get_activation(act) is act


def test_unknown_activation():
    with pytest.raises(ValueError):
        get_activation("swish")


def test_relu_forward():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(ReLU()(x), [0.0, 0.0, 3.0])


def test_sigmoid_stable_for_large_inputs():
    out = Sigmoid()(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


def test_lipschitz_constants():
    assert ReLU().lipschitz_constant == 1.0
    assert Tanh().lipschitz_constant == 1.0
    assert Sigmoid().lipschitz_constant == 0.25


#: Each activation by name, with a reference formula written independently.
REFERENCES = {
    "relu": lambda x: np.where(x > 0, x, 0.0),
    "tanh": lambda x: (np.exp(x) - np.exp(-x)) / (np.exp(x) + np.exp(-x)),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "identity": lambda x: x,
    "leaky_relu": lambda x: np.where(x > 0, x, 0.01 * x),
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_forward_matches_reference(name):
    x = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(get_activation(name)(x), REFERENCES[name](x),
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_forward_keeps_shape_and_returns_float64(name):
    x = np.arange(-6, 6).reshape(3, 4)         # integer input
    out = get_activation(name)(x)
    assert out.shape == (3, 4)
    assert out.dtype == np.float64


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_lipschitz_constant_bounds_every_slope(name, rng):
    """``|G(x) - G(y)| <= L |x - y|``: the constant the Lipschitz bound of
    Section 2.5 multiplies into the network's weight norms."""
    act = get_activation(name)
    x = rng.uniform(-4.0, 4.0, size=2000)
    y = x + rng.uniform(-0.5, 0.5, size=2000)
    slopes = np.abs(act(x) - act(y)) / np.abs(x - y)
    assert slopes.max() <= act.lipschitz_constant * (1 + 1e-9)
    # Tight near the origin, where each provided activation is steepest.
    assert slopes.max() >= 0.9 * act.lipschitz_constant


def test_leaky_relu_slope_and_constant():
    act = LeakyReLU(0.2)
    np.testing.assert_array_equal(act(np.array([-2.0, 3.0])), [-0.4, 3.0])
    assert act.lipschitz_constant == 1.0
    assert LeakyReLU(3.0).lipschitz_constant == 3.0


def test_leaky_relu_rejects_negative_slope():
    with pytest.raises(ValueError):
        LeakyReLU(-0.1)
