"""Element-wise activation functions ``G`` and their Lipschitz constants.

The paper uses ReLU as the activation ``G`` in both the ELM/OS-ELM hidden
layer and the DQN baseline; tanh and sigmoid are provided because they are
the classical ELM activations and are 1-Lipschitz (relevant to the
Lipschitz-constant discussion in Section 2.5).
"""

from __future__ import annotations

import numpy as np


class Activation:
    """Base class: an element-wise function."""

    name = "activation"
    #: Lipschitz constant of the activation (<= 1 for all provided activations).
    lipschitz_constant = 1.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(x, dtype=np.float64))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReLU(Activation):
    """Rectified linear unit ``G(x) = max(x, 0)`` (the paper's activation)."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


class Sigmoid(Activation):
    """Logistic sigmoid (Lipschitz constant 1/4)."""

    name = "sigmoid"
    lipschitz_constant = 0.25

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        expx = np.exp(x[~pos])
        out[~pos] = expx / (1.0 + expx)
        return out


class Identity(Activation):
    """Linear pass-through."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)


class LeakyReLU(Activation):
    """Leaky ReLU with configurable negative slope."""

    name = "leaky_relu"

    def __init__(self, negative_slope: float = 0.01) -> None:
        if negative_slope < 0:
            raise ValueError("negative_slope must be non-negative")
        self.negative_slope = float(negative_slope)
        self.lipschitz_constant = max(1.0, self.negative_slope)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x >= 0, x, self.negative_slope * x)


_ACTIVATIONS = {
    "relu": ReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "identity": Identity,
    "linear": Identity,
    "leaky_relu": LeakyReLU,
}


def get_activation(name_or_instance) -> Activation:
    """Resolve an activation from a name string or pass through an instance."""
    if isinstance(name_or_instance, Activation):
        return name_or_instance
    name = str(name_or_instance).lower()
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")
    return _ACTIVATIONS[name]()
