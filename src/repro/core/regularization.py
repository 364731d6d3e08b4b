"""Regularization / normalization configuration (Section 3.3).

The paper stabilises the OS-ELM Q-Network with two complementary constraints:

* **Spectral normalization of alpha** — the random input weights are divided
  by their largest singular value once, offline (Algorithm 1 lines 2–3).
  Because alpha never changes afterwards, this costs nothing at runtime and
  bounds the contribution of the input layer to the network's Lipschitz
  constant by 1.
* **L2 regularization of beta** — the ReOS-ELM initial training adds
  ``delta * I`` to the Gram matrix (Equation 8).  Relation 13
  (``sigma_max(A)^2 <= ||A||_F^2``) shows the L2 penalty dominates the
  spectral penalty, so shrinking the Frobenius norm of beta also shrinks its
  spectral norm — without the per-update SVD that a true spectral
  regularization of beta would require (Equation 12).

Together the network's Lipschitz constant is bounded by ``sigma_max(beta)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.activations import get_activation
from repro.linalg.spectral import spectral_norm


@dataclass(frozen=True)
class RegularizationConfig:
    """Which of the paper's stabilisation techniques are enabled.

    Attributes
    ----------
    l2_delta:
        Ridge parameter ``delta`` of the ReOS-ELM initial training
        (Equation 8).  ``0`` disables the L2 regularization.  The paper uses
        1.0 for OS-ELM-L2 and 0.5 for OS-ELM-L2-Lipschitz.
    spectral_normalize_alpha:
        Whether to divide alpha by its largest singular value at
        initialisation (the "Lipschitz" suffix of the design names).
    spectral_norm_target:
        The spectral norm alpha is normalized to (1.0 in the paper).
    """

    l2_delta: float = 0.0
    spectral_normalize_alpha: bool = False
    spectral_norm_target: float = 1.0

    def __post_init__(self) -> None:
        if self.l2_delta < 0:
            raise ValueError(f"l2_delta must be non-negative, got {self.l2_delta}")
        if self.spectral_norm_target <= 0:
            raise ValueError(
                f"spectral_norm_target must be positive, got {self.spectral_norm_target}"
            )

    @property
    def uses_l2(self) -> bool:
        return self.l2_delta > 0

    @property
    def uses_spectral_normalization(self) -> bool:
        return self.spectral_normalize_alpha

    @property
    def label(self) -> str:
        """Short suffix used in design names: '', '-L2', '-Lipschitz' or '-L2-Lipschitz'."""
        parts = []
        if self.uses_l2:
            parts.append("L2")
        if self.uses_spectral_normalization:
            parts.append("Lipschitz")
        return ("-" + "-".join(parts)) if parts else ""

    @classmethod
    def none(cls) -> "RegularizationConfig":
        return cls()

    @classmethod
    def l2(cls, delta: float = 1.0) -> "RegularizationConfig":
        return cls(l2_delta=delta)

    @classmethod
    def lipschitz(cls) -> "RegularizationConfig":
        return cls(spectral_normalize_alpha=True)

    @classmethod
    def l2_lipschitz(cls, delta: float = 0.5) -> "RegularizationConfig":
        return cls(l2_delta=delta, spectral_normalize_alpha=True)


def lipschitz_bound(alpha: np.ndarray, beta: np.ndarray,
                    activation: str = "relu",
                    bias: Optional[np.ndarray] = None) -> float:
    """Upper bound on the Lipschitz constant of a single-hidden-layer network.

    The bound is ``sigma_max(alpha) * L_G * sigma_max(beta)`` where ``L_G`` is
    the activation's Lipschitz constant (1 for ReLU/tanh).  After spectral
    normalization of alpha the bound reduces to ``sigma_max(beta)``, which is
    the quantity the paper's Section 3.3 controls via L2 regularization.
    The bias does not affect the Lipschitz constant; it is accepted for
    interface symmetry only.
    """
    activation_constant = get_activation(activation).lipschitz_constant
    return float(
        spectral_norm(np.asarray(alpha, dtype=float))
        * activation_constant
        * spectral_norm(np.asarray(beta, dtype=float))
    )
