"""ELM: the batch-trained single-hidden-layer network (Section 2.1).

The network computes ``y = G(x @ alpha + b) @ beta`` (Equation 1).  The input
weights ``alpha`` and bias ``b`` are drawn once from U[0, 1] and never
updated; training solves for the output weights in one shot,
``beta = pinv(H) @ T`` (Equation 3) — optionally with the ReOS-ELM ridge term
(Equation 8) and optionally after spectrally normalizing ``alpha``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.activations import Activation, get_activation
from repro.core.regularization import RegularizationConfig, lipschitz_bound
from repro.linalg.pseudo_inverse import pinv, regularized_gram_inverse, ridge_solve
from repro.linalg.spectral import spectral_normalize
from repro.utils.exceptions import NotFittedError
from repro.utils.seeding import np_random
from repro.utils.validation import ensure_2d


class ELM:
    """Extreme Learning Machine regressor.

    Parameters
    ----------
    n_inputs, n_hidden, n_outputs:
        Layer sizes (``n``, ``N-tilde`` and ``m`` in the paper's notation).
    activation:
        Hidden-layer activation ``G`` (the paper uses ReLU).
    regularization:
        Which stabilisation techniques to apply (L2 delta for the ridge
        solve, spectral normalization of alpha).
    rng / seed:
        Source of randomness for the input weights.
    """

    def __init__(self, n_inputs: int, n_hidden: int, n_outputs: int = 1, *,
                 activation: str = "relu",
                 regularization: RegularizationConfig = RegularizationConfig(),
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None) -> None:
        if n_inputs <= 0 or n_hidden <= 0 or n_outputs <= 0:
            raise ValueError("n_inputs, n_hidden and n_outputs must all be positive")
        self.n_inputs = int(n_inputs)
        self.n_hidden = int(n_hidden)
        self.n_outputs = int(n_outputs)
        self.activation: Activation = get_activation(activation)
        self.regularization = regularization
        if rng is None:
            rng, _ = np_random(seed)
        self._rng = rng
        self.alpha: np.ndarray = np.empty((self.n_inputs, self.n_hidden))
        self.bias: np.ndarray = np.empty(self.n_hidden)
        self.beta: Optional[np.ndarray] = None
        self.alpha_spectral_norm: float = 0.0
        self._initialize_input_weights()

    # ------------------------------------------------------------------ initialisation
    def _initialize_input_weights(self) -> None:
        """Draw alpha, b ~ U[0, 1] (Algorithm 1 line 1) and optionally normalize alpha."""
        self.alpha = self._rng.uniform(0.0, 1.0, size=(self.n_inputs, self.n_hidden))
        self.bias = self._rng.uniform(0.0, 1.0, size=self.n_hidden)
        if self.regularization.spectral_normalize_alpha:
            self.alpha, self.alpha_spectral_norm = spectral_normalize(
                self.alpha, target=self.regularization.spectral_norm_target
            )
        else:
            self.alpha_spectral_norm = float(np.linalg.norm(self.alpha, 2))
        self.beta = None

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        """Re-draw the random input weights and discard beta.

        Implements the paper's reset rule for "unpromising weight parameters"
        (Section 4.3): agents call this when a run stalls for 300 episodes.
        """
        if rng is not None:
            self._rng = rng
        self._initialize_input_weights()

    # ------------------------------------------------------------------ inference
    @property
    def is_fitted(self) -> bool:
        return self.beta is not None

    def hidden(self, x: np.ndarray) -> np.ndarray:
        """Hidden-layer matrix ``H = G(x @ alpha + b)`` for a batch of inputs."""
        return self._hidden_rows(ensure_2d(x, name="x", n_features=self.n_inputs))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Network output ``H @ beta`` (Equation 1); requires prior training.

        Accepts a single sample ``(n_inputs,)`` or a batch ``(B, n_inputs)``
        and mirrors the input's dimensionality: 1-D in, ``(n_outputs,)`` out;
        2-D in, ``(B, n_outputs)`` out.
        """
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__}.predict called before fit()")
        single = np.asarray(x).ndim == 1
        out = self._predict_rows(ensure_2d(x, name="x", n_features=self.n_inputs))
        return out[0] if single else out

    # Row hooks: the public methods above validate their arguments once and
    # call these with finite ``(B, n_inputs)`` float rows, which they trust.
    # The Q-function calls them directly with rows it encoded itself.
    def _hidden_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.activation.forward(rows @ self.alpha + self.bias)

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(B, n_outputs)`` outputs of a fitted network for trusted rows."""
        return self._hidden_rows(rows) @ self.beta

    def _predict_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """``(B, k, n_outputs)`` outputs for a stack of trusted ``(k, n_inputs)``
        row blocks.  Each block is multiplied on its own, so its outputs are
        bit for bit ``_predict_rows(block)``; one ``(B * k, n_inputs)``
        multiply is not, since BLAS may round a taller matrix differently."""
        return self.activation.forward(blocks @ self.alpha + self.bias) @ self.beta

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)

    # ------------------------------------------------------------------ training
    def fit(self, x: np.ndarray, t: np.ndarray) -> "ELM":
        """One-shot batch training: ``beta = (H^T H + delta I)^{-1} H^T T``.

        With ``delta = 0`` this reduces to the pseudo-inverse solution of
        Equation 3 (computed through the normal equations when H has at least
        as many rows as hidden units, and through the SVD pseudo-inverse
        fallback otherwise).
        """
        x = ensure_2d(x, name="x", n_features=self.n_inputs)
        t = ensure_2d(t, name="t", n_features=self.n_outputs)
        if x.shape[0] != t.shape[0]:
            raise ValueError(
                f"x and t must have the same number of rows, got {x.shape[0]} and {t.shape[0]}"
            )
        h = self._hidden_rows(x)
        if self.regularization.l2_delta > 0:
            p = regularized_gram_inverse(h, self.regularization.l2_delta)
            self.beta = ridge_solve(h, t, self.regularization.l2_delta, p=p)
        else:
            # Equation 3: beta = H^dagger T.  Using the pseudo-inverse of H
            # directly (rather than the normal equations) keeps the solve
            # well-conditioned when the chunk has fewer rows than hidden units.
            self.beta = pinv(h) @ t
        return self

    # ------------------------------------------------------------------ diagnostics
    def lipschitz_upper_bound(self) -> float:
        """Bound on the network's Lipschitz constant (Section 3.3)."""
        beta = self.beta if self.beta is not None else np.zeros((self.n_hidden, self.n_outputs))
        return lipschitz_bound(self.alpha, beta, self.activation.name)

    def beta_frobenius_norm(self) -> float:
        """Frobenius norm of beta — the quantity the L2 regularization shrinks."""
        if self.beta is None:
            return 0.0
        return float(np.linalg.norm(self.beta))

    @property
    def n_parameters(self) -> int:
        """Total stored parameters: alpha, bias and beta."""
        return (self.n_inputs * self.n_hidden + self.n_hidden
                + self.n_hidden * self.n_outputs)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n_inputs={self.n_inputs}, n_hidden={self.n_hidden}, "
                f"n_outputs={self.n_outputs}, activation={self.activation.name}, "
                f"regularization={self.regularization.label or 'none'})")
