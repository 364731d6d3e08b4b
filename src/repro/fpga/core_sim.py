"""Bit-accurate functional simulation of the predict / seq_train datapath.

The paper's Verilog core stores the input row, ``alpha``, ``beta``, ``P`` and
all intermediates as 32-bit Q20 fixed-point numbers in on-chip BRAM and
processes them with a single add / multiply / divide unit.  This module
reproduces that arithmetic in software: every intermediate value is quantized
to the configured Q-format, so the simulated core exhibits the same rounding
behaviour (and the same failure modes — e.g. saturation of the reciprocal
when the denominator underflows) as the hardware would.

The initial training (Equation 7/8) is *not* part of the core: on the real
board it runs on the Cortex-A9 in floating point and the resulting ``P0`` /
``beta0`` are then quantized and DMA-ed into BRAM, which is exactly what
:meth:`FixedPointOSELMCore.load_initial_state` models.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.activations import get_activation
from repro.fixedpoint.array import FixedPointArray
from repro.fixedpoint.ops import (
    fixed_add,
    fixed_matmul,
    fixed_multiply,
    fixed_outer,
    fixed_reciprocal,
)
from repro.fixedpoint.qformat import Q20, QFormat
from repro.utils.exceptions import NotFittedError


class FixedPointOSELMCore:
    """The fixed-point predict + seq_train engine.

    Parameters
    ----------
    n_inputs, n_hidden, n_outputs:
        Network dimensions (the CartPole Q-network uses 5 / N-tilde / 1).
    activation:
        Hidden activation; ReLU in the paper (cheap in hardware: a comparator).
    qformat:
        Fixed-point word format (32-bit Q20 by default).
    """

    def __init__(self, n_inputs: int, n_hidden: int, n_outputs: int = 1, *,
                 activation: str = "relu", qformat: QFormat = Q20) -> None:
        if n_inputs <= 0 or n_hidden <= 0 or n_outputs <= 0:
            raise ValueError("n_inputs, n_hidden and n_outputs must be positive")
        self.n_inputs = int(n_inputs)
        self.n_hidden = int(n_hidden)
        self.n_outputs = int(n_outputs)
        self.activation = get_activation(activation)
        self.qformat = qformat
        self.alpha: Optional[FixedPointArray] = None
        self.bias: Optional[FixedPointArray] = None
        self.beta: Optional[FixedPointArray] = None
        self.p: Optional[FixedPointArray] = None
        self.predict_invocations = 0
        self.seq_train_invocations = 0

    # ------------------------------------------------------------------ state loading
    def load_weights(self, alpha: np.ndarray, bias: np.ndarray) -> None:
        """Quantize and store the (fixed) input weights and bias."""
        alpha = np.asarray(alpha, dtype=float)
        bias = np.asarray(bias, dtype=float).reshape(-1)
        if alpha.shape != (self.n_inputs, self.n_hidden):
            raise ValueError(f"alpha must have shape {(self.n_inputs, self.n_hidden)}, "
                             f"got {alpha.shape}")
        if bias.shape != (self.n_hidden,):
            raise ValueError(f"bias must have shape {(self.n_hidden,)}, got {bias.shape}")
        self.alpha = FixedPointArray(alpha, self.qformat)
        self.bias = FixedPointArray(bias, self.qformat)

    def load_initial_state(self, p0: np.ndarray, beta0: np.ndarray) -> None:
        """Quantize and store the CPU-computed initial-training results P0 and beta0."""
        p0 = np.asarray(p0, dtype=float)
        beta0 = np.asarray(beta0, dtype=float)
        if p0.shape != (self.n_hidden, self.n_hidden):
            raise ValueError(f"P0 must have shape {(self.n_hidden, self.n_hidden)}, got {p0.shape}")
        if beta0.shape != (self.n_hidden, self.n_outputs):
            raise ValueError(
                f"beta0 must have shape {(self.n_hidden, self.n_outputs)}, got {beta0.shape}"
            )
        self.p = FixedPointArray(p0, self.qformat)
        self.beta = FixedPointArray(beta0, self.qformat)

    @property
    def ready(self) -> bool:
        """Whether both the weights and the initial (P, beta) state have been loaded."""
        return all(x is not None for x in (self.alpha, self.bias, self.beta, self.p))

    def _require_ready(self) -> None:
        if self.alpha is None or self.bias is None:
            raise NotFittedError("core weights not loaded; call load_weights() first")
        if self.beta is None or self.p is None:
            raise NotFittedError(
                "core state not initialised; call load_initial_state() after the "
                "CPU-side initial training"
            )

    # ------------------------------------------------------------------ datapath
    def hidden(self, x_row: np.ndarray) -> FixedPointArray:
        """Hidden-layer vector ``h = G(x @ alpha + b)`` in fixed point (one row)."""
        if self.alpha is None or self.bias is None:
            raise NotFittedError("core weights not loaded; call load_weights() first")
        x_fx = FixedPointArray(np.asarray(x_row, dtype=float).reshape(1, -1), self.qformat)
        if x_fx.shape[1] != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {x_fx.shape[1]}")
        pre = fixed_add(fixed_matmul(x_fx, self.alpha, fmt=self.qformat),
                        FixedPointArray(self.bias.to_float().reshape(1, -1), self.qformat),
                        fmt=self.qformat)
        activated = self.activation.forward(pre.to_float())
        return FixedPointArray(activated, self.qformat)

    def predict(self, x_row: np.ndarray) -> np.ndarray:
        """The predict module: ``y = h @ beta`` for one input row.

        Returns a float view of the fixed-point result (shape ``(1, n_outputs)``).
        """
        self._require_ready()
        h = self.hidden(x_row)
        y = fixed_matmul(h, self.beta, fmt=self.qformat)
        self.predict_invocations += 1
        return y.to_float().reshape(1, self.n_outputs)

    def seq_train(self, x_row: np.ndarray, target: np.ndarray) -> None:
        """The seq_train module: one batch-size-1 OS-ELM update, all in fixed point.

        Implements the Sherman–Morrison form of Equations 5–6::

            h   = G(x alpha + b)
            Ph  = P h^T
            den = 1 + h Ph           (scalar)
            P  <- P - (Ph Ph^T) / den
            e   = t - h beta
            beta <- beta + P h^T e
        """
        self._require_ready()
        fmt = self.qformat
        target = np.asarray(target, dtype=float).reshape(1, self.n_outputs)
        h = self.hidden(x_row)                                   # (1, N)
        h_col = FixedPointArray(h.to_float().reshape(-1, 1), fmt)  # (N, 1)
        ph = fixed_matmul(self.p, h_col, fmt=fmt)                # (N, 1)
        h_dot_ph = fixed_matmul(h, ph, fmt=fmt)                  # (1, 1)
        denominator = fixed_add(FixedPointArray(1.0, fmt), h_dot_ph, fmt=fmt)
        recip = fixed_reciprocal(denominator, fmt=fmt)           # (1, 1) scalar
        outer = fixed_outer(ph.to_float().reshape(-1), ph.to_float().reshape(-1), fmt=fmt)
        correction = fixed_multiply(outer, recip.item(), fmt=fmt)
        self.p = FixedPointArray(self.p.to_float() - correction.to_float(), fmt)
        # beta update: residual uses the *old* beta, as in Equation 6.
        prediction = fixed_matmul(h, self.beta, fmt=fmt)          # (1, m)
        residual = FixedPointArray(target - prediction.to_float(), fmt)
        gain = fixed_matmul(self.p, h_col, fmt=fmt)               # (N, 1), uses the new P
        delta_beta = fixed_matmul(gain, residual, fmt=fmt)        # (N, m)
        self.beta = fixed_add(self.beta, delta_beta, fmt=fmt)
        self.seq_train_invocations += 1

    # ------------------------------------------------------------------ diagnostics
    def memory_words(self) -> Dict[str, int]:
        """Word counts of each BRAM-resident array (for cross-checking the area model)."""
        return {
            "alpha": self.n_inputs * self.n_hidden,
            "bias": self.n_hidden,
            "beta": self.n_hidden * self.n_outputs,
            "P": self.n_hidden * self.n_hidden,
        }

    def state_as_float(self) -> Dict[str, np.ndarray]:
        """Float views of the quantized state (for comparison against a float reference)."""
        self._require_ready()
        return {
            "alpha": self.alpha.to_float(),
            "bias": self.bias.to_float(),
            "beta": self.beta.to_float(),
            "P": self.p.to_float(),
        }

    def compare_against(self, reference_beta: np.ndarray, reference_p: np.ndarray
                        ) -> Dict[str, float]:
        """Maximum absolute divergence of the fixed-point state from a float reference."""
        self._require_ready()
        return {
            "beta_max_abs_error": float(np.max(np.abs(self.beta.to_float() - reference_beta))),
            "p_max_abs_error": float(np.max(np.abs(self.p.to_float() - reference_p))),
        }
