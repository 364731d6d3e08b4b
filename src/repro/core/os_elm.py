"""OS-ELM: the online-sequential ELM (Sections 2.2–2.3).

After an *initial training* on a first chunk (Equation 7, or Equation 8 with
the ReOS-ELM ridge term), the model is updated one chunk at a time with the
recursive formulas of Equations 5–6.  With the paper's batch size of 1 the
inner matrix inverse collapses to a scalar reciprocal, which is the property
that makes the FPGA implementation feasible without an SVD/QRD core.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.elm import ELM
from repro.linalg.incremental import RecursiveInverse
from repro.linalg.pseudo_inverse import regularized_gram_inverse, ridge_solve
from repro.utils.exceptions import NotFittedError
from repro.utils.validation import ensure_2d


class OSELM(ELM):
    """Online Sequential Extreme Learning Machine regressor.

    Inherits the network structure (alpha, bias, activation, regularization)
    from :class:`ELM` and adds the recursive ``(P, beta)`` state plus
    :meth:`init_train` / :meth:`partial_fit`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recursive: Optional[RecursiveInverse] = None

    # ------------------------------------------------------------------ state
    @property
    def p_matrix(self) -> Optional[np.ndarray]:
        """The inverse-Gram state ``P_i`` (``None`` before initial training)."""
        return None if self._recursive is None else self._recursive.p

    @property
    def n_sequential_updates(self) -> int:
        """How many sequential chunks have been absorbed since initial training."""
        return 0 if self._recursive is None else self._recursive.updates

    @property
    def is_initialized(self) -> bool:
        """Whether the initial training (Equation 7/8) has been performed."""
        return self._recursive is not None

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        """Re-draw input weights and discard the recursive state (paper's reset rule)."""
        super().reset(rng)
        self._recursive = None

    # ------------------------------------------------------------------ training
    def init_train(self, x0: np.ndarray, t0: np.ndarray) -> "OSELM":
        """Initial training on the first chunk: compute ``P0`` and ``beta0``.

        Uses Equation 7, or Equation 8 when the regularization config carries
        a positive ``l2_delta`` (the ReOS-ELM variant).  The initial chunk
        should contain at least ``n_hidden`` rows for Equation 7 to be well
        posed; with the ridge term any chunk size works.
        """
        x0 = ensure_2d(x0, name="x0", n_features=self.n_inputs)
        t0 = ensure_2d(t0, name="t0", n_features=self.n_outputs)
        if x0.shape[0] != t0.shape[0]:
            raise ValueError(
                f"x0 and t0 must have the same number of rows, got {x0.shape[0]} and {t0.shape[0]}"
            )
        self._init_rows(x0, t0)
        return self

    # ``fit`` on an OS-ELM is the initial training — keeps the ELM interface usable.
    def fit(self, x: np.ndarray, t: np.ndarray) -> "OSELM":
        return self.init_train(x, t)

    def partial_fit(self, x: np.ndarray, t: np.ndarray) -> "OSELM":
        """Sequential training on one chunk (Equations 5–6).

        The chunk may have any number of rows; the paper (and the FPGA core)
        fixes it at one row, in which case the update involves only
        matrix-vector products and a scalar reciprocal.
        """
        if not self.is_initialized:
            raise NotFittedError(f"{type(self).__name__}.partial_fit called before init_train()")
        x = ensure_2d(x, name="x", n_features=self.n_inputs)
        t = ensure_2d(t, name="t", n_features=self.n_outputs)
        if x.shape[0] != t.shape[0]:
            raise ValueError(
                f"x and t must have the same number of rows, got {x.shape[0]} and {t.shape[0]}"
            )
        self._update_rows(x, t)
        return self

    def seq_train_step(self, x_row: np.ndarray, target: float) -> "OSELM":
        """Convenience wrapper for the batch-size-1 update used by the Q-Network."""
        x_row = np.asarray(x_row, dtype=float).reshape(1, -1)
        t_row = np.asarray(target, dtype=float).reshape(1, -1)
        return self.partial_fit(x_row, t_row)

    # Row hooks (see ELM): trusted, already validated ``x``/``t`` rows.
    def _init_rows(self, x0: np.ndarray, t0: np.ndarray) -> None:
        h0 = self._hidden_rows(x0)
        p0 = regularized_gram_inverse(h0, self.regularization.l2_delta)
        beta0 = ridge_solve(h0, t0, self.regularization.l2_delta, p=p0)
        self._recursive = RecursiveInverse(p0, beta0)
        self.beta = self._recursive.beta

    def _update_rows(self, x: np.ndarray, t: np.ndarray) -> None:
        self._recursive.update(self._hidden_rows(x), t)
        self.beta = self._recursive.beta

    # ------------------------------------------------------------------ snapshots
    def clone_state(self) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Snapshot ``(beta, P, alpha)`` for target-network synchronisation.

        Only beta (and P) evolve during training; alpha and the bias are
        shared between the online network theta_1 and the target network
        theta_2, exactly as in Algorithm 1 where theta_2 starts as a copy of
        theta_1.
        """
        beta = None if self.beta is None else self.beta.copy()
        p = None if self._recursive is None else self._recursive.p.copy()
        return (self.alpha.copy(), beta, p)

    def load_state(self, state: Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]
                   ) -> None:
        """Restore a snapshot produced by :meth:`clone_state`."""
        alpha, beta, p = state
        self.alpha = np.asarray(alpha, dtype=float).copy()
        if beta is None:
            self.beta = None
            self._recursive = None
        else:
            beta = np.asarray(beta, dtype=float).copy()
            self.beta = beta
            if p is not None:
                self._recursive = RecursiveInverse(np.asarray(p, dtype=float).copy(), beta)
            else:
                self._recursive = None
