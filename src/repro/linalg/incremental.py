"""Incremental (rank-k) updates of an inverse Gram matrix.

OS-ELM's sequential training (Equations 5–6 of the paper) maintains
``P_i = (sum_j H_j^T H_j)^{-1}`` and updates it with each new chunk using the
Woodbury identity::

    P_i = P_{i-1} - P_{i-1} H_i^T (I + H_i P_{i-1} H_i^T)^{-1} H_i P_{i-1}

For batch size 1 (the paper's FPGA configuration) the inner inverse is the
reciprocal of a scalar (Sherman–Morrison), which is why the hardware needs no
SVD/QRD core.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.telemetry.tracing import span
from repro.utils.exceptions import ShapeError
from repro.utils.validation import ensure_2d


# Each update below is one private function over trusted float arrays (the
# math) wrapped by one public function that validates its arguments first.
# RecursiveInverse.update, the entry point of every sequential step, checks
# shapes and calls the math directly.

def _sherman_morrison(p: np.ndarray, h_row: np.ndarray) -> np.ndarray:
    with span("linalg.sherman_morrison"):
        ph = p @ h_row                      # (N,)
        denom = 1.0 + float(h_row @ ph)     # scalar: 1 + h P h^T
        if denom <= 0:
            raise np.linalg.LinAlgError(
                f"Sherman-Morrison denominator is non-positive ({denom}); P is not positive definite"
            )
        return p - np.outer(ph, ph) / denom


def _woodbury(p: np.ndarray, h_chunk: np.ndarray) -> np.ndarray:
    k = h_chunk.shape[0]
    if k == 1:
        return _sherman_morrison(p, h_chunk[0])
    with span("linalg.woodbury"):
        ph_t = p @ h_chunk.T                          # (N, k)
        inner = np.eye(k) + h_chunk @ ph_t            # (k, k)
        import scipy.linalg
        try:
            cho = scipy.linalg.cho_factor(inner)
            solved = scipy.linalg.cho_solve(cho, ph_t.T)   # (k, N)
        except np.linalg.LinAlgError:
            solved = np.linalg.solve(inner, ph_t.T)
        return p - ph_t @ solved


def _beta_update(beta: np.ndarray, p_new: np.ndarray, h_chunk: np.ndarray,
                 t_chunk: np.ndarray) -> np.ndarray:
    residual = t_chunk - h_chunk @ beta
    return beta + p_new @ (h_chunk.T @ residual)


def sherman_morrison_update(p: np.ndarray, h_row: np.ndarray) -> np.ndarray:
    """Rank-1 (batch-size-1) update of the inverse Gram matrix.

    Computes ``P' = P - (P h^T h P) / (1 + h P h^T)`` where ``h`` is a single
    row vector.  This is the exact operation the paper's ``seq_train`` FPGA
    module performs: matrix-vector products plus one scalar reciprocal.
    """
    p = ensure_2d(p, name="P")
    h_row = np.asarray(h_row, dtype=float).reshape(-1)
    if h_row.shape[0] != p.shape[0]:
        raise ValueError(
            f"h_row length {h_row.shape[0]} does not match P dimension {p.shape[0]}"
        )
    return _sherman_morrison(p, h_row)


def woodbury_update(p: np.ndarray, h_chunk: np.ndarray) -> np.ndarray:
    """Rank-k (arbitrary batch) update of the inverse Gram matrix (Equation 5/6).

    Computes ``P' = P - P H^T (I + H P H^T)^{-1} H P`` for a chunk ``H`` of
    shape ``(k, N)``.  The inner ``k x k`` system is solved with a Cholesky
    factorization (it is symmetric positive definite when P is); a one-row
    chunk takes the Sherman–Morrison path.
    """
    p = ensure_2d(p, name="P")
    h_chunk = ensure_2d(h_chunk, name="H")
    if h_chunk.shape[1] != p.shape[0]:
        raise ValueError(
            f"H has {h_chunk.shape[1]} columns but P is {p.shape[0]}x{p.shape[1]}"
        )
    return _woodbury(p, h_chunk)


def beta_update(beta: np.ndarray, p_new: np.ndarray, h_chunk: np.ndarray,
                t_chunk: np.ndarray) -> np.ndarray:
    """Output-weight update ``beta' = beta + P' H^T (T - H beta)`` (Equation 5/6)."""
    return _beta_update(ensure_2d(beta, name="beta"), ensure_2d(p_new, name="P"),
                        ensure_2d(h_chunk, name="H"), ensure_2d(t_chunk, name="T"))


class RecursiveInverse:
    """Stateful recursive-least-squares style tracker of ``P`` and ``beta``.

    This is the numerical heart of OS-ELM: it owns the pair ``(P, beta)`` and
    applies the Woodbury/Sherman–Morrison update for each incoming chunk.  The
    OS-ELM model object in :mod:`repro.core.os_elm` delegates to it, and the
    FPGA functional simulation re-implements the same recurrence in fixed
    point so the two can be compared element-wise.
    """

    def __init__(self, p0: np.ndarray, beta0: np.ndarray) -> None:
        p0 = ensure_2d(p0, name="P0")
        beta0 = ensure_2d(beta0, name="beta0")
        if p0.shape[0] != p0.shape[1]:
            raise ValueError(f"P0 must be square, got shape {p0.shape}")
        if beta0.shape[0] != p0.shape[0]:
            raise ValueError(
                f"beta0 rows ({beta0.shape[0]}) must match P0 dimension ({p0.shape[0]})"
            )
        self.p = p0.astype(float, copy=True)
        self.beta = beta0.astype(float, copy=True)
        self.updates = 0

    @property
    def n_hidden(self) -> int:
        return self.p.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.beta.shape[1]

    def update(self, h_chunk: np.ndarray, t_chunk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one chunk ``(H_i, T_i)`` and return the updated ``(P, beta)``.

        ``H`` is a ``(k, n_hidden)`` and ``T`` a ``(k, n_outputs)`` float
        array; only their shapes are checked.  A non-finite result — from a
        non-finite chunk, or a ``P``/``beta`` corrupted since the last update —
        raises ``ValueError`` and leaves the state as it was.
        """
        if h_chunk.ndim != 2 or h_chunk.shape[1] != self.n_hidden:
            raise ShapeError(f"H must have shape (k, {self.n_hidden}), got {h_chunk.shape}")
        if t_chunk.shape != (h_chunk.shape[0], self.n_outputs):
            raise ShapeError(
                f"T must have shape ({h_chunk.shape[0]}, {self.n_outputs}) to match H, "
                f"got {t_chunk.shape}"
            )
        p_new = _woodbury(self.p, h_chunk)
        beta_new = _beta_update(self.beta, p_new, h_chunk, t_chunk)
        if not (np.isfinite(p_new).all() and np.isfinite(beta_new).all()):
            raise ValueError("the sequential update produced NaN or Inf in P or beta")
        self.p, self.beta = p_new, beta_new
        self.updates += 1
        return self.p, self.beta

    def copy(self) -> "RecursiveInverse":
        clone = RecursiveInverse(self.p, self.beta)
        clone.updates = self.updates
        return clone
