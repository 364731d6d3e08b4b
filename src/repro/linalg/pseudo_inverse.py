"""Pseudo-inverse and regularized least-squares solvers.

ELM computes its optimal output weights as ``beta = pinv(H) @ T``
(Equation 3 of the paper); ReOS-ELM replaces the Gram inverse with a ridge
(L2-regularized) inverse ``(H^T H + delta I)^{-1}`` (Equation 8).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_positive, ensure_2d


def pinv(matrix: np.ndarray, *, rcond: float = 1e-12, method: str = "svd") -> np.ndarray:
    """Moore–Penrose pseudo-inverse via SVD or QR.

    The paper notes that ``H†`` "can be computed with matrix decomposition
    algorithms, such as SVD and QRD"; both are exposed here so the ELM batch
    path can be exercised with either backend.

    Parameters
    ----------
    matrix:
        2-D array of shape ``(k, n)``.
    rcond:
        Relative cutoff for small singular values (SVD method only).
    method:
        ``"svd"`` (default, robust for rank-deficient input) or ``"qr"``
        (valid for full-column-rank input).
    """
    import scipy.linalg
    matrix = ensure_2d(matrix, name="matrix")
    if method == "svd":
        u, s, vt = scipy.linalg.svd(matrix, full_matrices=False)
        cutoff = rcond * (s[0] if s.size else 0.0)
        s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        return (vt.T * s_inv) @ u.T
    if method == "qr":
        k, n = matrix.shape
        if k >= n:
            q, r = scipy.linalg.qr(matrix, mode="economic")
            return scipy.linalg.solve_triangular(r, q.T)
        q, r = scipy.linalg.qr(matrix.T, mode="economic")
        return (scipy.linalg.solve_triangular(r, q.T)).T
    raise ValueError(f"unknown pseudo-inverse method {method!r}; use 'svd' or 'qr'")


def regularized_gram_inverse(h: np.ndarray, delta: float = 0.0,
                             *, assume_finite: bool = False) -> np.ndarray:
    """Compute ``(H^T H + delta I)^{-1}``.

    With ``delta=0`` this is the OS-ELM initial-training ``P0`` (Equation 7);
    with ``delta>0`` it is the ReOS-ELM ``P0`` (Equation 8).  A
    positive-definite (Cholesky) solve is attempted first; if the Gram matrix
    is singular (possible when the initial chunk has fewer rows than hidden
    units and ``delta=0``) the computation falls back to the SVD
    pseudo-inverse.
    """
    h = ensure_2d(h, name="H")
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    n_hidden = h.shape[1]
    gram = h.T @ h
    if delta > 0:
        gram = gram + delta * np.eye(n_hidden)
    import scipy.linalg
    try:
        cho = scipy.linalg.cho_factor(gram, check_finite=not assume_finite)
        return scipy.linalg.cho_solve(cho, np.eye(n_hidden), check_finite=not assume_finite)
    except (np.linalg.LinAlgError, ValueError):
        return pinv(gram)


def ridge_solve(h: np.ndarray, t: np.ndarray, delta: float = 0.0,
                p: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve the (optionally ridge-regularized) least-squares problem for beta.

    Returns ``beta = P H^T T`` where ``P = (H^T H + delta I)^{-1}`` — i.e. the
    combined initial training of Equations 7/8.  If ``P`` has already been
    computed it can be passed to avoid recomputing the inverse.
    """
    h = ensure_2d(h, name="H")
    t = ensure_2d(t, name="T")
    if h.shape[0] != t.shape[0]:
        raise ValueError(
            f"H and T must have the same number of rows, got {h.shape[0]} and {t.shape[0]}"
        )
    if p is None:
        p = regularized_gram_inverse(h, delta)
    return p @ (h.T @ t)


def condition_number(matrix: np.ndarray) -> float:
    """2-norm condition number (ratio of extreme singular values)."""
    import scipy.linalg
    matrix = ensure_2d(matrix, name="matrix")
    s = scipy.linalg.svdvals(matrix)
    if s.size == 0 or s[-1] == 0:
        return float("inf")
    return float(s[0] / s[-1])


def effective_rank(matrix: np.ndarray, rcond: float = 1e-12) -> int:
    """Numerical rank: number of singular values above ``rcond * s_max``."""
    import scipy.linalg
    matrix = ensure_2d(matrix, name="matrix")
    s = scipy.linalg.svdvals(matrix)
    if s.size == 0:
        return 0
    return int(np.sum(s > rcond * s[0]))


def ridge_path(h: np.ndarray, t: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Solve the ridge problem for a sweep of regularization strengths.

    Used by the regularization ablation to show how ``delta`` (the paper sets
    1.0 and 0.5) trades training error against the norm of ``beta``.
    Returns an array of shape ``(len(deltas), n_hidden, n_outputs)``.
    """
    h = ensure_2d(h, name="H")
    t = ensure_2d(t, name="T")
    deltas = np.asarray(deltas, dtype=float)
    check_positive(deltas.size, name="len(deltas)")
    betas = np.empty((deltas.size, h.shape[1], t.shape[1]))
    # A single SVD serves every delta: beta(delta) = V diag(s/(s^2+delta)) U^T T.
    import scipy.linalg
    u, s, vt = scipy.linalg.svd(h, full_matrices=False)
    ut_t = u.T @ t
    for i, delta in enumerate(deltas):
        if delta < 0:
            raise ValueError("deltas must be non-negative")
        filt = s / (s**2 + delta) if delta > 0 else np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)
        betas[i] = vt.T @ (filt[:, None] * ut_t)
    return betas
