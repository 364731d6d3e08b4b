"""Spectral norms, spectral normalization and Lipschitz-constant accounting.

Section 3.3 of the paper normalizes the (fixed, random) input weight matrix
``alpha`` by its largest singular value so that the Lipschitz constant of the
OS-ELM network is bounded by ``sigma_max(beta)``; the L2 regularization of
``beta`` then controls that remaining factor (Relation 13).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import ensure_2d


def spectral_norm(matrix: np.ndarray, *, method: str = "svd",
                  n_iterations: int = 100, tol: float = 1e-10,
                  rng: Optional[np.random.Generator] = None) -> float:
    """Largest singular value of ``matrix``.

    ``method="svd"`` uses a full (LAPACK) SVD, matching line 2 of
    Algorithm 1; ``method="power"`` uses power iteration, which is what an
    on-device implementation would use because it needs only matrix-vector
    products.
    """
    matrix = ensure_2d(matrix, name="matrix")
    if matrix.size == 0:
        return 0.0
    if method == "svd":
        import scipy.linalg
        return float(scipy.linalg.svdvals(matrix)[0])
    if method == "power":
        sigma, _, _ = power_iteration(matrix, n_iterations=n_iterations, tol=tol, rng=rng)
        return sigma
    raise ValueError(f"unknown spectral norm method {method!r}; use 'svd' or 'power'")


def power_iteration(matrix: np.ndarray, *, n_iterations: int = 100, tol: float = 1e-10,
                    rng: Optional[np.random.Generator] = None
                    ) -> Tuple[float, np.ndarray, np.ndarray]:
    """Estimate the dominant singular triple ``(sigma, u, v)`` by power iteration.

    Iterates ``v <- A^T u / ||.||``, ``u <- A v / ||.||`` as in the spectral
    normalization paper (Miyato et al., 2018).
    """
    matrix = ensure_2d(matrix, name="matrix")
    if n_iterations <= 0:
        raise ValueError("n_iterations must be positive")
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        return 0.0, np.zeros(rows), np.zeros(cols)
    rng = rng if rng is not None else np.random.default_rng(0)
    u = rng.standard_normal(rows)
    u_norm = np.linalg.norm(u)
    u = u / u_norm if u_norm > 0 else np.ones(rows) / np.sqrt(rows)
    sigma_prev = 0.0
    v = np.zeros(cols)
    for _ in range(n_iterations):
        v = matrix.T @ u
        v_norm = np.linalg.norm(v)
        if v_norm == 0:
            return 0.0, u, v
        v = v / v_norm
        u = matrix @ v
        sigma = np.linalg.norm(u)
        if sigma == 0:
            return 0.0, u, v
        u = u / sigma
        if abs(sigma - sigma_prev) <= tol * max(1.0, sigma):
            sigma_prev = sigma
            break
        sigma_prev = sigma
    return float(sigma_prev), u, v


def spectral_normalize(matrix: np.ndarray, *, target: float = 1.0, method: str = "svd",
                       eps: float = 1e-12) -> Tuple[np.ndarray, float]:
    """Scale ``matrix`` so its spectral norm equals ``target`` (lines 2–3 of Algorithm 1).

    Returns the normalized matrix and the original spectral norm.  Matrices
    whose norm is already below ``eps`` are returned unchanged (an all-zero
    alpha cannot be normalized and would never occur with the paper's
    uniform-[0,1] initialisation).
    """
    matrix = ensure_2d(matrix, name="matrix")
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    sigma = spectral_norm(matrix, method=method)
    if sigma <= eps:
        return matrix.copy(), sigma
    return matrix * (target / sigma), sigma


def dominant_singular_vectors(matrix: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """Exact dominant singular triple via full SVD (used by Equation 12's analysis)."""
    matrix = ensure_2d(matrix, name="matrix")
    import scipy.linalg
    u, s, vt = scipy.linalg.svd(matrix, full_matrices=False)
    if s.size == 0:
        return 0.0, np.zeros(matrix.shape[0]), np.zeros(matrix.shape[1])
    return float(s[0]), u[:, 0], vt[0, :]


def frobenius_norm(matrix: np.ndarray) -> float:
    """Frobenius norm, the quantity bounded below by the spectral norm in Relation 13."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float)))


def lipschitz_constant_relu_network(weights: Sequence[np.ndarray]) -> float:
    """Upper bound on the Lipschitz constant of a ReLU network.

    The paper derives the network Lipschitz constant as the product of the
    per-layer Lipschitz constants; for ReLU / tanh activations each activation
    contributes at most 1, so the bound is the product of the weight-matrix
    spectral norms.
    """
    constant = 1.0
    for weight in weights:
        constant *= spectral_norm(np.asarray(weight, dtype=float))
    return float(constant)
