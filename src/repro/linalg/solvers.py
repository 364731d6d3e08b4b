"""Small dense-system solvers used by the training algorithms."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_2d


def solve_posdef(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive-definite ``A`` via Cholesky.

    Falls back to a general LU solve if the Cholesky factorization fails
    (e.g. when numerical round-off makes A slightly indefinite).
    """
    a = ensure_2d(a, name="A")
    b = np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    import scipy.linalg
    try:
        cho = scipy.linalg.cho_factor(a)
        return scipy.linalg.cho_solve(cho, b)
    except np.linalg.LinAlgError:
        return scipy.linalg.solve(a, b)


def solve_small_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a small general square system ``A x = b``.

    Dimensions 1 and 2 are special-cased with closed forms: the batch-size-1
    OS-ELM path reduces the inner inverse to a scalar reciprocal (the paper's
    key hardware simplification), and 2x2 systems arise in the tiny-batch
    ablations.
    """
    a = ensure_2d(a, name="A")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if n == 1:
        pivot = a[0, 0]
        if pivot == 0:
            raise np.linalg.LinAlgError("singular 1x1 system")
        return b / pivot
    if n == 2:
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if det == 0:
            raise np.linalg.LinAlgError("singular 2x2 system")
        inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
        return inv @ b
    import scipy.linalg
    return scipy.linalg.solve(a, b)


def is_symmetric(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether ``A`` is symmetric to within ``tol`` (absolute, scaled by max |A|)."""
    a = ensure_2d(a, name="A")
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    return bool(np.allclose(a, a.T, atol=tol * scale))


def is_positive_definite(a: np.ndarray) -> bool:
    """Whether symmetric ``A`` is positive definite (via attempted Cholesky)."""
    a = ensure_2d(a, name="A")
    if a.shape[0] != a.shape[1] or not is_symmetric(a, tol=1e-8):
        return False
    import scipy.linalg
    try:
        scipy.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A^T) / 2`` — used to keep P numerically symmetric over many updates."""
    a = ensure_2d(a, name="A")
    return (a + a.T) * 0.5
