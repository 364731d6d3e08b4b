"""Tests for the repro.linalg numerical kernels."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro.linalg.incremental import (
    RecursiveInverse,
    beta_update,
    sherman_morrison_update,
    woodbury_update,
)
from repro.linalg.pseudo_inverse import (
    condition_number,
    effective_rank,
    pinv,
    regularized_gram_inverse,
    ridge_path,
    ridge_solve,
)
from repro.linalg.solvers import (
    is_positive_definite,
    is_symmetric,
    solve_posdef,
    solve_small_system,
    symmetrize,
)
from repro.linalg.spectral import (
    dominant_singular_vectors,
    frobenius_norm,
    lipschitz_constant_relu_network,
    power_iteration,
    spectral_norm,
    spectral_normalize,
)


class TestPseudoInverse:
    def test_pinv_matches_numpy_svd(self, rng):
        matrix = rng.normal(size=(10, 6))
        np.testing.assert_allclose(pinv(matrix), np.linalg.pinv(matrix), atol=1e-10)

    def test_pinv_qr_full_rank(self, rng):
        matrix = rng.normal(size=(12, 5))
        np.testing.assert_allclose(pinv(matrix, method="qr"), np.linalg.pinv(matrix), atol=1e-9)

    def test_pinv_qr_wide_matrix(self, rng):
        matrix = rng.normal(size=(4, 9))
        np.testing.assert_allclose(pinv(matrix, method="qr"), np.linalg.pinv(matrix), atol=1e-9)

    def test_pinv_rank_deficient(self, rng):
        base = rng.normal(size=(8, 2))
        matrix = base @ rng.normal(size=(2, 5))   # rank 2
        result = pinv(matrix)
        # Moore-Penrose conditions
        np.testing.assert_allclose(matrix @ result @ matrix, matrix, atol=1e-8)
        np.testing.assert_allclose(result @ matrix @ result, result, atol=1e-8)

    def test_pinv_unknown_method(self, rng):
        with pytest.raises(ValueError):
            pinv(rng.normal(size=(3, 3)), method="lu")

    def test_regularized_gram_inverse_identity_check(self, rng):
        h = rng.normal(size=(50, 8))
        delta = 0.5
        p = regularized_gram_inverse(h, delta)
        np.testing.assert_allclose(p @ (h.T @ h + delta * np.eye(8)), np.eye(8), atol=1e-8)

    def test_regularized_gram_inverse_negative_delta(self, rng):
        with pytest.raises(ValueError):
            regularized_gram_inverse(rng.normal(size=(5, 3)), -1.0)

    def test_ridge_solve_matches_closed_form(self, rng):
        h = rng.normal(size=(40, 6))
        t = rng.normal(size=(40, 2))
        delta = 1.0
        beta = ridge_solve(h, t, delta)
        expected = np.linalg.solve(h.T @ h + delta * np.eye(6), h.T @ t)
        np.testing.assert_allclose(beta, expected, atol=1e-9)

    def test_ridge_solve_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            ridge_solve(rng.normal(size=(5, 3)), rng.normal(size=(4, 1)))

    def test_ridge_path_monotone_shrinkage(self, rng):
        h = rng.normal(size=(60, 5))
        t = rng.normal(size=(60, 1))
        deltas = np.array([0.0, 0.1, 1.0, 10.0])
        betas = ridge_path(h, t, deltas)
        norms = [np.linalg.norm(b) for b in betas]
        assert norms == sorted(norms, reverse=True)

    def test_condition_number_identity(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_effective_rank(self, rng):
        base = rng.normal(size=(10, 3))
        matrix = base @ rng.normal(size=(3, 7))
        assert effective_rank(matrix) == 3


class TestSpectral:
    def test_spectral_norm_matches_scipy(self, rng):
        matrix = rng.normal(size=(7, 12))
        assert spectral_norm(matrix) == pytest.approx(scipy.linalg.svdvals(matrix)[0])

    def test_power_iteration_close_to_svd(self, rng):
        matrix = rng.normal(size=(20, 15))
        sigma, u, v = power_iteration(matrix, n_iterations=500, tol=1e-14, rng=rng)
        assert sigma == pytest.approx(scipy.linalg.svdvals(matrix)[0], rel=1e-6)
        # u and v are unit singular vectors
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-6)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-6)

    def test_spectral_norm_power_method_option(self, rng):
        matrix = rng.normal(size=(9, 9))
        assert spectral_norm(matrix, method="power", n_iterations=500) == pytest.approx(
            spectral_norm(matrix, method="svd"), rel=1e-5
        )

    def test_spectral_normalize_unit_norm(self, rng):
        matrix = rng.uniform(0, 1, size=(5, 32))
        normalized, original = spectral_normalize(matrix)
        assert spectral_norm(normalized) == pytest.approx(1.0, rel=1e-10)
        assert original == pytest.approx(spectral_norm(matrix))

    def test_spectral_normalize_custom_target(self, rng):
        matrix = rng.normal(size=(4, 4))
        normalized, _ = spectral_normalize(matrix, target=2.5)
        assert spectral_norm(normalized) == pytest.approx(2.5, rel=1e-10)

    def test_spectral_normalize_zero_matrix(self):
        normalized, sigma = spectral_normalize(np.zeros((3, 3)))
        assert sigma == 0.0
        np.testing.assert_array_equal(normalized, np.zeros((3, 3)))

    def test_spectral_normalize_invalid_target(self, rng):
        with pytest.raises(ValueError):
            spectral_normalize(rng.normal(size=(2, 2)), target=0.0)

    def test_dominant_singular_vectors(self, rng):
        matrix = rng.normal(size=(6, 4))
        sigma, u, v = dominant_singular_vectors(matrix)
        np.testing.assert_allclose(matrix @ v, sigma * u, atol=1e-10)

    def test_frobenius_bounds_spectral(self, rng):
        # Relation 13 of the paper: sigma_max(A)^2 <= ||A||_F^2
        matrix = rng.normal(size=(8, 5))
        assert spectral_norm(matrix) <= frobenius_norm(matrix) + 1e-12

    def test_lipschitz_constant_product(self):
        w1 = np.diag([2.0, 2.0])
        w2 = np.diag([3.0, 3.0])
        assert lipschitz_constant_relu_network([w1, w2]) == pytest.approx(6.0)


class TestIncremental:
    def test_sherman_morrison_matches_direct_inverse(self, rng):
        h_rows = rng.normal(size=(30, 6))
        delta = 0.3
        p = np.linalg.inv(h_rows[:10].T @ h_rows[:10] + delta * np.eye(6))
        for i in range(10, 30):
            p = sherman_morrison_update(p, h_rows[i])
        expected = np.linalg.inv(h_rows.T @ h_rows + delta * np.eye(6))
        np.testing.assert_allclose(p, expected, atol=1e-8)

    def test_sherman_morrison_dimension_check(self, rng):
        with pytest.raises(ValueError):
            sherman_morrison_update(np.eye(4), np.ones(3))

    def test_woodbury_matches_direct_inverse(self, rng):
        h = rng.normal(size=(40, 5))
        p = np.linalg.inv(h[:20].T @ h[:20] + 0.1 * np.eye(5))
        p = woodbury_update(p, h[20:])
        expected = np.linalg.inv(h.T @ h + 0.1 * np.eye(5))
        np.testing.assert_allclose(p, expected, atol=1e-8)

    def test_woodbury_single_row_equals_sherman_morrison(self, rng):
        p = np.linalg.inv(rng.normal(size=(12, 4)).T @ rng.normal(size=(12, 4)) + np.eye(4))
        row = rng.normal(size=4)
        np.testing.assert_allclose(woodbury_update(p, row.reshape(1, -1)),
                                   sherman_morrison_update(p, row), atol=1e-12)

    def test_recursive_inverse_equals_batch_ridge(self, rng):
        """Sequential OS-ELM updates must reach the same beta as one batch solve."""
        n_hidden, n_out = 8, 2
        h_all = rng.normal(size=(100, n_hidden))
        t_all = rng.normal(size=(100, n_out))
        delta = 0.5
        p0 = np.linalg.inv(h_all[:20].T @ h_all[:20] + delta * np.eye(n_hidden))
        beta0 = p0 @ h_all[:20].T @ t_all[:20]
        tracker = RecursiveInverse(p0, beta0)
        for i in range(20, 100):
            tracker.update(h_all[i:i + 1], t_all[i:i + 1])
        expected_beta = np.linalg.solve(h_all.T @ h_all + delta * np.eye(n_hidden),
                                        h_all.T @ t_all)
        np.testing.assert_allclose(tracker.beta, expected_beta, atol=1e-7)
        assert tracker.updates == 80

    def test_recursive_inverse_chunked_updates(self, rng):
        h_all = rng.normal(size=(60, 6))
        t_all = rng.normal(size=(60, 1))
        p0 = np.linalg.inv(h_all[:12].T @ h_all[:12] + np.eye(6))
        beta0 = p0 @ h_all[:12].T @ t_all[:12]
        tracker = RecursiveInverse(p0, beta0)
        for start in range(12, 60, 8):
            tracker.update(h_all[start:start + 8], t_all[start:start + 8])
        expected = np.linalg.solve(h_all.T @ h_all + np.eye(6), h_all.T @ t_all)
        np.testing.assert_allclose(tracker.beta, expected, atol=1e-7)

    def test_recursive_inverse_validation(self):
        with pytest.raises(ValueError):
            RecursiveInverse(np.zeros((3, 4)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            RecursiveInverse(np.eye(3), np.zeros((4, 1)))

    def test_recursive_copy_is_independent(self, rng):
        tracker = RecursiveInverse(np.eye(3), np.zeros((3, 1)))
        clone = tracker.copy()
        clone.update(rng.normal(size=(1, 3)), rng.normal(size=(1, 1)))
        assert tracker.updates == 0
        np.testing.assert_array_equal(tracker.beta, np.zeros((3, 1)))

    def test_beta_update_formula(self, rng):
        beta = rng.normal(size=(4, 1))
        p_new = np.eye(4) * 0.5
        h = rng.normal(size=(1, 4))
        t = rng.normal(size=(1, 1))
        result = beta_update(beta, p_new, h, t)
        expected = beta + p_new @ h.T @ (t - h @ beta)
        np.testing.assert_allclose(result, expected)

    def test_nonpositive_denominator_raises(self):
        # A non-positive-definite P triggers the LinAlgError guard.
        p = -np.eye(3)
        with pytest.raises(np.linalg.LinAlgError):
            sherman_morrison_update(p, np.ones(3))


class TestSolvers:
    def test_solve_posdef(self, rng):
        a = rng.normal(size=(6, 6))
        spd = a @ a.T + 6 * np.eye(6)
        b = rng.normal(size=(6, 2))
        np.testing.assert_allclose(solve_posdef(spd, b), np.linalg.solve(spd, b), atol=1e-9)

    def test_solve_small_1x1(self):
        np.testing.assert_allclose(solve_small_system(np.array([[4.0]]), np.array([8.0])),
                                   np.array([2.0]))

    def test_solve_small_1x1_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_small_system(np.array([[0.0]]), np.array([1.0]))

    def test_solve_small_2x2(self, rng):
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        b = rng.normal(size=2)
        np.testing.assert_allclose(solve_small_system(a, b), np.linalg.solve(a, b), atol=1e-10)

    def test_solve_small_general(self, rng):
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        b = rng.normal(size=(5, 3))
        np.testing.assert_allclose(solve_small_system(a, b), np.linalg.solve(a, b), atol=1e-9)

    def test_is_symmetric(self, rng):
        a = rng.normal(size=(4, 4))
        assert is_symmetric(a + a.T)
        assert not is_symmetric(a + np.triu(np.ones((4, 4)), 1))

    def test_is_positive_definite(self, rng):
        a = rng.normal(size=(5, 5))
        assert is_positive_definite(a @ a.T + 5 * np.eye(5))
        assert not is_positive_definite(-np.eye(5))

    def test_symmetrize(self, rng):
        a = rng.normal(size=(3, 3))
        s = symmetrize(a)
        assert is_symmetric(s)
        np.testing.assert_allclose(s, (a + a.T) / 2)


def test_importing_repro_leaves_scipy_linalg_unloaded():
    """scipy.linalg loads on the first factorization, not at import: the
    serving daemon, the broker and every spawned worker skip its start-up."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
