"""Tests for the ELM / OS-ELM regressors (the paper's Sections 2.1–2.3)."""

import numpy as np
import pytest

from repro.core.elm import ELM
from repro.core.os_elm import OSELM
from repro.core.regularization import RegularizationConfig
from repro.utils.exceptions import NotFittedError, ShapeError


def _make_data(rng, n=300, n_inputs=4):
    x = rng.uniform(-1, 1, size=(n, n_inputs))
    y = (np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2] - 0.5 * x[:, 3]).reshape(-1, 1)
    return x, y


class TestELM:
    def test_structure_and_defaults(self, rng):
        model = ELM(4, 32, 1, rng=rng)
        assert model.alpha.shape == (4, 32)
        assert model.bias.shape == (32,)
        assert model.beta is None
        assert not model.is_fitted
        assert model.n_parameters == 4 * 32 + 32 + 32 * 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ELM(0, 8, 1)
        with pytest.raises(ValueError):
            ELM(4, -1, 1)

    def test_alpha_uniform_0_1(self, rng):
        model = ELM(4, 256, 1, rng=rng)
        assert model.alpha.min() >= 0.0 and model.alpha.max() <= 1.0
        assert model.bias.min() >= 0.0 and model.bias.max() <= 1.0

    def test_predict_before_fit_raises(self, rng):
        with pytest.raises(NotFittedError):
            ELM(4, 8, rng=rng).predict(np.zeros((1, 4)))

    def test_hidden_shape_and_relu(self, rng):
        model = ELM(3, 16, rng=rng)
        h = model.hidden(rng.normal(size=(5, 3)))
        assert h.shape == (5, 16)
        assert np.all(h >= 0.0)   # ReLU output is non-negative

    def test_wrong_feature_count(self, rng):
        model = ELM(3, 8, rng=rng)
        with pytest.raises(ShapeError):
            model.hidden(np.zeros((2, 4)))

    def test_fit_is_least_squares_optimal(self, rng):
        """Equation 3: beta is the minimum-norm least-squares solution for H beta = T."""
        x = rng.uniform(-1, 1, size=(30, 3))
        y = rng.normal(size=(30, 1))
        model = ELM(3, 64, 1, rng=rng).fit(x, y)
        h = model.hidden(x)
        expected, *_ = np.linalg.lstsq(h, y, rcond=None)
        np.testing.assert_allclose(h @ model.beta, h @ expected, atol=1e-6)
        # The pseudo-inverse solution additionally has minimum norm among all minimisers.
        assert np.linalg.norm(model.beta) <= np.linalg.norm(expected) + 1e-8

    def test_fit_learns_smooth_function(self, rng):
        x, y = _make_data(rng, n=600)
        model = ELM(4, 64, 1, regularization=RegularizationConfig.l2(0.1), rng=rng)
        model.fit(x[:500], y[:500])
        test_error = np.mean((model.predict(x[500:]) - y[500:]) ** 2)
        baseline = np.mean((y[500:] - y[:500].mean()) ** 2)
        assert test_error < 0.5 * baseline

    def test_l2_regularization_shrinks_beta(self, rng):
        x, y = _make_data(rng, n=100)
        plain = ELM(4, 64, 1, rng=np.random.default_rng(0)).fit(x, y)
        ridge = ELM(4, 64, 1, regularization=RegularizationConfig.l2(10.0),
                    rng=np.random.default_rng(0)).fit(x, y)
        assert ridge.beta_frobenius_norm() < plain.beta_frobenius_norm()

    def test_spectral_normalization_applied(self, rng):
        model = ELM(4, 64, 1, regularization=RegularizationConfig.lipschitz(), rng=rng)
        assert np.linalg.norm(model.alpha, 2) == pytest.approx(1.0, rel=1e-9)
        assert model.alpha_spectral_norm > 1.0   # the pre-normalization norm is recorded

    def test_lipschitz_bound_after_normalization(self, rng):
        model = ELM(4, 32, 1, regularization=RegularizationConfig.l2_lipschitz(0.5), rng=rng)
        x, y = _make_data(rng, n=64)
        model.fit(x, y)
        # With sigma_max(alpha)=1 and a 1-Lipschitz activation the bound equals
        # the spectral norm of beta (Section 3.3).
        assert model.lipschitz_upper_bound() == pytest.approx(
            np.linalg.norm(model.beta, 2), rel=1e-9
        )

    def test_lipschitz_property_empirical(self, rng):
        """The network must actually satisfy |f(x1)-f(x2)| <= K ||x1-x2||."""
        model = ELM(4, 32, 1, regularization=RegularizationConfig.l2_lipschitz(0.5), rng=rng)
        x, y = _make_data(rng, n=64)
        model.fit(x, y)
        bound = model.lipschitz_upper_bound()
        points = rng.uniform(-2, 2, size=(50, 4))
        others = points + rng.normal(scale=0.1, size=points.shape)
        lhs = np.abs(model.predict(points) - model.predict(others)).ravel()
        rhs = bound * np.linalg.norm(points - others, axis=1)
        assert np.all(lhs <= rhs + 1e-9)

    def test_reset_redraws_weights(self, rng):
        model = ELM(4, 16, rng=rng)
        old_alpha = model.alpha.copy()
        model.fit(*_make_data(rng, n=50))
        model.reset()
        assert model.beta is None
        assert not np.allclose(model.alpha, old_alpha)

    def test_fit_row_mismatch(self, rng):
        model = ELM(4, 8, rng=rng)
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 4)), np.zeros((6, 1)))

    def test_same_seed_reproducible(self):
        a = ELM(4, 16, seed=11)
        b = ELM(4, 16, seed=11)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.bias, b.bias)


class TestOSELM:
    def test_init_train_then_predict(self, rng):
        x, y = _make_data(rng, n=100)
        model = OSELM(4, 32, 1, rng=rng)
        model.init_train(x[:50], y[:50])
        assert model.is_initialized
        assert model.p_matrix.shape == (32, 32)
        assert model.predict(x[50:60]).shape == (10, 1)

    def test_partial_fit_before_init_raises(self, rng):
        model = OSELM(4, 8, rng=rng)
        with pytest.raises(NotFittedError):
            model.partial_fit(np.zeros((1, 4)), np.zeros((1, 1)))

    def test_sequential_equals_batch(self, rng):
        """OS-ELM trained chunk-by-chunk must match ELM trained on all data at once.

        This is the central algebraic property of Equations 5-7: the recursive
        solution equals the batch least-squares solution.
        """
        x, y = _make_data(rng, n=240)
        seed = 77
        batch = ELM(4, 24, 1, regularization=RegularizationConfig.l2(0.3), seed=seed)
        batch.fit(x, y)
        online = OSELM(4, 24, 1, regularization=RegularizationConfig.l2(0.3), seed=seed)
        online.init_train(x[:60], y[:60])
        for start in range(60, 240, 10):
            online.partial_fit(x[start:start + 10], y[start:start + 10])
        np.testing.assert_allclose(online.beta, batch.beta, atol=1e-6)
        np.testing.assert_allclose(online.predict(x[:5]), batch.predict(x[:5]), atol=1e-6)

    def test_batch_size_one_path(self, rng):
        """The paper's FPGA configuration: every sequential chunk is a single row."""
        x, y = _make_data(rng, n=150)
        seed = 5
        online = OSELM(4, 16, 1, regularization=RegularizationConfig.l2(0.5), seed=seed)
        online.init_train(x[:40], y[:40])
        for i in range(40, 150):
            online.seq_train_step(x[i], float(y[i, 0]))
        reference = ELM(4, 16, 1, regularization=RegularizationConfig.l2(0.5), seed=seed)
        reference.fit(x, y)
        np.testing.assert_allclose(online.beta, reference.beta, atol=1e-6)

    def test_update_counter(self, rng):
        x, y = _make_data(rng, n=60)
        model = OSELM(4, 8, rng=rng)
        model.init_train(x[:20], y[:20])
        for i in range(20, 30):
            model.seq_train_step(x[i], float(y[i, 0]))
        assert model.n_sequential_updates == 10

    def test_fit_alias_runs_initial_training(self, rng):
        x, y = _make_data(rng, n=40)
        model = OSELM(4, 8, rng=rng).fit(x, y)
        assert model.is_initialized

    def test_reset_clears_recursive_state(self, rng):
        x, y = _make_data(rng, n=60)
        model = OSELM(4, 8, rng=rng)
        model.init_train(x[:30], y[:30])
        model.reset()
        assert not model.is_initialized
        assert model.p_matrix is None

    def test_clone_and_load_state(self, rng):
        x, y = _make_data(rng, n=80)
        model = OSELM(4, 12, 1, rng=rng)
        model.init_train(x[:40], y[:40])
        state = model.clone_state()
        prediction_before = model.predict(x[:3]).copy()
        # mutate, then restore
        model.partial_fit(x[40:60], y[40:60])
        assert not np.allclose(model.predict(x[:3]), prediction_before)
        model.load_state(state)
        np.testing.assert_allclose(model.predict(x[:3]), prediction_before)

    def test_row_mismatch_rejected(self, rng):
        model = OSELM(4, 8, rng=rng)
        model.init_train(np.zeros((10, 4)), np.zeros((10, 1)))
        with pytest.raises(ValueError):
            model.partial_fit(np.zeros((2, 4)), np.zeros((3, 1)))

    def test_sequential_updates_track_drifting_target(self, rng):
        """OS-ELM must adapt to new data without retraining on the old set."""
        model = OSELM(2, 32, 1, regularization=RegularizationConfig.l2(0.1), seed=1)
        x_old = rng.uniform(-1, 1, size=(80, 2))
        y_old = (x_old[:, :1] + x_old[:, 1:]) * 0.5
        model.init_train(x_old, y_old)
        x_new = rng.uniform(-1, 1, size=(400, 2))
        y_new = (x_new[:, :1] - x_new[:, 1:]) * 0.5   # different target function
        for i in range(400):
            model.seq_train_step(x_new[i], float(y_new[i, 0]))
        error_new = float(np.mean((model.predict(x_new[:50]) - y_new[:50]) ** 2))
        assert error_new < 0.05


NON_FINITE = [np.nan, np.inf, -np.inf]


def _poisoned(array, value):
    bad = np.array(array, dtype=float)
    bad.flat[0] = value
    return bad


class TestBoundaryContract:
    """Public entry points validate once; the row hooks behind them trust."""

    def _oselm(self, rng, n_hidden=8):
        x, y = _make_data(rng, n=40)
        return OSELM(4, n_hidden, 1, regularization=RegularizationConfig.l2(0.5),
                     seed=2).init_train(x, y), x, y

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_elm_entry_points_reject_non_finite(self, rng, bad):
        x, y = _make_data(rng, n=30)
        model = ELM(4, 8, 1, seed=0).fit(x, y)
        with pytest.raises(ValueError):
            model.predict(_poisoned(x[:3], bad))
        with pytest.raises(ValueError):
            model.predict(_poisoned(x[0], bad))
        with pytest.raises(ValueError):
            model.hidden(_poisoned(x[:3], bad))
        with pytest.raises(ValueError):
            model.fit(_poisoned(x, bad), y)
        with pytest.raises(ValueError):
            model.fit(x, _poisoned(y, bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_oselm_entry_points_reject_non_finite(self, rng, bad):
        model, x, y = self._oselm(rng)
        beta, p = model.beta.copy(), model.p_matrix.copy()
        with pytest.raises(ValueError):
            OSELM(4, 8, 1, seed=2).init_train(_poisoned(x, bad), y)
        with pytest.raises(ValueError):
            OSELM(4, 8, 1, seed=2).init_train(x, _poisoned(y, bad))
        with pytest.raises(ValueError):
            model.partial_fit(_poisoned(x[:2], bad), y[:2])
        with pytest.raises(ValueError):
            model.partial_fit(x[:2], _poisoned(y[:2], bad))
        with pytest.raises(ValueError):
            model.seq_train_step(_poisoned(x[0], bad), 0.5)
        with pytest.raises(ValueError):
            model.seq_train_step(x[0], bad)
        # A rejected call leaves the recursive state untouched.
        np.testing.assert_array_equal(model.beta, beta)
        np.testing.assert_array_equal(model.p_matrix, p)
        assert model.n_sequential_updates == 0

    def test_wrong_width_raises_shape_error(self, rng):
        model, x, y = self._oselm(rng)
        for call in (lambda: model.predict(np.zeros((2, 5))),
                     lambda: model.hidden(np.zeros(3)),
                     lambda: model.fit(np.zeros((10, 5)), np.zeros((10, 1))),
                     lambda: model.partial_fit(np.zeros((1, 5)), np.zeros((1, 1))),
                     lambda: model.partial_fit(np.zeros((1, 4)), np.zeros((1, 2))),
                     lambda: model.seq_train_step(np.zeros(6), 0.0)):
            with pytest.raises(ShapeError):
                call()

    @pytest.mark.parametrize("where", ["p", "beta"])
    def test_corrupted_state_raises_on_next_update(self, rng, where):
        model, x, y = self._oselm(rng)
        getattr(model._recursive, where)[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            model.seq_train_step(x[0], float(y[0, 0]))
        assert model.n_sequential_updates == 0

    def test_non_positive_denominator_is_a_linalg_error(self, rng):
        model, x, y = self._oselm(rng)
        model._recursive.p = -10.0 * np.eye(8)
        with pytest.raises(np.linalg.LinAlgError):
            model.seq_train_step(x[0], float(y[0, 0]))
