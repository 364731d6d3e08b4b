"""Ablation A1 — the stabilisation techniques of Section 3.3.

Quantifies what each regularization component does to the quantities the
paper argues about:

* the L2 (ridge) term shrinks the norm of beta (Relation 13's constraint);
* the spectral normalization of alpha reduces the network's Lipschitz bound
  to sigma_max(beta);
* both together give the smallest Lipschitz bound.

The benchmark also reports the short-horizon training behaviour of each
variant on CartPole (our reproduction's honest outcome: the L2 variant learns,
while the alpha-normalized variants do not — see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.designs import design_spec
from repro.core.elm import ELM
from repro.core.regularization import RegularizationConfig
from repro.utils.tables import format_table

VARIANTS = ("OS-ELM", "OS-ELM-L2", "OS-ELM-Lipschitz", "OS-ELM-L2-Lipschitz")


def _fit_variant(regularization: RegularizationConfig, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(256, 5))
    y = np.clip(rng.normal(size=(256, 1)), -1, 1)
    model = ELM(5, 64, 1, regularization=regularization, seed=seed)
    model.fit(x, y)
    return model


@pytest.mark.benchmark(group="ablation-regularization", min_rounds=1, max_time=1.0)
def test_ablation_regularization_effects(benchmark):
    def run():
        rows = []
        for name in VARIANTS:
            spec = design_spec(name)
            model = _fit_variant(spec.regularization)
            rows.append({
                "design": name,
                "alpha_spectral_norm": float(np.linalg.norm(model.alpha, 2)),
                "beta_frobenius_norm": model.beta_frobenius_norm(),
                "lipschitz_bound": model.lipschitz_upper_bound(),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, float_format=".3f",
                       title="Ablation A1: regularization effects on the trained network"))
    by_name = {row["design"]: row for row in rows}

    # Spectral normalization pins sigma_max(alpha) to 1 (Algorithm 1 lines 2-3).
    assert by_name["OS-ELM-Lipschitz"]["alpha_spectral_norm"] == pytest.approx(1.0, rel=1e-6)
    assert by_name["OS-ELM-L2-Lipschitz"]["alpha_spectral_norm"] == pytest.approx(1.0, rel=1e-6)
    assert by_name["OS-ELM"]["alpha_spectral_norm"] > 1.0

    # The L2 term shrinks beta relative to the unregularized solve.
    assert (by_name["OS-ELM-L2"]["beta_frobenius_norm"]
            < by_name["OS-ELM"]["beta_frobenius_norm"])

    # The combined variant has the smallest Lipschitz bound (Section 3.3's claim).
    bounds = {name: by_name[name]["lipschitz_bound"] for name in VARIANTS}
    assert bounds["OS-ELM-L2-Lipschitz"] == min(bounds.values())


@pytest.mark.benchmark(group="ablation-regularization", min_rounds=1, max_time=1.0)
def test_ablation_l2_delta_sweep(benchmark):
    """Sweeping the ridge strength delta trades training fit against the beta norm."""
    deltas = (0.0, 0.1, 0.5, 1.0, 5.0)

    def sweep():
        rows = []
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(200, 5))
        y = np.clip(rng.normal(size=(200, 1)), -1, 1)
        for delta in deltas:
            reg = RegularizationConfig(l2_delta=delta, spectral_normalize_alpha=True)
            model = ELM(5, 64, 1, regularization=reg, seed=1).fit(x, y)
            train_error = float(np.mean((model.predict(x) - y) ** 2))
            rows.append({"delta": delta, "beta_norm": model.beta_frobenius_norm(),
                         "train_mse": train_error})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, float_format=".4f", title="Ablation A1b: delta sweep"))
    norms = [row["beta_norm"] for row in rows]
    errors = [row["train_mse"] for row in rows]
    assert norms == sorted(norms, reverse=True)     # larger delta -> smaller beta
    assert errors == sorted(errors)                 # ...at the price of training error
