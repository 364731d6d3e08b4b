"""Ablation A3 — fixed-point precision of the FPGA core (Section 4.2).

The paper chooses a 32-bit Q20 format.  This ablation sweeps the number of
fractional bits and measures how far the fixed-point core's state (beta, P)
drifts from the float64 OS-ELM reference after a burst of sequential updates,
and verifies that Q20 keeps the drift negligible while much coarser formats
do not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.os_elm import OSELM
from repro.core.regularization import RegularizationConfig
from repro.fixedpoint.qformat import QFormat
from repro.fpga.core_sim import FixedPointOSELMCore
from repro.utils.tables import format_table

N_HIDDEN = 32
N_UPDATES = 100


def _drift_for_format(fmt: QFormat, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    reference = OSELM(5, N_HIDDEN, 1, regularization=RegularizationConfig.l2(0.5), seed=seed)
    x0 = rng.uniform(-1, 1, size=(N_HIDDEN, 5))
    t0 = rng.uniform(-1, 1, size=(N_HIDDEN, 1))
    reference.init_train(x0, t0)
    core = FixedPointOSELMCore(5, N_HIDDEN, 1, qformat=fmt)
    core.load_weights(reference.alpha, reference.bias)
    core.load_initial_state(reference.p_matrix, reference.beta)
    prediction_error = 0.0
    for _ in range(N_UPDATES):
        x = rng.uniform(-1, 1, size=5)
        t = rng.uniform(-1, 1, size=1)
        reference.seq_train_step(x, float(t[0]))
        core.seq_train(x, t)
        probe = rng.uniform(-1, 1, size=5)
        prediction_error = max(
            prediction_error,
            abs(float(core.predict(probe)[0, 0])
                - float(reference.predict(probe.reshape(1, -1))[0, 0])),
        )
    divergence = core.compare_against(reference.beta, reference.p_matrix)
    return {
        "frac_bits": fmt.frac_bits,
        "beta_drift": divergence["beta_max_abs_error"],
        "p_drift": divergence["p_max_abs_error"],
        "prediction_drift": prediction_error,
    }


@pytest.mark.benchmark(group="ablation-fixedpoint", min_rounds=1, max_time=1.0)
def test_ablation_fractional_bit_sweep(benchmark):
    formats = [QFormat(32, frac) for frac in (8, 12, 16, 20, 24)]

    def sweep():
        return [_drift_for_format(fmt) for fmt in formats]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, float_format=".2e",
                       title="Ablation A3: fixed-point drift vs float64 after "
                             f"{N_UPDATES} sequential updates"))
    by_bits = {row["frac_bits"]: row for row in rows}
    # The paper's Q20 keeps the learned model essentially identical to float.
    assert by_bits[20]["prediction_drift"] < 1e-3
    assert by_bits[20]["beta_drift"] < 1e-3
    # Coarser formats drift orders of magnitude more.
    assert by_bits[8]["prediction_drift"] > 10 * by_bits[20]["prediction_drift"]
    # Finer formats are never worse than Q20 by more than noise.
    assert by_bits[24]["prediction_drift"] <= by_bits[12]["prediction_drift"] + 1e-9


@pytest.mark.benchmark(group="ablation-fixedpoint", min_rounds=1, max_time=1.0)
def test_ablation_q20_core_prediction_accuracy(benchmark):
    """End-to-end check that the Q20 core predicts within a few LSBs of float."""
    result = benchmark.pedantic(_drift_for_format, args=(QFormat(32, 20),),
                                kwargs={"seed": 3}, rounds=1, iterations=1)
    assert result["prediction_drift"] < 1e-3
    assert result["p_drift"] < 1e-2
