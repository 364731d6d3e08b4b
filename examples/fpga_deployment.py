#!/usr/bin/env python
"""FPGA deployment walk-through: resources, fixed-point behaviour and latency.

Mirrors what a user targeting a PYNQ-Z1 would do before synthesising the
OS-ELM Q-Network core:

1. check that the chosen hidden-layer size fits the xc7z020 (Table 3),
2. run the bit-accurate 32-bit Q20 core next to the float reference and
   measure the quantization drift,
3. look at the cycle/latency model of predict and seq_train at 125 MHz and
   the modelled speed-up over the 650 MHz Cortex-A9.

Run:
    python examples/fpga_deployment.py [--hidden 64]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.regularization import RegularizationConfig
from repro.fpga.accelerator import FPGAAcceleratedOSELM
from repro.fpga.device import PYNQ_Z1, XC7Z020
from repro.fpga.resources import OSELMCoreResourceModel
from repro.fpga.timing import CortexA9LatencyModel, FPGACoreLatencyModel
from repro.utils.exceptions import ResourceExhaustedError
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--updates", type=int, default=300,
                        help="sequential updates to run through the fixed-point core")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("Target platform (the paper's Table 1):")
    for key, value in PYNQ_Z1.summary().items():
        print(f"  {key}: {value}")
    print()

    # 1. Resource feasibility -------------------------------------------------
    model = OSELMCoreResourceModel()
    print("Resource check on", XC7Z020.name)
    for n_hidden in (32, 64, 128, 192, 256, args.hidden):
        try:
            model.check_fit(n_hidden, XC7Z020)
            util = model.utilization(n_hidden).utilization_percent
            print(f"  N={n_hidden:<4} fits  "
                  + "  ".join(f"{k}={v:5.2f}%" for k, v in util.items()))
        except ResourceExhaustedError as exc:
            print(f"  N={n_hidden:<4} DOES NOT FIT ({exc.resource}: needs {exc.required:.0f}, "
                  f"device has {exc.available:.0f})")
    print(f"  largest fitting design: {model.max_hidden_units()} hidden units")
    print()

    # 2. Fixed-point core vs an independent float reference --------------------
    from repro.core.os_elm import OSELM

    rng = np.random.default_rng(args.seed)
    accelerated = FPGAAcceleratedOSELM(
        5, args.hidden, 1,
        regularization=RegularizationConfig.l2_lipschitz(0.5),
        seed=args.seed,
    )
    reference = OSELM(5, args.hidden, 1,
                      regularization=RegularizationConfig.l2_lipschitz(0.5), seed=args.seed)
    x0 = rng.uniform(-1, 1, size=(args.hidden, 5))
    t0 = np.clip(rng.normal(size=(args.hidden, 1)), -1, 1)
    accelerated.init_train(x0, t0)
    reference.init_train(x0, t0)
    for _ in range(args.updates):
        x = rng.uniform(-1, 1, size=5)
        target = float(rng.uniform(-1, 1))
        accelerated.seq_train_step(x, target)
        reference.seq_train_step(x, target)
    drift = accelerated.core.compare_against(reference.beta, reference.p_matrix)
    print(f"After {args.updates} sequential updates on the 32-bit Q20 core "
          f"(vs an independent float64 OS-ELM):")
    print(f"  max |beta_fixed - beta_float| = {drift['beta_max_abs_error']:.2e}")
    print(f"  max |P_fixed - P_float|       = {drift['p_max_abs_error']:.2e}")
    print()

    # 3. Latency model ---------------------------------------------------------
    pl = FPGACoreLatencyModel()
    cpu = CortexA9LatencyModel()
    rows = []
    for n_hidden in (32, 64, 128, 192):
        rows.append({
            "n_hidden": n_hidden,
            "predict_cycles": pl.predict_cycles(5, n_hidden),
            "seq_train_cycles": pl.seq_train_cycles(n_hidden),
            "seq_train_pl_us": pl.seq_train(n_hidden).seconds * 1e6,
            "seq_train_cpu_us": cpu.seq_train(n_hidden).seconds * 1e6,
            "speedup": cpu.seq_train(n_hidden).seconds / pl.seq_train(n_hidden).seconds,
        })
    print(format_table(rows, float_format=".1f",
                       title="Modelled per-operation latency: 125 MHz PL vs 650 MHz Cortex-A9"))
    print()
    print(f"Modelled seq_train speed-up at N={args.hidden}: "
          f"{accelerated.modelled_speedup_vs_cpu():.1f}x")


if __name__ == "__main__":
    main()
