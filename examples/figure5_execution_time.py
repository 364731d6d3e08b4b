#!/usr/bin/env python
"""Figure 5 / Figure 6 / Table 3 reproduction: execution time and FPGA resources.

Trains the selected designs through the registered ``figure5`` experiment
(:func:`repro.api.run`), projects their per-operation counts through the
PYNQ-Z1 latency models (650 MHz Cortex-A9 software, 125 MHz programmable
logic for the FPGA design), and prints:

* the Table 3 resource-utilization sweep,
* the Figure 5 summary (modelled completion time + speed-up over DQN),
* the Figure 6 per-operation breakdown of the FPGA design,
* the paper's reported numbers next to the modelled ones for reference.

Run (quick demo):
    python examples/figure5_execution_time.py

Closer to the paper (expect hours):
    python examples/figure5_execution_time.py --hidden 32 64 128 192 \
        --episodes 50000 --threshold 195
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.api import get_spec, run
from repro.api.reports import (
    PAPER_EXECUTION_TIMES,
    PAPER_SPEEDUPS,
    fpga_breakdown_rows,
    render_table3,
)
from repro.core.designs import DESIGN_NAMES
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+",
                        default=["OS-ELM-L2", "OS-ELM-L2-Lipschitz", "DQN", "FPGA"],
                        choices=DESIGN_NAMES)
    parser.add_argument("--hidden", nargs="+", type=int, default=[32])
    parser.add_argument("--episodes", type=int, default=150)
    parser.add_argument("--threshold", type=float, default=100.0)
    parser.add_argument("--window", type=int, default=30)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    print(render_table3())
    print()

    spec = get_spec("figure5").with_grid(
        designs=args.designs, hidden_sizes=args.hidden,
    ).with_budget(max_episodes=args.episodes, solved_threshold=args.threshold,
                  solved_window=args.window)
    result = run(replace(spec, seed=args.seed),
                 backend="serial").to_execution_time_result()

    print(result.render())
    print()

    for n_hidden in args.hidden:
        for design in args.designs:
            rows = result.breakdown_rows(design, n_hidden)
            print(format_table(
                rows, float_format=".4f",
                title=f"Breakdown: {design} at {n_hidden} hidden units (modelled seconds)"))
            print()

    if "FPGA" in args.designs:
        print(format_table(fpga_breakdown_rows(result, hidden_sizes=args.hidden),
                           float_format=".4f",
                           title="Figure 6: FPGA design breakdown across hidden sizes"))
        print()

    reference_rows = []
    for n_hidden, times in PAPER_EXECUTION_TIMES.items():
        for design, seconds in times.items():
            reference_rows.append({
                "n_hidden": n_hidden,
                "design": design,
                "paper_seconds": seconds,
                "paper_speedup_vs_DQN": PAPER_SPEEDUPS.get(n_hidden, {}).get(design),
            })
    print(format_table(reference_rows,
                       title="Paper-reported completion times (Section 4.4, for reference)"))


if __name__ == "__main__":
    main()
