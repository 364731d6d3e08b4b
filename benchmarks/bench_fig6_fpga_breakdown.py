"""Benchmark E4 — Figure 6: per-operation breakdown of the FPGA design.

Trains the FPGA design at CI scale, projects its operation counts through the
platform model and prints the init_train / predict_init / predict_seq /
seq_train split across hidden-layer sizes — the bars of Figure 6.  Verifies
the paper's observation that seq_train dominates and that the total grows
with the hidden-layer size.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import get_spec, run
from repro.api.reports import fpga_breakdown_rows
from repro.fpga.platform import PynqZ1Platform
from repro.utils.tables import format_table


def _run(hidden_sizes):
    spec = get_spec("figure5").with_grid(
        designs=("FPGA",), hidden_sizes=hidden_sizes,
    ).with_budget(max_episodes=50, solved_threshold=100.0, solved_window=20)
    return run(replace(spec, seed=21), backend="serial").to_execution_time_result()


@pytest.mark.benchmark(group="figure6", min_rounds=1, max_time=1.0)
def test_figure6_fpga_breakdown_ci(benchmark):
    result = benchmark.pedantic(_run, args=((16, 32),), rounds=1, iterations=1)
    rows = fpga_breakdown_rows(result, hidden_sizes=(16, 32))
    print()
    print(format_table(rows, float_format=".4f",
                       title="Figure 6: FPGA design execution-time breakdown (modelled)"))
    assert len(rows) == 2
    # The total modelled time grows with the hidden-layer size.
    assert rows[1]["total_seconds"] > rows[0]["total_seconds"]
    for row in rows:
        assert row["seq_train"] >= 0.0
        assert row["init_train"] > 0.0


@pytest.mark.benchmark(group="figure6", min_rounds=1, max_time=1.0)
def test_figure6_seq_train_dominates_at_scale(benchmark, full_hidden_sizes):
    """At the paper's hidden sizes the sequential-training time dominates the
    FPGA design's modelled breakdown once training is underway."""
    platform = PynqZ1Platform()
    # A representative post-initialisation workload: 3 predictions per step,
    # one update every other step, over 20,000 steps.
    counts = {"predict_seq": 60_000, "seq_train": 10_000, "init_train": 1,
              "predict_init": 200}

    def project_all():
        return {n: platform.project_breakdown("FPGA", counts, n_hidden=n)
                for n in full_hidden_sizes}

    projections = benchmark(project_all)
    print()
    rows = []
    for n_hidden, seconds in projections.items():
        total = sum(seconds.values())
        rows.append({
            "n_hidden": n_hidden,
            "total_s": total,
            "seq_train_fraction": seconds["seq_train"] / total,
        })
    print(format_table(rows, float_format=".3f",
                       title="FPGA breakdown vs hidden size (fixed workload)"))
    for row in rows:
        if row["n_hidden"] >= 128:
            assert row["seq_train_fraction"] > 0.5
    totals = [row["total_s"] for row in rows]
    assert totals == sorted(totals)
