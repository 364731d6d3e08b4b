"""Benchmark E1 — Table 3: FPGA resource utilization of the OS-ELM Q-Network core.

Regenerates the BRAM / DSP / FF / LUT utilization sweep over 32–256 hidden
units on the xc7z020 and checks the qualitative agreement with the paper
(quadratic BRAM growth, constant DSP, 192 fits, 256 does not).  The benchmark
measurement itself times the area-model sweep.
"""

from __future__ import annotations

import pytest

from repro.api.reports import compare_with_paper, render_table3, resource_table
from repro.fpga.resources import TABLE3_PAPER_VALUES, OSELMCoreResourceModel


def _run_sweep():
    return resource_table(hidden_sizes=(32, 64, 128, 192, 256))


@pytest.mark.benchmark(group="table3")
def test_table3_resource_utilization(benchmark):
    report = benchmark(_run_sweep)
    print()
    print(render_table3(report))

    by_units = {row.n_hidden: row for row in report.rows}
    # The headline qualitative results of Table 3.
    assert by_units[192].fits, "192 hidden units must fit the xc7z020"
    assert not by_units[256].fits, "256 hidden units must exceed the BRAM capacity"
    for n_hidden, paper in TABLE3_PAPER_VALUES.items():
        if paper is None:
            continue
        modelled = by_units[n_hidden].utilization_percent
        assert modelled["BRAM"] == pytest.approx(paper["BRAM"], rel=0.15)
        assert modelled["DSP"] == pytest.approx(paper["DSP"], abs=0.1)


@pytest.mark.benchmark(group="table3")
def test_table3_paper_comparison_rows(benchmark):
    rows = benchmark(compare_with_paper)
    bram_errors = [row["relative_error"] for row in rows if row.get("resource") == "BRAM"]
    assert max(bram_errors) <= 0.15
    print()
    print(f"Table 3 comparison: {len(rows)} quantities, "
          f"max BRAM relative error {max(bram_errors):.3f}")


@pytest.mark.benchmark(group="table3")
def test_table3_max_fitting_design(benchmark):
    model = OSELMCoreResourceModel()
    largest = benchmark(model.max_hidden_units)
    assert 192 <= largest < 256
    print(f"\nLargest hidden-layer size that fits the xc7z020: {largest}")
