"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one of the paper's tables or figures
(``bench_table3_*``, ``bench_fig4_*``, ``bench_fig5_*``, ``bench_fig6_*``) or
times an ablation.  The training-based benchmarks run with CI-scale budgets
so the whole suite finishes in minutes; the paper-scale protocol is the
registered ``figure4``/``figure5`` specs (``python -m repro run figure4``)
and the examples.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_collection_modifyitems(config, items):
    """Keep benchmark ordering stable: tables first, then figures, then ablations."""
    order = {"table": 0, "fig": 1, "kernel": 2, "ablation": 3}

    def rank(item):
        name = item.module.__name__
        for key, value in order.items():
            if key in name:
                return value
        return 4

    items.sort(key=rank)


@pytest.fixture(scope="session")
def ci_hidden_sizes():
    """Hidden-layer sizes used by the CI-scale training benchmarks."""
    return (32,)


@pytest.fixture(scope="session")
def full_hidden_sizes():
    """The paper's hidden-layer sweep (used by the analytical benchmarks, which are cheap)."""
    return (32, 64, 128, 192)
