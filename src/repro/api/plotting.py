"""``repro report --plot``: regenerate the Figure 4/5 panels from cached curves.

matplotlib is an *optional* dependency: :func:`plot_report` returns ``None``
(and the CLI prints a one-line notice) when it is not installed, so the core
package keeps its NumPy/SciPy-only footprint.

Styling follows a small fixed system so every panel reads the same way:

* one categorical color per **design**, assigned in the paper's fixed design
  order (never by position in the current plot — filtering a report down to
  two designs must not repaint them);
* a validated colorblind-safe palette (adjacent-pair CVD deltaE >= 8);
* recessive axes (no top/right spines, light grid behind the data), thin
  2pt lines, a frameless legend;
* one y-axis per panel, the identity of every series carried by the legend
  plus the ``repro report`` summary table that always accompanies a plot.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.core.designs import DESIGN_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import RunReport

#: Surface / ink tokens (light mode).
_SURFACE = "#fcfcfb"
_TEXT_PRIMARY = "#0b0b0b"
_TEXT_SECONDARY = "#52514e"
_GRID = "#e8e7e4"

#: Fixed design -> categorical slot mapping (paper order; validated palette).
_DESIGN_COLORS: Dict[str, str] = dict(zip(DESIGN_NAMES, (
    "#2a78d6",   # ELM                  (blue)
    "#eb6834",   # OS-ELM               (orange)
    "#1baf7a",   # OS-ELM-L2            (aqua)
    "#eda100",   # OS-ELM-Lipschitz     (yellow)
    "#e87ba4",   # OS-ELM-L2-Lipschitz  (magenta)
    "#008300",   # DQN                  (green)
    "#4a3aa7",   # FPGA                 (violet)
)))
_FALLBACK_COLOR = "#52514e"


def design_color(design: str) -> str:
    """The design's fixed categorical color (entity-stable across plots)."""
    return _DESIGN_COLORS.get(design, _FALLBACK_COLOR)


def matplotlib_available() -> bool:
    try:
        import matplotlib  # noqa: F401
        return True
    except ImportError:
        return False


def _style_axes(ax) -> None:
    ax.set_facecolor(_SURFACE)
    for side in ("top", "right"):
        ax.spines[side].set_visible(False)
    for side in ("left", "bottom"):
        ax.spines[side].set_color(_TEXT_SECONDARY)
        ax.spines[side].set_linewidth(0.8)
    ax.grid(True, color=_GRID, linewidth=0.8, zorder=0)
    ax.set_axisbelow(True)
    ax.tick_params(colors=_TEXT_SECONDARY, labelsize=9)
    ax.xaxis.label.set_color(_TEXT_SECONDARY)
    ax.yaxis.label.set_color(_TEXT_SECONDARY)
    ax.title.set_color(_TEXT_PRIMARY)


def _aggregate_curves(results) -> Dict[str, np.ndarray]:
    """Mean/std per-episode steps across seeds (held-value padding)."""
    horizon = max(len(result.curve) for result in results)
    padded = np.empty((len(results), horizon))
    for row, result in enumerate(results):
        steps = result.curve.steps
        padded[row, :steps.size] = steps
        padded[row, steps.size:] = steps[-1] if steps.size else 0.0
    return {
        "episodes": np.arange(1, horizon + 1),
        "mean": padded.mean(axis=0),
        "std": padded.std(axis=0),
    }


def _grouped(report: "RunReport") -> Dict[Tuple[str, int], Dict[str, list]]:
    """trials keyed (env_id, n_hidden) -> design -> [results in trial order]."""
    panels: Dict[Tuple[str, int], Dict[str, list]] = {}
    for record in report.trials:
        task = record.task
        panel = panels.setdefault((task.env_id, task.n_hidden), {})
        panel.setdefault(task.design, []).append(record.result)
    return panels


def _steps_ylabel(env_id: str) -> str:
    """Family-aware axis label: what "steps" measures depends on the env."""
    from repro.envs import spec as env_spec

    try:
        family = env_spec(env_id).family
    except KeyError:
        family = "classic-control"
    if family == "systems":
        return "steps before overload"
    return "steps survived"


def plot_training_curves(report: "RunReport", out_dir: Path) -> List[Path]:
    """The Figure 4 panels: one per (env, hidden size), lines per design."""
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    written: List[Path] = []
    for (env_id, n_hidden), by_design in sorted(_grouped(report).items()):
        fig, ax = plt.subplots(figsize=(6.4, 4.0), facecolor=_SURFACE)
        _style_axes(ax)
        for design in sorted(by_design, key=_design_order):
            agg = _aggregate_curves(by_design[design])
            color = design_color(design)
            ax.plot(agg["episodes"], agg["mean"], color=color, linewidth=2.0,
                    label=design, zorder=3)
            if len(by_design[design]) > 1:
                ax.fill_between(agg["episodes"], agg["mean"] - agg["std"],
                                agg["mean"] + agg["std"], color=color,
                                alpha=0.15, linewidth=0, zorder=2)
        ax.set_xlabel("episode")
        ax.set_ylabel(_steps_ylabel(env_id))
        ax.set_title(f"{report.spec.name}: training curves — {env_id}, "
                     f"Ñ = {n_hidden}", fontsize=11)
        legend = ax.legend(frameon=False, fontsize=9)
        for text in legend.get_texts():
            text.set_color(_TEXT_PRIMARY)
        path = out_dir / f"{report.spec.name}_curves_{_slug(env_id)}_h{n_hidden}.png"
        fig.savefig(path, dpi=150, bbox_inches="tight", facecolor=_SURFACE)
        plt.close(fig)
        written.append(path)
    return written


def plot_execution_times(report: "RunReport", out_dir: Path) -> List[Path]:
    """The Figure 5 panel: modelled seconds per design, grouped by size."""
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    from repro.api.reports import project_timing
    from repro.fpga.platform import PynqZ1Platform

    platform = PynqZ1Platform()
    by_design: Dict[str, Dict[int, float]] = {}
    sizes: List[int] = []
    for record in report.trials:
        timing = project_timing(record.result, platform)
        by_design.setdefault(record.task.design, {})[record.task.n_hidden] = \
            timing.modelled_total
        if record.task.n_hidden not in sizes:
            sizes.append(record.task.n_hidden)
    sizes.sort()
    designs = sorted(by_design, key=_design_order)

    fig, ax = plt.subplots(figsize=(7.0, 4.2), facecolor=_SURFACE)
    _style_axes(ax)
    x = np.arange(len(sizes), dtype=float)
    width = 0.8 / max(len(designs), 1)
    for pos, design in enumerate(designs):
        values = [by_design[design].get(size, 0.0) for size in sizes]
        offset = (pos - (len(designs) - 1) / 2.0) * width
        ax.bar(x + offset, values, width * 0.92, color=design_color(design),
               label=design, zorder=3, edgecolor=_SURFACE, linewidth=0.8)
    ax.set_xticks(x)
    ax.set_xticklabels([str(size) for size in sizes])
    ax.set_xlabel("hidden units Ñ")
    ax.set_ylabel("modelled training time [s]")
    ax.set_yscale("log")
    ax.set_title(f"{report.spec.name}: modelled execution time (PYNQ-Z1)",
                 fontsize=11)
    legend = ax.legend(frameon=False, fontsize=9)
    for text in legend.get_texts():
        text.set_color(_TEXT_PRIMARY)
    path = out_dir / f"{report.spec.name}_execution_time.png"
    fig.savefig(path, dpi=150, bbox_inches="tight", facecolor=_SURFACE)
    plt.close(fig)
    return [path]


def plot_report(report: "RunReport", out_dir) -> Optional[List[Path]]:
    """Write the report's figure panels into ``out_dir``.

    Returns the written paths, an empty list for kinds with nothing to plot
    (``resource_table``), or ``None`` when matplotlib is unavailable — the
    caller prints the graceful no-op message in that case.
    """
    if not matplotlib_available():
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if report.spec.kind == "training_curve":
        return plot_training_curves(report, out)
    if report.spec.kind == "execution_time":
        return plot_execution_times(report, out)
    return []


def _design_order(design: str) -> Tuple[int, str]:
    try:
        return (DESIGN_NAMES.index(design), design)
    except ValueError:
        return (len(DESIGN_NAMES), design)


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in text)


__all__ = ["design_color", "matplotlib_available", "plot_report",
           "plot_training_curves", "plot_execution_times"]
