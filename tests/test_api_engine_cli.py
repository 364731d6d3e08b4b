"""Tests for the engine, the report adapters, the CLI and the pinned reports."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Budget, ExperimentSpec, get_spec, run
from repro.api.cli import main
from repro.api.reports import fpga_breakdown_rows
from repro.utils.serialization import load_json, save_json

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _tiny_spec(**overrides):
    defaults = dict(name="engine-tiny", designs=("OS-ELM-L2",),
                    hidden_sizes=(16,), budget=Budget(max_episodes=8))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestEngine:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run(_tiny_spec(), backend="gpu")

    def test_backends_agree(self):
        spec = _tiny_spec(designs=("OS-ELM-L2", "OS-ELM"))
        serial = run(spec, backend="serial")
        vectorized = run(spec, backend="vectorized")
        assert serial.summary_rows() == vectorized.summary_rows()
        for a, b in zip(serial.results(), vectorized.results()):
            np.testing.assert_array_equal(a.curve.steps, b.curve.steps)
        # Both designs lock-step now: OS-ELM-L2 through the batched strategy,
        # unregularized OS-ELM through the generic per-agent strategy.
        assert vectorized.backend_counts() == {"lockstep": 2}

    def test_trials_in_grid_order(self):
        spec = _tiny_spec(designs=("OS-ELM-L2", "OS-ELM"), hidden_sizes=(8, 16))
        report = run(spec, backend="vectorized")
        observed = [(r.task.n_hidden, r.task.design) for r in report.trials]
        assert observed == [(8, "OS-ELM-L2"), (8, "OS-ELM"),
                            (16, "OS-ELM-L2"), (16, "OS-ELM")]

    def test_resource_table_kind(self):
        report = run("table3")
        assert report.resource_report is not None
        rows = report.summary_rows()
        assert [row["Units"] for row in rows] == [32, 64, 128, 192, 256]
        assert rows[-1]["fits"] is False                    # 256 exceeds BRAM
        assert "Table 3" in report.render()

    def test_multi_seed_rows_extended(self):
        spec = _tiny_spec(n_seeds=2, budget=Budget(max_episodes=3))
        report = run(spec, backend="serial")
        rows = report.summary_rows()
        assert len(rows) == 2
        assert {row["trial"] for row in rows} == {0, 1}
        with pytest.raises(ValueError, match="n_seeds"):
            report.to_training_curve_result()

    def test_registered_name_resolution(self):
        spec = get_spec("figure4", scale="ci")
        assert spec.designs == ("OS-ELM-L2-Lipschitz", "DQN")
        # The table2 alias must resolve to the execution-time spec (no
        # training needed to check name resolution).
        assert get_spec("table2", scale="ci").kind == "execution_time"
        # run() by name routes through the same resolution; table3 is the
        # cheap kind (analytical, zero trials).
        assert run("table3").spec.name == "table3"


class TestPinnedReports:
    """The rendered paper reports replay byte-for-byte on the serial and vectorized backends.

    ``tests/data/pinned_reports.json`` was rendered by the experiment
    harnesses that preceded :func:`repro.api.run`; the engine must keep
    producing exactly that text.
    """

    PINS = load_json(Path(__file__).parent / "data" / "pinned_reports.json")

    def _report(self, name, backend):
        pin = self.PINS[name]
        spec = get_spec(name, scale="ci").with_grid(
            designs=tuple(pin["designs"]), hidden_sizes=tuple(pin["hidden_sizes"]),
        ).with_budget(max_episodes=pin["max_episodes"])
        return run(spec, backend=backend)

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_figure4(self, backend):
        report = self._report("figure4", backend)
        assert report.render() == self.PINS["figure4"]["render"]
        assert report.summary_csv() == self.PINS["figure4"]["summary_csv"]

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_figure5_and_fpga_breakdown(self, backend):
        pin = self.PINS["figure5"]
        report = self._report("figure5", backend)
        assert report.render() == pin["render"]
        assert report.summary_csv() == pin["summary_csv"]
        rows = fpga_breakdown_rows(report.to_execution_time_result(),
                                   hidden_sizes=pin["hidden_sizes"])
        assert rows == pin["fpga_breakdown_rows"]

    def test_table3(self):
        assert run("table3").render() == self.PINS["table3"]["render"]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure4", "figure5", "table2", "table3"):
            assert name in out

    def test_run_report_cycle(self, tmp_path, capsys):
        spec = _tiny_spec(name="cli-tiny", budget=Budget(max_episodes=6))
        spec_path = tmp_path / "spec.json"
        save_json(spec_path, spec.to_json())
        out_dir = str(tmp_path / "artifacts")
        csv_a = str(tmp_path / "a.csv")
        csv_b = str(tmp_path / "b.csv")

        assert main(["run", str(spec_path), "--backend", "serial",
                     "--out", out_dir, "--csv", csv_a]) == 0
        first = capsys.readouterr().out
        assert "1 executed" in first and "0 from cache" in first

        # Second run: full cache hit, identical CSV.
        assert main(["run", str(spec_path), "--backend", "vectorized",
                     "--out", out_dir, "--csv", csv_b]) == 0
        second = capsys.readouterr().out
        assert "1 from cache" in second and "0 executed" in second
        assert Path(csv_a).read_text() == Path(csv_b).read_text()
        assert "design" in Path(csv_a).read_text()

        # report renders from cache only.
        assert main(["report", str(spec_path), "--out", out_dir]) == 0
        assert "OS-ELM-L2" in capsys.readouterr().out

    def test_report_without_artifacts_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        save_json(spec_path, _tiny_spec(name="missing").to_json())
        assert main(["report", str(spec_path),
                     "--out", str(tmp_path / "empty")]) == 2
        assert "artifact store" in capsys.readouterr().err

    def test_run_table3_no_store_needed(self, capsys, tmp_path):
        assert main(["run", "table3", "--out", str(tmp_path / "a")]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_python_m_repro_subprocess(self):
        """`python -m repro list` must work as an actual module entry point."""
        proc = subprocess.run([sys.executable, "-m", "repro", "list"],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert "figure4" in proc.stdout


class TestPlotting:
    def test_plot_report_is_graceful_without_matplotlib(self, tmp_path):
        from repro.api.plotting import matplotlib_available, plot_report

        report = run(_tiny_spec(name="plot-tiny"), backend="serial")
        written = plot_report(report, tmp_path / "figs")
        if matplotlib_available():   # pragma: no cover - env-dependent branch
            assert written and all(path.exists() for path in written)
        else:
            assert written is None

    def test_cli_plot_flag(self, tmp_path, capsys):
        from repro.api.plotting import matplotlib_available

        spec_path = tmp_path / "spec.json"
        save_json(spec_path, _tiny_spec(name="plot-cli").to_json())
        fig_dir = tmp_path / "figs"
        # --plot is a bare flag (safe before or after the positional) and the
        # directory travels separately via --plot-dir.
        assert main(["run", "--plot", str(spec_path), "--out", str(tmp_path / "a"),
                     "--plot-dir", str(fig_dir)]) == 0
        out = capsys.readouterr().out
        if matplotlib_available():   # pragma: no cover - env-dependent branch
            assert "figure:" in out
            assert list(fig_dir.glob("*.png"))
        else:
            assert "matplotlib is not installed" in out

    def test_design_colors_are_entity_stable(self):
        """Color follows the design, not its position in the current plot."""
        from repro.api.plotting import design_color
        from repro.core.designs import DESIGN_NAMES

        colors = [design_color(design) for design in DESIGN_NAMES]
        assert len(set(colors)) == len(colors)            # distinct slots
        assert design_color("DQN") == design_color("DQN")  # stable mapping


class TestProgressStreaming:
    def test_progress_every_streams_to_stderr(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        save_json(spec_path, _tiny_spec(name="progress-cli").to_json())
        assert main(["run", str(spec_path), "--out", str(tmp_path / "a"),
                     "--backend", "serial", "--progress-every", "2",
                     "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "episode 2:" in err and "done:" in err
