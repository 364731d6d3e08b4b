"""Tests for the serial trainer, training records and the paper reports."""

import numpy as np
import pytest

from repro.api import get_spec, run
from repro.api.reports import (
    PAPER_EXECUTION_TIMES,
    PAPER_SPEEDUPS,
    ExecutionTimeResult,
    TrainingCurveResult,
    compare_with_paper,
    fpga_breakdown_rows,
    project_timing,
    render_table3,
    resource_table,
    stability_classification,
)
from repro.core.designs import make_design
from repro.fpga.platform import PynqZ1Platform
from repro.training import (
    EpisodeRecord,
    Trainer,
    TrainingConfig,
    TrainingCurve,
    TrainingResult,
    evaluate_agent,
)
from repro.utils.tables import format_table, relative_error, rows_to_csv


def _ci_run(name, designs, max_episodes):
    spec = get_spec(name, scale="ci").with_grid(
        designs=designs, hidden_sizes=(16,)).with_budget(max_episodes=max_episodes)
    return run(spec, backend="serial")


class TestRecording:
    def test_training_curve_series(self):
        curve = TrainingCurve()
        for episode in range(1, 6):
            curve.append(EpisodeRecord(episode, episode * 10, 0.0, episode * 5.0))
        assert len(curve) == 5
        np.testing.assert_array_equal(curve.episodes, [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(curve.steps, [10, 20, 30, 40, 50])
        assert curve.final_average(2) == pytest.approx(45.0)
        assert set(curve.as_dict()) == {"episodes", "steps", "moving_average"}

    def test_training_result_completed_alias(self):
        curve = TrainingCurve([EpisodeRecord(1, 100, 1.0, 100.0)])
        result = TrainingResult("OS-ELM", 64, True, 1, 1, 2.0, curve, {"seq_train": 10})
        assert result.completed
        assert result.operation_counts == {"seq_train": 10}


class TestTrainerFit:
    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(max_episodes=0)
        with pytest.raises(ValueError):
            TrainingConfig(solved_window=0)

    def test_fit_returns_result(self):
        agent = make_design("OS-ELM-L2", n_hidden=16, seed=1)
        config = TrainingConfig(max_episodes=12, solved_threshold=500.0, seed=1)
        result = Trainer().fit(agent, config=config)
        assert result.episodes == 12
        assert not result.solved
        assert len(result.curve) == 12
        assert result.n_hidden == 16
        assert result.operation_counts["predict_init"] > 0
        assert result.operation_counts is agent.operation_counts
        assert all(record.steps >= 1 for record in result.curve.records)

    def test_fit_stops_when_solved(self):
        # A trivially low threshold is reached as soon as the window fills.
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        config = TrainingConfig(max_episodes=200, solved_threshold=2.0, solved_window=5, seed=0)
        result = Trainer().fit(agent, config=config)
        assert result.solved
        assert result.episodes_to_solve == result.episodes < 200

    def test_fit_dqn(self):
        agent = make_design("DQN", n_hidden=16, seed=0, min_replay_size=32)
        config = TrainingConfig(max_episodes=6, seed=0)
        result = Trainer().fit(agent, config=config)
        assert result.design == "DQN"
        assert result.operation_counts.get("predict_1", 0) > 0

    def test_fit_accepts_env_instance(self, cartpole_env):
        agent = make_design("OS-ELM", n_hidden=8, seed=0)
        result = Trainer().fit(agent, cartpole_env,
                               config=TrainingConfig(max_episodes=3, seed=0))
        assert result.episodes == 3

    def test_reward_shaping_bounds(self):
        """With shaping on, every shaped return lies in [-1, +1]."""
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        config = TrainingConfig(max_episodes=10, reward_shaping=True, seed=0)
        result = Trainer().fit(agent, config=config)
        assert all(-1.0 <= r.shaped_return <= 1.0 for r in result.curve.records)

    def test_record_lipschitz_option(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        config = TrainingConfig(max_episodes=5, record_lipschitz=True, seed=0)
        result = Trainer().fit(agent, config=config)
        assert np.isfinite(result.curve.lipschitz_bounds[-1])

    def test_evaluate_agent(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        Trainer().fit(agent, config=TrainingConfig(max_episodes=5, seed=0))
        lengths = evaluate_agent(agent, n_episodes=3, config=TrainingConfig(seed=1))
        assert lengths.shape == (3,)
        assert np.all(lengths >= 1)

    def test_evaluate_agent_invalid(self):
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=0)
        with pytest.raises(ValueError):
            evaluate_agent(agent, n_episodes=0)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"design": "DQN", "seconds": 3232.54}, {"design": "FPGA", "seconds": 6.88}]
        text = format_table(rows, title="Figure 5")
        assert "Figure 5" in text
        assert "DQN" in text and "FPGA" in text
        assert "3232.54" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_none_cells(self):
        text = format_table([{"a": None, "b": True}])
        assert "-" in text and "yes" in text

    def test_rows_to_csv(self):
        csv_text = rows_to_csv([{"a": 1, "b": "x,y"}])
        assert csv_text.splitlines()[0] == "a,b"
        assert '"x,y"' in csv_text

    def test_format_table_explicit_columns(self):
        text = format_table([{"a": 1, "b": 2.5, "c": "x"}], columns=("c", "b"))
        header = text.splitlines()[0]
        assert header.split(" | ") == ["c", "b   "]
        assert "a" not in header

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_rows_to_csv_escapes_quotes(self):
        csv_text = rows_to_csv([{"name": 'say "hi"', "n": None}])
        assert csv_text.splitlines()[1] == '"say ""hi""",'

    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(1.0, 0.0) == float("inf")
        assert relative_error(0.0, 0.0) == 0.0


class TestResourceTable:
    def test_resource_table_rows(self):
        report = resource_table()
        assert [row.n_hidden for row in report.rows] == [32, 64, 128, 192, 256]

    def test_render_table3_contains_all_rows(self):
        text = render_table3()
        for units in ("32", "64", "128", "192", "256"):
            assert units in text

    def test_compare_with_paper_structure(self):
        rows = compare_with_paper()
        units_covered = {row["Units"] for row in rows}
        assert units_covered == {32, 64, 128, 192, 256}
        # the 256-unit entry compares the fits flag and must agree with the paper
        unfit = [row for row in rows if row["Units"] == 256][0]
        assert unfit["agreement"] is True
        # BRAM errors stay within 15 % of the paper's numbers
        bram_rows = [row for row in rows if row.get("resource") == "BRAM"]
        assert all(row["relative_error"] <= 0.15 for row in bram_rows)


class TestTrainingCurveReport:
    def test_ci_scale_run(self):
        collected = _ci_run("figure4", ("OS-ELM-L2",), 8).to_training_curve_result()
        assert ("OS-ELM-L2", 16) in collected.results
        rows = collected.summary_rows()
        assert rows[0]["episodes"] <= 8
        series = collected.curve_series("OS-ELM-L2", 16)
        assert len(series["steps"]) == rows[0]["episodes"]
        assert "Figure 4" in collected.render()

    def test_paper_scale_configuration(self):
        budget = get_spec("figure4", scale="paper").budget
        assert budget.max_episodes == 50_000
        assert budget.solved_threshold == 195.0

    def test_designs_and_hidden_sizes_sorted(self):
        collected = TrainingCurveResult()
        for design, n_hidden in (("OS-ELM", 64), ("DQN", 32), ("OS-ELM", 32)):
            collected.add(TrainingResult(design, n_hidden, False, 1, None, 0.0,
                                         TrainingCurve(), {}))
        assert collected.designs() == ["DQN", "OS-ELM"]
        assert collected.hidden_sizes() == [32, 64]
        assert [(row["n_hidden"], row["design"]) for row in collected.summary_rows()] \
            == [(32, "DQN"), (32, "OS-ELM"), (64, "OS-ELM")]

    def test_stability_classification(self):
        solved = TrainingResult("X", 32, True, 10, 10, 1.0, TrainingCurve(), {})
        assert stability_classification(solved) == "solved"
        # A collapsing curve: rises then falls sharply (the paper's plain OS-ELM behaviour).
        curve = TrainingCurve()
        for episode in range(1, 201):
            steps = 150 if episode < 100 else 10
            avg = 150.0 if episode < 100 else max(10.0, 150 - (episode - 100) * 2)
            curve.append(EpisodeRecord(episode, steps, 0.0, avg))
        collapsed = TrainingResult("OS-ELM", 32, False, 200, None, 1.0, curve, {})
        assert stability_classification(collapsed) == "collapsed"
        flat = TrainingCurve()
        for episode in range(1, 50):
            flat.append(EpisodeRecord(episode, 10, 0.0, 10.0))
        dull = TrainingResult("OS-ELM", 32, False, 49, None, 1.0, flat, {})
        assert stability_classification(dull) == "not_learning"


class TestExecutionTimeReport:
    def test_paper_reference_tables_complete(self):
        assert set(PAPER_EXECUTION_TIMES) == {32, 64, 128, 192}
        assert PAPER_SPEEDUPS[64]["OS-ELM-L2-Lipschitz"] == 29.76
        assert PAPER_SPEEDUPS[64]["FPGA"] == 126.06

    def test_paper_scale_grid_matches_reference_tables(self):
        spec = get_spec("figure5", scale="paper")
        assert set(spec.hidden_sizes) == set(PAPER_EXECUTION_TIMES)
        assert {"DQN", "OS-ELM-L2-Lipschitz", "FPGA"} <= set(spec.designs)

    def test_project_timing_keeps_counts(self):
        counts = {"seq_train": 40, "predict_1": 100}
        result = TrainingResult("FPGA", 64, True, 7, 7, 1.0, TrainingCurve(), counts)
        platform = PynqZ1Platform()
        timing = project_timing(result, platform)
        assert (timing.design, timing.n_hidden, timing.solved, timing.episodes) \
            == ("FPGA", 64, True, 7)
        assert timing.counts == counts
        assert timing.modelled == platform.project_breakdown("FPGA", counts, n_hidden=64)
        assert timing.modelled_total == pytest.approx(sum(timing.modelled.values()))
        assert timing.modelled_total > 0

    def test_ci_scale_run_and_speedups(self):
        result = _ci_run("figure5", ("OS-ELM-L2", "DQN", "FPGA"),
                         6).to_execution_time_result()
        assert isinstance(result, ExecutionTimeResult)
        for design in ("OS-ELM-L2", "DQN", "FPGA"):
            timing = result.get(design, 16)
            assert timing.modelled_total > 0
            assert set(timing.modelled) <= set(timing.counts)
        # The proposed designs complete the same (small) workload faster than DQN
        # under the platform latency model.
        assert result.speedup_vs_dqn("OS-ELM-L2", 16) > 1.0
        assert result.speedup_vs_dqn("FPGA", 16) > 1.0
        # FPGA is at least as fast as the software OS-ELM design.
        assert result.get("FPGA", 16).modelled_total <= result.get("OS-ELM-L2", 16).modelled_total
        rows = result.summary_rows()
        assert len(rows) == 3
        assert "Figure 5" in result.render()

    def test_breakdown_rows(self):
        result = _ci_run("figure5", ("FPGA",), 4).to_execution_time_result()
        rows = result.breakdown_rows("FPGA", 16)
        assert sum(row["fraction"] for row in rows) == pytest.approx(1.0, abs=0.01)
        fig6 = fpga_breakdown_rows(result, hidden_sizes=(16,))
        assert fig6[0]["n_hidden"] == 16
        assert fig6[0]["total_seconds"] > 0

    def test_speedup_missing_design_returns_none(self):
        assert ExecutionTimeResult().speedup_vs_dqn("FPGA", 64) is None
