"""Callback lifecycle, progress streaming and action-repeat stepping."""

import io

import numpy as np
import pytest

from repro.core.designs import make_design
from repro.envs.wrappers import ActionRepeat
from repro.parallel import SweepRunner, SweepSpec
from repro.training import (
    Callback,
    CallbackList,
    MetricsRecorder,
    ProgressCallback,
    Trainer,
    TrainingConfig,
)


class _Recorder(Callback):
    """Logs every hook invocation in order."""

    def __init__(self):
        self.events = []

    def on_train_start(self, run):
        self.events.append(("train_start", run.mode))

    def on_episode_start(self, trial):
        self.events.append(("episode_start", trial.index, trial.episode))

    def on_step(self, trial, event):
        self.events.append(("step", trial.index, event.done))

    def on_episode_end(self, trial, record):
        self.events.append(("episode_end", trial.index, record.episode))

    def on_train_end(self, run, results):
        self.events.append(("train_end", len(results)))


class TestCallbackLifecycle:
    def test_serial_hook_ordering_and_counts(self):
        recorder = _Recorder()
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=3)
        result = Trainer(callbacks=[recorder]).fit(
            agent, config=TrainingConfig(max_episodes=3, seed=3))
        kinds = [event[0] for event in recorder.events]
        assert kinds[0] == "train_start"
        assert kinds[-1] == "train_end"
        assert kinds.count("episode_start") == kinds.count("episode_end") \
            == result.episodes == 3
        # One on_step per decision; with action_repeat=1 that is one per env
        # step, so the step-event count equals the summed curve lengths.
        assert kinds.count("step") == int(result.curve.steps.sum())
        # episode_end(k) always follows episode_start(k)
        starts = [e[2] for e in recorder.events if e[0] == "episode_start"]
        ends = [e[2] for e in recorder.events if e[0] == "episode_end"]
        assert starts == ends == [1, 2, 3]

    def test_lockstep_fires_identical_hooks(self):
        recorder = _Recorder()
        agents = [make_design("OS-ELM-L2", n_hidden=8, seed=s) for s in (0, 1)]
        configs = [TrainingConfig(max_episodes=2, seed=s) for s in (0, 1)]
        results = Trainer(callbacks=[recorder]).fit_lockstep(agents, configs)
        kinds = [event[0] for event in recorder.events]
        assert kinds[0] == "train_start"
        assert recorder.events[0] == ("train_start", "lockstep")
        assert kinds[-1] == "train_end"
        assert kinds.count("episode_end") == sum(r.episodes for r in results)
        total_steps = sum(int(r.curve.steps.sum()) for r in results)
        assert kinds.count("step") == total_steps

    def test_user_supplied_metrics_recorder_is_reused(self):
        metrics = MetricsRecorder()
        trainer = Trainer(callbacks=[metrics])
        assert trainer.recorder is metrics
        agent = make_design("ELM", n_hidden=8, seed=0)
        result = trainer.fit(agent, config=TrainingConfig(max_episodes=2, seed=0))
        assert metrics.curve(0) is result.curve

    def test_callback_list_rejects_non_callbacks(self):
        with pytest.raises(TypeError):
            CallbackList([object()])

    def test_progress_callback_streams_lines(self):
        stream = io.StringIO()
        agent = make_design("OS-ELM-L2", n_hidden=8, seed=1)
        Trainer(callbacks=[ProgressCallback(2, stream=stream)]).fit(
            agent, config=TrainingConfig(max_episodes=4, seed=1))
        out = stream.getvalue()
        assert "episode 2:" in out and "episode 4:" in out
        assert "episode 1:" not in out        # every 2nd episode only
        assert "done:" in out                 # train-end summary

    def test_progress_callback_validates_interval(self):
        with pytest.raises(ValueError):
            ProgressCallback(0)


class TestActionRepeat:
    def test_config_validates_action_repeat(self):
        with pytest.raises(ValueError):
            TrainingConfig(action_repeat=0)

    def test_serial_frame_skip_reduces_decisions_not_steps(self):
        seed = 11
        base = Trainer().fit(make_design("OS-ELM-L2", n_hidden=8, seed=seed),
                             config=TrainingConfig(max_episodes=3, seed=seed))
        skipped_agent = make_design("OS-ELM-L2", n_hidden=8, seed=seed)
        skipped = Trainer().fit(
            skipped_agent,
            config=TrainingConfig(max_episodes=3, seed=seed, action_repeat=3))
        # Steps per episode count real env steps either way...
        assert skipped.curve.steps.sum() > 0
        # ...but the agent only observed one transition per decision point.
        assert skipped_agent.global_step < int(skipped.curve.steps.sum())
        # action_repeat=1 is the bit-identical default, not merely similar.
        assert base.curve.steps.sum() == Trainer().fit(
            make_design("OS-ELM-L2", n_hidden=8, seed=seed),
            config=TrainingConfig(max_episodes=3, seed=seed,
                                  action_repeat=1)).curve.steps.sum()

    @pytest.mark.parametrize("repeat", [2, 3])
    @pytest.mark.parametrize("design", ["OS-ELM-L2", "OS-ELM-L2-Lipschitz",
                                        "ELM", "DQN"])
    def test_lockstep_frame_skip_matches_serial(self, design, repeat):
        """Each lock-step sub-env wraps its env in ActionRepeat, like the
        serial driver, and replays the serial frame-skip run byte-for-byte."""
        seeds = (4, 5)
        configs = [TrainingConfig(max_episodes=3, seed=s, action_repeat=repeat)
                   for s in seeds]
        serial = [Trainer().fit(make_design(design, n_hidden=8, seed=s),
                                config=c) for s, c in zip(seeds, configs)]
        agents = [make_design(design, n_hidden=8, seed=s) for s in seeds]
        lockstep = Trainer().fit_lockstep(agents, configs)
        for serial_result, lockstep_result in zip(serial, lockstep):
            _assert_same_run(serial_result, lockstep_result)

    @pytest.mark.parametrize("design,strategy", [("OS-ELM-L2", "batched"),
                                                 ("DQN", "generic")])
    def test_mixed_action_repeat_lockstep_matches_serial(self, design, strategy):
        """Frame skip lives in each sub-env, so one lock-step batch can mix
        k=1 and k=2 trials and still replay every serial run."""
        seeds = (0, 1, 2)
        configs = [TrainingConfig(max_episodes=3, seed=s, action_repeat=k)
                   for s, k in zip(seeds, (1, 2, 1))]
        serial = [Trainer().fit(make_design(design, n_hidden=8, seed=s),
                                config=c) for s, c in zip(seeds, configs)]
        agents = [make_design(design, n_hidden=8, seed=s) for s in seeds]
        lockstep = Trainer().fit_lockstep(agents, configs, strategy=strategy)
        for serial_result, lockstep_result in zip(serial, lockstep):
            _assert_same_run(serial_result, lockstep_result)


    def test_unit_repeat_keeps_the_batched_fast_path(self):
        """k = 1 sub-envs stay bare, so CartPole keeps batched physics; k > 1
        sub-envs are ActionRepeat wrappers stepped one by one."""
        from repro.training.trainer import _build_vector_env

        plain = _build_vector_env([TrainingConfig(seed=s) for s in (0, 1)])
        skipped = _build_vector_env([TrainingConfig(seed=s, action_repeat=2)
                                     for s in (0, 1)])
        assert plain.uses_batch_physics
        assert not skipped.uses_batch_dynamics
        assert all(type(env) is ActionRepeat and env.repeat == 2
                   for env in skipped.envs)

    def test_episode_step_limit_counts_frames(self):
        """The wrapper sits outside the env's own time limit, so a 7-step
        limit under k=3 truncates after 3 + 3 + 1 frames."""
        seed = 6
        result = Trainer().fit(
            make_design("OS-ELM-L2", n_hidden=8, seed=seed),
            config=TrainingConfig(max_episodes=5, seed=seed, action_repeat=3,
                                  max_steps_per_episode=7))
        assert result.curve.steps.max() == 7

    def test_sweep_vectorized_frame_skip_matches_serial(self):
        spec = SweepSpec(designs=("OS-ELM-L2", "DQN"), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=3, action_repeat=2),
                         root_seed=9)
        serial = SweepRunner(spec, backend="serial").run()
        vectorized = SweepRunner(spec, backend="vectorized").run()
        assert vectorized.backend_counts() == {"lockstep": 4}
        for serial_result, vectorized_result in zip(serial.results_for(),
                                                    vectorized.results_for()):
            _assert_same_run(serial_result, vectorized_result)

def _assert_same_run(expected, actual):
    np.testing.assert_array_equal(expected.curve.steps, actual.curve.steps)
    assert [r.shaped_return.hex() for r in expected.curve.records] \
        == [r.shaped_return.hex() for r in actual.curve.records]
    assert expected.operation_counts == actual.operation_counts
