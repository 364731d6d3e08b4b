"""Tests for the artifact store: content addressing, round-trips, resume."""

import json

import numpy as np
import pytest

from repro.api import ArtifactStore, Budget, ExperimentSpec, run, trial_key
from repro.api.store import trial_descriptor
from repro.training import Trainer


def _tiny_spec(name="store-spec", **overrides):
    defaults = dict(designs=("OS-ELM-L2",), hidden_sizes=(8,),
                    budget=Budget(max_episodes=4))
    defaults.update(overrides)
    return ExperimentSpec(name=name, **defaults)


def _train(task):
    return Trainer().fit(task.make_agent(), config=task.training,
                         n_hidden=task.n_hidden)


class TestTrialKey:
    def test_deterministic_and_sensitive(self):
        spec = _tiny_spec()
        task = spec.tasks()[0]
        assert trial_key(task) == trial_key(spec.tasks()[0])
        other = _tiny_spec().with_budget(max_episodes=5).tasks()[0]
        assert trial_key(task) != trial_key(other)
        descriptor = trial_descriptor(task)
        assert descriptor["design"] == "OS-ELM-L2"
        assert descriptor["training"]["max_episodes"] == 4

    def test_key_is_spec_independent(self):
        """Two specs expanding to the same trial share one artifact."""
        a = _tiny_spec(name="a").tasks()[0]
        b = _tiny_spec(name="b").tasks()[0]
        assert trial_key(a) == trial_key(b)


class TestStoreRoundTrip:
    def test_save_load_preserves_result(self, tmp_path):
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        result = _train(task)
        assert not store.has_trial(task)
        store.save_trial(task, result, backend_used="serial")
        assert store.has_trial(task)
        loaded, backend_used = store.load_trial(task)
        assert backend_used == "serial"
        assert loaded.design == result.design
        assert loaded.solved == result.solved
        assert loaded.episodes == result.episodes
        assert loaded.episodes_to_solve == result.episodes_to_solve
        assert loaded.seed == result.seed
        assert loaded.weight_resets == result.weight_resets
        np.testing.assert_array_equal(loaded.curve.steps, result.curve.steps)
        np.testing.assert_array_equal(loaded.curve.moving_average,
                                      result.curve.moving_average)
        assert loaded.operation_counts == result.operation_counts
        # summary_rows-visible fields must survive the round trip exactly.
        assert loaded.curve.final_average() == result.curve.final_average()

    def test_trial_json_records_counts_not_host_seconds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        result = _train(task)
        store.save_trial(task, result, backend_used="serial")
        record = json.loads((store.trial_dir(trial_key(task)) / "trial.json").read_text())
        assert record["result"]["breakdown_counts"] == result.operation_counts
        assert [field for field in record["result"] if field.endswith("seconds")] \
            == ["wall_time_seconds"]

    def test_trial_json_with_measured_seconds_still_hits(self, tmp_path):
        """Stores written when trials also recorded host seconds per operation
        (a ``breakdown_seconds`` field) still load, with the same counts."""
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        result = _train(task)
        store.save_trial(task, result, backend_used="serial")
        record_path = store.trial_dir(trial_key(task)) / "trial.json"
        record = json.loads(record_path.read_text())
        saved = record["result"]
        counts = saved.pop("breakdown_counts")
        saved["breakdown_seconds"] = {operation: 0.5 for operation in counts}
        saved["breakdown_counts"] = counts
        record_path.write_text(json.dumps(record))
        loaded, backend_used = store.load_trial(task)
        assert backend_used == "serial"
        assert loaded.operation_counts == result.operation_counts

    def test_missing_trial_reads_as_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_trial(_tiny_spec().tasks()[0]) is None

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        store.save_trial(task, _train(task), backend_used="serial")
        (store.trial_dir(trial_key(task)) / "trial.json").write_text("{broken")
        assert store.load_trial(task) is None

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04truncated-archive"])
    def test_partial_npz_reads_as_miss(self, tmp_path, content):
        """A run killed mid-save leaves an empty/truncated curve.npz; later
        runs must treat that trial as a miss, not crash in the cache pass."""
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        store.save_trial(task, _train(task), backend_used="serial")
        (store.trial_dir(trial_key(task)) / "curve.npz").write_bytes(content)
        assert store.load_trial(task) is None
        # and the engine reruns it rather than aborting
        report = run(_tiny_spec(), backend="serial", store=store)
        assert report.executed_count == 1


class TestEngineCaching:
    def test_cache_miss_then_hit(self, tmp_path):
        spec = _tiny_spec()
        first = run(spec, backend="serial", out=str(tmp_path))
        assert first.cached_count == 0 and first.executed_count == 1
        second = run(spec, backend="serial", out=str(tmp_path))
        assert second.cached_count == 1 and second.executed_count == 0
        assert second.summary_rows() == first.summary_rows()
        # run-level record exists for `repro report`
        store = ArtifactStore(tmp_path)
        record = store.load_run(spec.spec_hash)
        assert record is not None
        assert record["trial_keys"] == [trial_key(spec.tasks()[0])]

    def test_cache_shared_across_backends(self, tmp_path):
        spec = _tiny_spec()
        run(spec, backend="vectorized", out=str(tmp_path))
        cached = run(spec, backend="serial", out=str(tmp_path))
        assert cached.cached_count == 1
        assert cached.trials[0].backend_used == "lockstep"   # provenance preserved

    def test_no_resume_forces_rerun(self, tmp_path):
        spec = _tiny_spec()
        run(spec, backend="serial", out=str(tmp_path))
        forced = run(spec, backend="serial", out=str(tmp_path), resume=False)
        assert forced.cached_count == 0 and forced.executed_count == 1

    def test_cache_only_raises_on_missing(self, tmp_path):
        with pytest.raises(RuntimeError, match="not in the artifact store"):
            run(_tiny_spec(), backend="serial", out=str(tmp_path), cache_only=True)

    def test_overlapping_spec_reuses_trials(self, tmp_path):
        """A wider spec whose grid contains an already-run cell must reuse it."""
        run(_tiny_spec(), backend="serial", out=str(tmp_path))
        wider = _tiny_spec(name="wider", designs=("OS-ELM-L2", "ELM"))
        report = run(wider, backend="serial", out=str(tmp_path))
        cached = {record.task.design: record.cached for record in report.trials}
        assert cached == {"OS-ELM-L2": True, "ELM": False}

    def test_no_store_runs_pure(self, tmp_path, monkeypatch):
        """Without out/store nothing may be written to the default root."""
        monkeypatch.chdir(tmp_path)
        report = run(_tiny_spec(), backend="serial")
        assert report.store_root is None
        assert not (tmp_path / "artifacts").exists()


class TestPolicyPersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        agent = task.make_agent()
        _train(task)
        assert not store.has_policy(task)
        assert store.load_policy(task) is None
        store.save_policy(task, agent)
        assert store.has_policy(task)
        loaded = store.load_policy(task)
        assert type(loaded) is type(agent)
        state = np.array([0.1, -0.2, 0.03, 0.4])
        assert loaded.act(state, explore=False) == agent.act(state,
                                                             explore=False)

    def test_corrupt_policy_reads_as_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        task = _tiny_spec().tasks()[0]
        store.save_policy(task, task.make_agent())
        store.policy_path(task).write_bytes(b"not a pickle")
        assert store.load_policy(task) is None

    def test_policy_from_a_removed_module_reads_as_miss(self, tmp_path, stale_pickle):
        """A policy saved by an older package whose agent module has since
        been deleted is a miss, and the serve preflight asks for a retrain."""
        from repro.serving import load_spec_policies

        spec = _tiny_spec()
        task = spec.tasks()[0]
        store = ArtifactStore(tmp_path)
        path = store.policy_path(task)
        path.parent.mkdir(parents=True)
        path.write_bytes(stale_pickle(lambda orphan: {
            "descriptor": trial_descriptor(task), "design": task.design,
            "agent": orphan}))
        assert store.load_policy(task) is None
        policies, problems = load_spec_policies(store, spec)
        assert policies == {}
        assert len(problems) == 1
        assert f"run `repro run {spec.name} --save-policy` first" in problems[0]

    def test_dqn_policy_naming_the_deleted_nn_framework_reads_as_miss(
            self, tmp_path, stale_pickle):
        """A DQN policy pickled while the agent held a ``repro.nn`` network
        is a miss now that the package has no ``repro.nn``."""
        task = _tiny_spec(designs=("DQN",)).tasks()[0]
        store = ArtifactStore(tmp_path)
        store.save_policy(task, task.make_agent())
        assert store.load_policy(task) is not None

        def old_policy(network):
            agent = task.make_agent()
            agent.q_network = network
            return {"descriptor": trial_descriptor(task), "design": task.design,
                    "agent": agent}

        store.policy_path(task).write_bytes(
            stale_pickle(old_policy, name="repro.nn.network.MLP"))
        assert store.load_policy(task) is None

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "process"])
    def test_run_save_policy_writes_every_trial(self, tmp_path, backend):
        spec = _tiny_spec(designs=("OS-ELM-L2", "ELM"))
        report = run(spec, backend=backend, out=str(tmp_path),
                     save_policy=True)
        assert report.executed_count == 2
        store = ArtifactStore(tmp_path)
        for task in spec.tasks():
            assert store.has_policy(task), task.design
            agent = store.load_policy(task)
            assert callable(getattr(agent, "act_batch", None))

    def test_save_policy_requires_a_store(self):
        with pytest.raises(ValueError, match="save_policy"):
            run(_tiny_spec(), backend="serial", save_policy=True)

    def test_save_policy_rejects_distributed_backend(self, tmp_path):
        with pytest.raises(ValueError, match="distributed"):
            run(_tiny_spec(), backend="distributed", out=str(tmp_path),
                save_policy=True)

    def test_load_spec_policies_finds_saved_agents(self, tmp_path):
        from repro.serving import load_spec_policies

        spec = _tiny_spec(designs=("OS-ELM-L2", "ELM"))
        run(spec, backend="serial", out=str(tmp_path), save_policy=True)
        store = ArtifactStore(tmp_path)
        policies, problems = load_spec_policies(store, spec)
        assert problems == []
        assert sorted(policies) == ["ELM", "OS-ELM-L2"]
        missing, missing_problems = load_spec_policies(
            store, _tiny_spec(designs=("OS-ELM-L2", "DQN")))
        assert sorted(missing) == ["OS-ELM-L2"]
        assert len(missing_problems) == 1
        assert "no trained policy for design 'DQN'" in missing_problems[0]

    def test_load_spec_policies_rejects_unknown_design(self, tmp_path):
        from repro.serving import load_spec_policies

        policies, problems = load_spec_policies(
            ArtifactStore(tmp_path), _tiny_spec(), designs=["Nope"])
        assert policies == {}
        assert len(problems) == 1 and "not part of spec" in problems[0]


class TestStoreEnumeration:
    def test_list_runs_empty_store(self, tmp_path):
        assert ArtifactStore(tmp_path).list_runs() == []

    def test_list_runs_and_trials(self, tmp_path):
        spec_a = _tiny_spec(name="enum-a")
        spec_b = _tiny_spec(name="enum-b", designs=("ELM",))
        run(spec_a, backend="serial", out=str(tmp_path))
        run(spec_b, backend="serial", out=str(tmp_path))
        store = ArtifactStore(tmp_path)
        listed = store.list_runs()
        assert sorted(listed) == sorted([spec_a.spec_hash, spec_b.spec_hash])
        trials = store.list_trials(spec_a.spec_hash)
        assert trials == [trial_key(spec_a.tasks()[0])]
        # every listed trial must actually resolve to a stored artifact
        assert (store.trial_dir(trials[0]) / "trial.json").exists()

    def test_list_runs_excludes_telemetry_records(self, tmp_path):
        spec = _tiny_spec(name="enum-telemetry")
        run(spec, backend="serial", out=str(tmp_path))
        runs_dir = tmp_path / "runs"
        (runs_dir / f"{spec.spec_hash}.telemetry.json").write_text("{}")
        assert ArtifactStore(tmp_path).list_runs() == [spec.spec_hash]

    def test_list_trials_unknown_hash_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no run record for spec hash"):
            ArtifactStore(tmp_path).list_trials("deadbeef")
