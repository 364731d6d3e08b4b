"""Bit-for-bit equivalence of the unified Trainer vs. the legacy loops.

``tests/data/pinned_curves.json`` was generated by the pre-refactor
hand-rolled serial and lock-step loops at the commit before
``repro.training`` landed — see ``tests/data/generate_pinned_curves.py``.  Every driver/strategy of the new
Trainer must replay those curves exactly (episode lengths, float-exact
shaped returns and moving averages), for every registered design including
DQN and the fixed-point FPGA configuration.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.designs import DESIGN_NAMES, make_design
from repro.parallel.sweep import SweepRunner, SweepSpec
from repro.training import (
    AgentProtocol,
    BatchableAgentProtocol,
    Trainer,
    TrainingConfig,
)
from repro.utils import validation

PINS = json.loads((Path(__file__).parent / "data" / "pinned_curves.json")
                  .read_text(encoding="utf-8"))
#: Pins the legacy file misses: a DQN trial that trains, and training
#: continued on trained agents (``tests/data/generate_training_pins.py``).
TRAINING_PINS = json.loads((Path(__file__).parent / "data" / "pinned_training.json")
                           .read_text(encoding="utf-8"))


def _assert_matches_pin(result, pin):
    assert result.solved == pin["solved"]
    assert result.episodes == pin["episodes"]
    assert result.episodes_to_solve == pin["episodes_to_solve"]
    assert result.weight_resets == pin["weight_resets"]
    assert [r.steps for r in result.curve.records] == pin["steps"]
    # .hex() round-trips floats exactly: these are byte-identity checks.
    assert [r.shaped_return.hex() for r in result.curve.records] \
        == pin["shaped_return"]
    assert [r.moving_average.hex() for r in result.curve.records] \
        == pin["moving_average"]


def _serial_case(case):
    agent = make_design(case["design"], n_hidden=case["n_hidden"],
                        seed=case["seed"])
    config = TrainingConfig(max_episodes=case["max_episodes"],
                            seed=case["seed"])
    return agent, config


class TestSerialDriverMatchesLegacy:
    def test_every_design_has_a_serial_pin(self):
        """A design added to the registry must fail loudly here rather than
        silently going unpinned."""
        assert {case["design"] for case in PINS["serial"]} == set(DESIGN_NAMES)

    @pytest.mark.parametrize("case", PINS["serial"],
                             ids=[c["design"] for c in PINS["serial"]])
    def test_trainer_fit_replays_pinned_legacy_curve(self, case):
        agent, config = _serial_case(case)
        result = Trainer().fit(agent, config=config, n_hidden=case["n_hidden"])
        _assert_matches_pin(result, case["result"])


class TestTrainingPins:
    def test_dqn_trains_and_replays_its_pin(self):
        case = TRAINING_PINS["dqn"]
        agent = make_design(case["design"], n_hidden=case["n_hidden"],
                            seed=case["seed"])
        config = TrainingConfig(max_episodes=case["max_episodes"], seed=case["seed"])
        result = Trainer().fit(agent, config=config, n_hidden=case["n_hidden"])
        _assert_matches_pin(result, case["result"])
        assert agent.train_steps == case["train_steps"] >= 500
        assert result.operation_counts == case["result"]["operation_counts"]

    @pytest.mark.parametrize("entry", ["fit", "fit_lockstep"])
    @pytest.mark.parametrize("case", TRAINING_PINS["continued"],
                             ids=[f"{c['design']}-{c['seed']}"
                                  for c in TRAINING_PINS["continued"]])
    def test_training_a_trained_agent_again_replays_its_pin(self, case, entry):
        """A second call acts on the model the first call trained, from its
        first step, through either entry point."""
        agent = make_design(case["design"], n_hidden=case["n_hidden"],
                            seed=case["seed"])
        Trainer().fit(agent, config=TrainingConfig(
            max_episodes=case["first_episodes"], seed=case["seed"],
            stop_when_solved=False))
        second = TrainingConfig(max_episodes=case["second_episodes"],
                                seed=case["second_seed"], stop_when_solved=False)
        if entry == "fit":
            result = Trainer().fit(agent, config=second)
        else:
            result = Trainer().fit_lockstep([agent], [second])[0]
        _assert_matches_pin(result, case["result"])
        assert result.operation_counts == case["result"]["operation_counts"]


class TestGenericLockstepMatchesSerial:
    """The generic strategy trains ANY design lock-step, bit-for-bit."""

    @pytest.mark.parametrize("case", PINS["serial"],
                             ids=[c["design"] for c in PINS["serial"]])
    def test_single_trial_generic_lockstep(self, case):
        agent, config = _serial_case(case)
        result = Trainer().fit_lockstep([agent], [config],
                                        strategy="generic")[0]
        _assert_matches_pin(result, case["result"])

    def test_mixed_design_generic_batch(self):
        """DQN + FPGA + unregularized OS-ELM advance in ONE lock-step batch
        and each still replays its pinned serial curve."""
        chosen = [case for case in PINS["serial"]
                  if case["design"] in ("OS-ELM", "DQN", "FPGA")]
        agents, configs = zip(*[_serial_case(case) for case in chosen])
        results = Trainer().fit_lockstep(list(agents), list(configs),
                                         strategy="generic")
        for result, case in zip(results, chosen):
            _assert_matches_pin(result, case["result"])

    def test_auto_strategy_picks_generic_for_mixed_batches(self):
        agents = [make_design("OS-ELM-L2", n_hidden=16, seed=0),
                  make_design("DQN", n_hidden=16, seed=1)]
        configs = [TrainingConfig(max_episodes=2, seed=s) for s in (0, 1)]
        results = Trainer().fit_lockstep(agents, configs)   # auto
        assert len(results) == 2


class TestBatchedLockstepMatchesLegacy:
    def test_batched_strategy_replays_pinned_legacy_batch(self):
        cases = PINS["lockstep_batch"]["cases"]
        agents = [make_design(d, n_hidden=h, seed=s) for d, h, _, s in cases]
        configs = [TrainingConfig(max_episodes=e, seed=s)
                   for _, _, e, s in cases]
        results = Trainer().fit_lockstep(agents, configs, strategy="batched")
        for result, pin in zip(results, PINS["lockstep_batch"]["results"]):
            _assert_matches_pin(result, pin)


class TestDQNTrainsUnderLockstepBackend:
    def test_dqn_backend_used_is_lockstep_and_matches_serial(self):
        """The acceptance criterion: DQN routed through the vectorized
        backend records backend_used="lockstep" and reproduces serial."""
        spec = SweepSpec(designs=("DQN",), n_seeds=2, n_hidden=8,
                         training=TrainingConfig(max_episodes=4), root_seed=7)
        vec = SweepRunner(spec, backend="vectorized").run()
        assert set(vec.backends_used) == {"lockstep"}
        ser = SweepRunner(spec, backend="serial").run()
        for vec_result, ser_result in zip(vec.results_for(), ser.results_for()):
            np.testing.assert_array_equal(vec_result.curve.steps,
                                          ser_result.curve.steps)

    def test_fpga_and_unregularized_designs_lockstep_too(self):
        spec = SweepSpec(designs=("FPGA", "OS-ELM"), n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=2), root_seed=5)
        vec = SweepRunner(spec, backend="vectorized").run()
        assert vec.backend_counts() == {"lockstep": 2}


class TestAgentProtocolConformance:
    @pytest.mark.parametrize("design", DESIGN_NAMES)
    def test_every_design_satisfies_the_protocol(self, design):
        agent = make_design(design, n_hidden=8, seed=0)
        assert isinstance(agent, AgentProtocol)
        assert isinstance(agent, BatchableAgentProtocol)


class TestSerialHotPathValidation:
    """The serial inner loop trusts the rows it builds: input validation
    (``ensure_2d``/``check_array``) runs at the API boundary, not per step."""

    def test_validation_calls_per_env_step_stay_near_zero(self, monkeypatch):
        calls = []

        def counted(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        # The same module scan the benchmark's traced run counts with: every
        # repro module that imported the helpers, not the helpers' own module.
        for name, module in sorted(sys.modules.items()):
            if not name.startswith("repro.") or name == "repro.utils.validation":
                continue
            for function in (validation.ensure_2d, validation.check_array):
                if getattr(module, function.__name__, None) is function:
                    monkeypatch.setattr(module, function.__name__, counted(function))
        agent = make_design("OS-ELM-L2-Lipschitz", n_hidden=64, seed=3)
        config = TrainingConfig(env_id="CartPole-v0", max_episodes=30,
                                stop_when_solved=False, seed=3)
        result = Trainer().fit(agent, config=config, n_hidden=64)
        steps = sum(record.steps for record in result.curve.records)
        assert agent.initial_training_done and steps > 64
        assert len(calls) / steps < 0.05, f"{len(calls)} validation calls in {steps} steps"
