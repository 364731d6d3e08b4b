"""Regenerate ``pinned_training.json`` — pins that cover what the legacy pins miss.

``pinned_curves.json``'s DQN case runs 59 steps, below the replay warm-up,
so it never trains; and no legacy pin continues training an agent that has
already finished its initial training.  This file pins both:

``dqn``
    One DQN trial long enough to train (hundreds of backward passes and Adam
    steps): the curve's float bits, ``train_steps`` and ``operation_counts``.
``continued``
    ELM-family agents trained by ``Trainer().fit`` for 12 episodes, then
    trained again by a second ``fit`` call for 15 more, on another env
    seed (``stop_when_solved`` off in both): the second call's curve bits
    and operation counts.

The checked-in JSON was produced by the per-step serial ``Trainer.fit`` loop
that preceded the one-trial lock-step ``fit``.  Only rerun it if the
protocol itself changes intentionally — regenerating it after a trainer
change would hide exactly the regressions it exists to catch.

Run from the repository root: ``PYTHONPATH=src python tests/data/generate_training_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.designs import make_design
from repro.training import Trainer, TrainingConfig

#: (design, n_hidden, max_episodes, seed) of the DQN pin.
DQN_CASE = ("DQN", 16, 30, 123)

#: (design, n_hidden, seed) of each continued-training pin.
CONTINUED_CASES = [(design, 16, seed)
                   for design in ("OS-ELM-L2", "ELM") for seed in (0, 1, 12, 15)]
FIRST_EPISODES, SECOND_EPISODES, SECOND_SEED_OFFSET = 12, 15, 1000


def curve_payload(result) -> dict:
    """Exact (bit-preserving) serialization of one training result."""
    return {
        "design": result.design,
        "solved": result.solved,
        "episodes": result.episodes,
        "episodes_to_solve": result.episodes_to_solve,
        "weight_resets": result.weight_resets,
        "steps": [r.steps for r in result.curve.records],
        "shaped_return": [r.shaped_return.hex() for r in result.curve.records],
        "moving_average": [r.moving_average.hex() for r in result.curve.records],
        "operation_counts": dict(sorted(result.operation_counts.items())),
    }


def main() -> None:
    design, n_hidden, max_episodes, seed = DQN_CASE
    agent = make_design(design, n_hidden=n_hidden, seed=seed)
    result = Trainer().fit(agent, config=TrainingConfig(max_episodes=max_episodes,
                                                        seed=seed), n_hidden=n_hidden)
    dqn = {"design": design, "n_hidden": n_hidden, "max_episodes": max_episodes,
           "seed": seed, "train_steps": agent.train_steps,
           "result": curve_payload(result)}

    continued = []
    for design, n_hidden, seed in CONTINUED_CASES:
        agent = make_design(design, n_hidden=n_hidden, seed=seed)
        Trainer().fit(agent, config=TrainingConfig(
            max_episodes=FIRST_EPISODES, seed=seed, stop_when_solved=False))
        result = Trainer().fit(agent, config=TrainingConfig(
            max_episodes=SECOND_EPISODES, seed=seed + SECOND_SEED_OFFSET,
            stop_when_solved=False))
        continued.append({"design": design, "n_hidden": n_hidden, "seed": seed,
                          "first_episodes": FIRST_EPISODES,
                          "second_episodes": SECOND_EPISODES,
                          "second_seed": seed + SECOND_SEED_OFFSET,
                          "result": curve_payload(result)})

    payload = {
        "note": "pins for tests/test_training_equivalence.py; see "
                "tests/data/generate_training_pins.py",
        "dqn": dqn,
        "continued": continued,
    }
    out = Path(__file__).with_name("pinned_training.json")
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
