"""Writing a custom Trainer callback.

The unified training API (``repro.training``) drives every design — ELM
family, DQN baseline, FPGA-simulated — through one canonical episode/step
loop, and callbacks are how you observe (or lightly steer) that loop
without forking it.  This example builds an early-stopping callback that
watches the 100-episode moving average plateau, attaches it next to the
built-in progress streamer, and shows that the same callback works
unchanged on one agent (``Trainer.fit``) and on a lock-step batch.

Run it:

    python examples/custom_callback.py
"""

from __future__ import annotations

import sys

from repro.core.designs import make_design
from repro.training import (
    Callback,
    ProgressCallback,
    Trainer,
    TrainingConfig,
)


class PlateauLogger(Callback):
    """Flag trials whose moving average stopped improving.

    Demonstrates the full hook surface: per-run setup in ``on_train_start``,
    per-episode work in ``on_episode_end``, and a summary in
    ``on_train_end``.  (A real early-stopper would also shrink
    ``config.max_episodes``; callbacks observe rather than mutate the
    protocol, so stopping early is the budget's job.)
    """

    def __init__(self, patience: int = 20) -> None:
        self.patience = patience
        self.best: dict = {}
        self.since_improvement: dict = {}
        self.plateaued: set = set()

    def on_train_start(self, run) -> None:
        for trial in run.trials:
            self.best[trial.index] = float("-inf")
            self.since_improvement[trial.index] = 0

    def on_episode_end(self, trial, record) -> None:
        if record.moving_average > self.best[trial.index]:
            self.best[trial.index] = record.moving_average
            self.since_improvement[trial.index] = 0
        else:
            self.since_improvement[trial.index] += 1
            if self.since_improvement[trial.index] == self.patience:
                self.plateaued.add(trial.index)
                print(f"  [plateau] trial {trial.index} "
                      f"({trial.agent.name}) flat for {self.patience} episodes "
                      f"at avg {record.moving_average:.1f}")

    def on_train_end(self, run, results) -> None:
        flat = len(self.plateaued)
        print(f"  [plateau] {flat}/{len(results)} trials plateaued")


def main() -> int:
    config = TrainingConfig(max_episodes=80, seed=0)

    print("one agent (Trainer.fit) with a custom callback + progress streaming:")
    trainer = Trainer(callbacks=[
        PlateauLogger(patience=25),
        ProgressCallback(20, stream=sys.stdout),
    ])
    agent = make_design("OS-ELM-L2-Lipschitz", n_hidden=32, seed=0)
    result = trainer.fit(agent, config=config)
    print(f"  -> solved={result.solved} after {result.episodes} episodes\n")

    print("the same callback on a lock-step batch (DQN included):")
    agents = [make_design("OS-ELM-L2", n_hidden=32, seed=1),
              make_design("DQN", n_hidden=32, seed=2)]
    configs = [TrainingConfig(max_episodes=30, seed=1),
               TrainingConfig(max_episodes=30, seed=2)]
    results = Trainer(callbacks=[PlateauLogger(patience=25)]).fit_lockstep(
        agents, configs)     # auto strategy: generic (mixed designs)
    for res in results:
        print(f"  -> {res.design}: {res.episodes} episodes, "
              f"final avg {res.curve.final_average():.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
