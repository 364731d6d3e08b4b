"""The combined PYNQ-Z1 platform model used by the execution-time experiments.

Figure 5 compares seven designs on the same board: the six software designs
run entirely on the 650 MHz Cortex-A9, while the FPGA design offloads
``predict_seq`` and ``seq_train`` to the 125 MHz programmable logic and keeps
``init_train`` (and the pre-initialisation predictions) on the CPU.
:class:`PynqZ1Platform` knows, for every design, which latency model each
operation uses, and converts the per-operation *counts* collected during a
training run into modelled seconds per operation.  No host clock is read:
the host is not a Cortex-A9, so only modelled times compare across designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.fpga.device import PYNQ_Z1, PlatformSpec
from repro.fpga.timing import CortexA9LatencyModel, FPGACoreLatencyModel


@dataclass
class PynqZ1Platform:
    """Latency projection for the PYNQ-Z1 board.

    Parameters
    ----------
    spec:
        Board specification (clock rates, device).
    cpu / pl:
        The latency models; constructed from the spec's clocks by default.
    """

    spec: PlatformSpec = PYNQ_Z1
    cpu: CortexA9LatencyModel = field(default_factory=CortexA9LatencyModel)
    pl: FPGACoreLatencyModel = field(default_factory=FPGACoreLatencyModel)

    def __post_init__(self) -> None:
        # Keep the latency models' clocks consistent with the board spec.
        if abs(self.cpu.clock_hz - self.spec.cpu_clock_hz) > 1.0:
            self.cpu = CortexA9LatencyModel(clock_hz=self.spec.cpu_clock_hz,
                                            macs_per_cycle=self.cpu.macs_per_cycle,
                                            call_overhead_seconds=self.cpu.call_overhead_seconds)
        if abs(self.pl.clock_hz - self.spec.pl_clock_hz) > 1.0:
            self.pl = FPGACoreLatencyModel(clock_hz=self.spec.pl_clock_hz,
                                           pipeline_fill_cycles=self.pl.pipeline_fill_cycles,
                                           divide_cycles=self.pl.divide_cycles,
                                           invocation_overhead_seconds=self.pl.invocation_overhead_seconds)

    # ------------------------------------------------------------------ per-operation latency
    def operation_latency(self, design: str, operation: str, *, n_hidden: int,
                          n_inputs: int = 5, n_outputs: int = 1,
                          n_states: int = 4, n_actions: int = 2,
                          dqn_batch: int = 32, init_chunk: int = None) -> float:
        """Latency (seconds) of a single invocation of ``operation`` for ``design``.

        ``operation`` uses the Figure 5/6 labels.  For the ELM/OS-ELM designs
        prediction counts are per network evaluation (one input row); for the
        DQN design ``predict_1`` / ``predict_32`` are per forward pass of the
        respective batch size.
        """
        init_chunk = n_hidden if init_chunk is None else init_chunk
        on_fpga = design.upper() == "FPGA"
        if operation in ("predict_init", "predict_seq"):
            if on_fpga and operation == "predict_seq":
                return self.pl.predict(n_inputs, n_hidden, n_outputs).seconds
            return self.cpu.predict(n_inputs, n_hidden, n_outputs).seconds
        if operation == "seq_train":
            if on_fpga:
                return self.pl.seq_train(n_hidden, n_outputs).seconds
            return self.cpu.seq_train(n_hidden, n_outputs).seconds
        if operation == "init_train":
            return self.cpu.init_train(n_inputs, n_hidden, init_chunk, n_outputs).seconds
        if operation == "predict_1":
            return self.cpu.dqn_predict(n_states, n_hidden, n_actions, batch_size=1).seconds
        if operation == "predict_32":
            return self.cpu.dqn_predict(n_states, n_hidden, n_actions,
                                        batch_size=dqn_batch).seconds
        if operation == "train_DQN":
            return self.cpu.dqn_train(n_states, n_hidden, n_actions,
                                      batch_size=dqn_batch).seconds
        raise ValueError(f"unknown operation label {operation!r}")

    # ------------------------------------------------------------------ projection
    def project_breakdown(self, design: str, counts: Mapping[str, int], *, n_hidden: int,
                          n_inputs: int = 5, n_outputs: int = 1,
                          n_states: int = 4, n_actions: int = 2,
                          dqn_batch: int = 32) -> Dict[str, float]:
        """Convert per-operation invocation counts into modelled seconds.

        ``counts`` is typically ``TrainingResult.operation_counts`` — the
        number of network evaluations / updates each design actually needed
        to complete the task.  Operations with no invocations are left out.
        """
        projected: Dict[str, float] = {}
        for operation, count in counts.items():
            if count <= 0:
                continue
            latency = self.operation_latency(
                design, operation, n_hidden=n_hidden, n_inputs=n_inputs,
                n_outputs=n_outputs, n_states=n_states, n_actions=n_actions,
                dqn_batch=dqn_batch,
            )
            projected[operation] = float(latency * count)
        return projected

    def summary(self) -> Dict[str, object]:
        return dict(self.spec.summary())
