"""FPGA-accelerated OS-ELM: the paper's design (7).

:class:`FPGAAcceleratedOSELM` is a drop-in replacement for
:class:`~repro.core.os_elm.OSELM` whose prediction and sequential training
run on the fixed-point :class:`~repro.fpga.core_sim.FixedPointOSELMCore`
(programmable logic) while the initial training stays in floating point
(CPU), exactly mirroring Figure 3's partitioning.  The core counts its own
invocations (``core.predict_invocations`` / ``core.seq_train_invocations``);
the FPGA bars of Figures 5 and 6 come from the agent's operation counts,
projected through :class:`~repro.fpga.platform.PynqZ1Platform`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.os_elm import OSELM
from repro.core.regularization import RegularizationConfig
from repro.fixedpoint.qformat import Q20, QFormat
from repro.fpga.core_sim import FixedPointOSELMCore
from repro.fpga.device import FPGADevice, XC7Z020
from repro.fpga.resources import OSELMCoreResourceModel
from repro.fpga.timing import CortexA9LatencyModel, FPGACoreLatencyModel


class FPGAAcceleratedOSELM(OSELM):
    """OS-ELM whose predict / seq_train run on the fixed-point FPGA core model.

    Parameters
    ----------
    n_inputs, n_hidden, n_outputs:
        Network dimensions.
    activation, regularization, rng, seed:
        As for :class:`~repro.core.os_elm.OSELM` (the FPGA design uses the
        OS-ELM-L2-Lipschitz configuration).
    qformat:
        Fixed-point word format of the core (32-bit Q20 by default).
    device:
        Target FPGA device; the constructor verifies that the design fits
        (mirroring Table 3's observation that 256 hidden units do not).
    clock_mhz:
        Programmable-logic clock (125 MHz in the paper).
    check_resources:
        Set to False to skip the fit check (useful for what-if sweeps).
    """

    def __init__(self, n_inputs: int, n_hidden: int, n_outputs: int = 1, *,
                 activation: str = "relu",
                 regularization: RegularizationConfig = RegularizationConfig(),
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None,
                 qformat: QFormat = Q20,
                 device: FPGADevice = XC7Z020,
                 clock_mhz: float = 125.0,
                 check_resources: bool = True) -> None:
        super().__init__(n_inputs, n_hidden, n_outputs, activation=activation,
                         regularization=regularization, rng=rng, seed=seed)
        self.qformat = qformat
        self.device = device
        self.resource_model = OSELMCoreResourceModel(n_inputs=n_inputs,
                                                     n_outputs=n_outputs,
                                                     qformat=qformat)
        if check_resources:
            self.resource_model.check_fit(n_hidden, device)
        self.core = FixedPointOSELMCore(n_inputs, n_hidden, n_outputs,
                                        activation=activation, qformat=qformat)
        self.pl_latency = FPGACoreLatencyModel(clock_hz=clock_mhz * 1e6)
        self.cpu_latency = CortexA9LatencyModel()
        self.core.load_weights(self.alpha, self.bias)

    # ------------------------------------------------------------------ state management
    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        super().reset(rng)
        # ``reset`` is called from ELM.__init__ indirectly only through agents;
        # the core exists only after __init__ completed.
        if hasattr(self, "core"):
            self.core = FixedPointOSELMCore(self.n_inputs, self.n_hidden, self.n_outputs,
                                            activation=self.activation.name,
                                            qformat=self.qformat)
            self.core.load_weights(self.alpha, self.bias)

    @property
    def is_fitted(self) -> bool:
        return self.core.ready if hasattr(self, "core") else super().is_fitted

    @property
    def is_initialized(self) -> bool:
        return self.core.ready

    # ------------------------------------------------------------------ row hooks
    # The public OS-ELM methods validate and then land here, so prediction
    # and sequential training run on the fixed-point core whichever entry
    # point (model, Q-function or agent) they came through.
    def _init_rows(self, x0: np.ndarray, t0: np.ndarray) -> None:
        """Initial training in floating point on the CPU, then quantized into BRAM."""
        super()._init_rows(x0, t0)
        self.core.load_initial_state(self._recursive.p, self._recursive.beta)

    def _update_rows(self, x: np.ndarray, t: np.ndarray) -> None:
        """Sequential training on the fixed-point core, one row per core invocation."""
        for row in range(x.shape[0]):
            self.core.seq_train(x[row], t[row])
        # Mirror the quantized state into the float attributes so diagnostics
        # (beta norm, Lipschitz bound, target-network snapshots) see the same
        # weights the hardware would produce.
        self.beta = self.core.beta.to_float()
        if self._recursive is not None:
            self._recursive.beta = self.beta.copy()
            self._recursive.p = self.core.p.to_float()

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """Prediction on the fixed-point core, one row per core invocation."""
        outputs = np.empty((rows.shape[0], self.n_outputs))
        for row in range(rows.shape[0]):
            outputs[row] = self.core.predict(rows[row])[0]
        return outputs

    def _predict_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The core predicts one row at a time, so stacking changes nothing."""
        rows = self._predict_rows(blocks.reshape(-1, blocks.shape[-1]))
        return rows.reshape(blocks.shape[0], blocks.shape[1], self.n_outputs)

    # ------------------------------------------------------------------ diagnostics
    def quantization_report(self) -> dict:
        """Divergence between the fixed-point state and the float recursive state."""
        if self._recursive is None or not self.core.ready:
            return {"beta_max_abs_error": 0.0, "p_max_abs_error": 0.0}
        return self.core.compare_against(self._recursive.beta, self._recursive.p)

    def resource_utilization(self) -> dict:
        """Percent utilization of the target device for this design's hidden size."""
        return self.resource_model.utilization(self.n_hidden, self.device).utilization_percent

    def modelled_speedup_vs_cpu(self) -> float:
        """Ratio of Cortex-A9 to PL latency for one sequential update."""
        cpu = self.cpu_latency.seq_train(self.n_hidden, self.n_outputs).seconds
        pl = self.pl_latency.seq_train(self.n_hidden, self.n_outputs).seconds
        return cpu / pl
