"""Tests for the FPGA platform models (device, resources, timing, core, accelerator)."""

import numpy as np
import pytest

from repro.api.reports import ExecutionTimeResult, project_timing
from repro.core.os_elm import OSELM
from repro.core.regularization import RegularizationConfig
from repro.fpga.accelerator import FPGAAcceleratedOSELM
from repro.fpga.core_sim import FixedPointOSELMCore
from repro.fpga.device import PYNQ_Z1, XC7Z020, FPGADevice, ResourceVector
from repro.fpga.platform import PynqZ1Platform
from repro.fpga.resources import (
    TABLE3_PAPER_VALUES,
    OSELMCoreResourceModel,
)
from repro.fpga.timing import CortexA9LatencyModel, FPGACoreLatencyModel
from repro.fixedpoint.qformat import QFormat
from repro.training import TrainingCurve, TrainingResult
from repro.utils.exceptions import NotFittedError, ResourceExhaustedError


class TestDevice:
    def test_xc7z020_capacities(self):
        cap = XC7Z020.capacity
        assert cap.bram_36k == 140
        assert cap.dsp == 220
        assert cap.ff == 106_400
        assert cap.lut == 53_200

    def test_pynq_z1_table1(self):
        summary = PYNQ_Z1.summary()
        assert "650MHz" in summary["CPU"]
        assert summary["RAM"] == "512MB"
        assert PYNQ_Z1.pl_clock_mhz == 125.0

    def test_resource_vector_arithmetic(self):
        a = ResourceVector(bram_36k=10, dsp=2, ff=100, lut=200)
        b = ResourceVector(bram_36k=5, dsp=2, ff=50, lut=100)
        total = a + b
        assert total.bram_36k == 15 and total.lut == 300
        assert a.scaled(2.0).ff == 200

    def test_utilization_percentages(self):
        used = ResourceVector(bram_36k=70, dsp=22, ff=10_640, lut=5_320)
        util = XC7Z020.utilization(used)
        assert util["BRAM"] == pytest.approx(50.0)
        assert util["DSP"] == pytest.approx(10.0)
        assert util["FF"] == pytest.approx(10.0)
        assert util["LUT"] == pytest.approx(10.0)

    def test_check_fit_raises(self):
        huge = ResourceVector(bram_36k=1000)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            XC7Z020.check_fit(huge)
        assert excinfo.value.resource == "BRAM"

    def test_fits_in(self):
        assert ResourceVector(bram_36k=1).fits_in(XC7Z020.capacity)
        assert not ResourceVector(dsp=10_000).fits_in(XC7Z020.capacity)


class TestResourceModel:
    def test_table3_shape_reproduced(self):
        """Qualitative Table 3 behaviour: BRAM grows quadratically, DSP constant,
        192 units fit, 256 units do not."""
        model = OSELMCoreResourceModel()
        report = model.report()
        by_units = {row.n_hidden: row for row in report.rows}
        assert by_units[32].fits and by_units[64].fits
        assert by_units[128].fits and by_units[192].fits
        assert not by_units[256].fits
        assert report.largest_fitting == 192
        # DSP utilization is independent of the hidden-layer size.
        dsp = {row.utilization_percent["DSP"] for row in report.rows}
        assert len(dsp) == 1
        # BRAM grows superlinearly.
        assert by_units[128].utilization_percent["BRAM"] > 3 * by_units[64].utilization_percent["BRAM"]

    def test_bram_matches_paper_within_tolerance(self):
        model = OSELMCoreResourceModel()
        for n_hidden, paper in TABLE3_PAPER_VALUES.items():
            if paper is None:
                continue
            modelled = model.utilization(n_hidden).utilization_percent["BRAM"]
            assert modelled == pytest.approx(paper["BRAM"], rel=0.15), n_hidden

    def test_dsp_matches_paper(self):
        model = OSELMCoreResourceModel()
        assert model.utilization(64).utilization_percent["DSP"] == pytest.approx(1.82, abs=0.05)

    def test_check_fit_raises_for_256(self):
        with pytest.raises(ResourceExhaustedError):
            OSELMCoreResourceModel().check_fit(256)

    def test_max_hidden_units(self):
        max_units = OSELMCoreResourceModel().max_hidden_units()
        assert 192 <= max_units < 256

    def test_wider_words_use_more_bram(self):
        narrow = OSELMCoreResourceModel(qformat=QFormat(16, 8))
        wide = OSELMCoreResourceModel(qformat=QFormat(32, 20))
        assert narrow.bram_blocks(128) < wide.bram_blocks(128)

    def test_invalid_hidden_size(self):
        with pytest.raises(ValueError):
            OSELMCoreResourceModel().bram_bits(0)

    def test_report_row_lookup(self):
        report = OSELMCoreResourceModel().report()
        assert report.row_for(64).n_hidden == 64
        with pytest.raises(KeyError):
            report.row_for(1000)


class TestTimingModels:
    def test_fpga_seq_train_cycles_scale_quadratically(self):
        model = FPGACoreLatencyModel()
        c64 = model.seq_train_cycles(64)
        c128 = model.seq_train_cycles(128)
        assert 3.0 < c128 / c64 < 4.5

    def test_fpga_predict_cycles_scale_linearly(self):
        model = FPGACoreLatencyModel()
        assert model.predict_cycles(5, 128) < 3 * model.predict_cycles(5, 64)

    def test_fpga_latency_uses_clock(self):
        fast = FPGACoreLatencyModel(clock_hz=250e6, invocation_overhead_seconds=0.0)
        slow = FPGACoreLatencyModel(clock_hz=125e6, invocation_overhead_seconds=0.0)
        assert fast.seq_train(64).seconds == pytest.approx(slow.seq_train(64).seconds / 2)

    def test_cpu_seq_train_slower_than_fpga(self):
        """The central claim of Figure 5: the PL core beats the Cortex-A9 on seq_train."""
        cpu = CortexA9LatencyModel()
        pl = FPGACoreLatencyModel()
        for n_hidden in (32, 64, 128, 192):
            assert cpu.seq_train(n_hidden).seconds > pl.seq_train(n_hidden).seconds

    def test_dqn_train_slower_than_oselm_seq_train(self):
        """DQN's backprop minibatch step costs more than one OS-ELM update (same width)."""
        cpu = CortexA9LatencyModel()
        for n_hidden in (32, 64, 128):
            assert cpu.dqn_train(4, n_hidden, 2).seconds > cpu.seq_train(n_hidden).seconds

    def test_latency_increases_with_hidden_size(self):
        cpu = CortexA9LatencyModel()
        times = [cpu.seq_train(n).seconds for n in (32, 64, 128, 192)]
        assert times == sorted(times)

    def test_throughput_helper(self):
        model = FPGACoreLatencyModel()
        assert model.throughput_updates_per_second(64) == pytest.approx(
            1.0 / model.seq_train(64).seconds)

    def test_cycles_summary(self):
        summary = FPGACoreLatencyModel().cycles_summary(64)
        assert set(summary) == {"predict", "seq_train"}
        assert summary["seq_train"] > summary["predict"]

    def test_validation(self):
        with pytest.raises(ValueError):
            CortexA9LatencyModel(clock_hz=0)
        with pytest.raises(ValueError):
            FPGACoreLatencyModel(clock_hz=-1)


class TestFixedPointCore:
    def _loaded_core(self, rng, n_hidden=16):
        core = FixedPointOSELMCore(5, n_hidden, 1)
        alpha = rng.uniform(0, 1, size=(5, n_hidden))
        bias = rng.uniform(0, 1, size=n_hidden)
        core.load_weights(alpha, bias)
        p0 = np.eye(n_hidden) * 0.5
        beta0 = rng.uniform(-0.5, 0.5, size=(n_hidden, 1))
        core.load_initial_state(p0, beta0)
        return core, alpha, bias, p0, beta0

    def test_requires_initialisation(self, rng):
        core = FixedPointOSELMCore(5, 8, 1)
        with pytest.raises(NotFittedError):
            core.predict(np.zeros(5))
        core.load_weights(rng.uniform(0, 1, (5, 8)), rng.uniform(0, 1, 8))
        with pytest.raises(NotFittedError):
            core.seq_train(np.zeros(5), np.zeros(1))

    def test_shape_validation(self, rng):
        core = FixedPointOSELMCore(5, 8, 1)
        with pytest.raises(ValueError):
            core.load_weights(np.zeros((4, 8)), np.zeros(8))
        core.load_weights(rng.uniform(0, 1, (5, 8)), rng.uniform(0, 1, 8))
        with pytest.raises(ValueError):
            core.load_initial_state(np.eye(7), np.zeros((8, 1)))

    def test_predict_matches_float_reference(self, rng):
        core, alpha, bias, p0, beta0 = self._loaded_core(rng)
        x = rng.uniform(-1, 1, size=5)
        expected = np.maximum(x @ alpha + bias, 0.0) @ beta0
        result = core.predict(x)
        np.testing.assert_allclose(result, expected.reshape(1, 1), atol=1e-4)

    def test_seq_train_tracks_float_oselm(self, rng):
        """The fixed-point update must stay close to the float OS-ELM recursion."""
        n_hidden = 16
        reference = OSELM(5, n_hidden, 1, regularization=RegularizationConfig.l2(0.5), seed=0)
        x0 = rng.uniform(-1, 1, size=(n_hidden, 5))
        t0 = rng.uniform(-1, 1, size=(n_hidden, 1))
        reference.init_train(x0, t0)
        core = FixedPointOSELMCore(5, n_hidden, 1)
        core.load_weights(reference.alpha, reference.bias)
        core.load_initial_state(reference.p_matrix, reference.beta)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=5)
            t = rng.uniform(-1, 1, size=1)
            reference.seq_train_step(x, float(t[0]))
            core.seq_train(x, t)
        report = core.compare_against(reference.beta, reference.p_matrix)
        assert report["beta_max_abs_error"] < 1e-2
        assert report["p_max_abs_error"] < 1e-2
        assert core.seq_train_invocations == 50

    def test_memory_words(self):
        core = FixedPointOSELMCore(5, 32, 1)
        words = core.memory_words()
        assert words["P"] == 32 * 32
        assert words["alpha"] == 5 * 32

    def test_state_as_float_keys(self, rng):
        core, *_ = self._loaded_core(rng)
        state = core.state_as_float()
        assert set(state) == {"alpha", "bias", "beta", "P"}


class TestFPGAAcceleratedOSELM:
    def test_resource_check_at_construction(self):
        with pytest.raises(ResourceExhaustedError):
            FPGAAcceleratedOSELM(5, 256, 1, seed=0)
        # Skipping the check allows what-if sweeps.
        model = FPGAAcceleratedOSELM(5, 256, 1, seed=0, check_resources=False)
        assert model.n_hidden == 256

    def test_predict_and_partial_fit_flow(self, rng):
        model = FPGAAcceleratedOSELM(5, 16, 1,
                                     regularization=RegularizationConfig.l2_lipschitz(0.5),
                                     seed=0)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((1, 5)))
        x0 = rng.uniform(-1, 1, size=(16, 5))
        t0 = rng.uniform(-1, 1, size=(16, 1))
        model.init_train(x0, t0)
        assert model.is_fitted and model.is_initialized
        pred = model.predict(rng.uniform(-1, 1, size=(3, 5)))
        assert pred.shape == (3, 1)
        model.seq_train_step(rng.uniform(-1, 1, size=5), 0.3)
        assert model.core.seq_train_invocations == 1
        assert model.core.predict_invocations == 3

    def test_tracks_quantization_divergence(self, rng):
        model = FPGAAcceleratedOSELM(5, 16, 1, seed=0,
                                     regularization=RegularizationConfig.l2(0.5))
        model.init_train(rng.uniform(-1, 1, (16, 5)), rng.uniform(-1, 1, (16, 1)))
        report = model.quantization_report()
        assert report["beta_max_abs_error"] <= 1e-3

    def test_speedup_vs_cpu_positive(self):
        model = FPGAAcceleratedOSELM(5, 64, 1, seed=0)
        assert model.modelled_speedup_vs_cpu() > 1.0

    def test_resource_utilization_dict(self):
        model = FPGAAcceleratedOSELM(5, 64, 1, seed=0)
        util = model.resource_utilization()
        assert set(util) == {"BRAM", "DSP", "FF", "LUT"}

    def test_reset_reinitialises_core(self, rng):
        model = FPGAAcceleratedOSELM(5, 16, 1, seed=0)
        model.init_train(rng.uniform(-1, 1, (16, 5)), rng.uniform(-1, 1, (16, 1)))
        model.reset()
        assert not model.is_initialized


class TestPynqZ1Platform:
    def test_operation_latency_routing(self):
        platform = PynqZ1Platform()
        # seq_train on the FPGA design uses the PL model, on software designs the CPU model.
        fpga_latency = platform.operation_latency("FPGA", "seq_train", n_hidden=64)
        sw_latency = platform.operation_latency("OS-ELM-L2-Lipschitz", "seq_train", n_hidden=64)
        assert fpga_latency < sw_latency
        # init_train always runs on the CPU (Figure 3 partitioning).
        assert platform.operation_latency("FPGA", "init_train", n_hidden=64) == \
            platform.operation_latency("OS-ELM-L2", "init_train", n_hidden=64)

    def test_dqn_operations(self):
        platform = PynqZ1Platform()
        assert platform.operation_latency("DQN", "train_DQN", n_hidden=64) > \
            platform.operation_latency("DQN", "predict_1", n_hidden=64)
        assert platform.operation_latency("DQN", "predict_32", n_hidden=64) > \
            platform.operation_latency("DQN", "predict_1", n_hidden=64)

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            PynqZ1Platform().operation_latency("DQN", "backprop", n_hidden=64)

    def test_project_breakdown(self):
        platform = PynqZ1Platform()
        counts = {"seq_train": 1000, "predict_seq": 4000, "init_train": 1, "predict_init": 128}
        projected = platform.project_breakdown("OS-ELM-L2-Lipschitz", counts, n_hidden=64)
        assert list(projected) == list(counts)
        assert projected["seq_train"] == pytest.approx(
            1000 * platform.operation_latency("OS-ELM-L2-Lipschitz", "seq_train",
                                              n_hidden=64))
        # seq_train dominates for the OS-ELM designs, as Figure 5 reports.
        assert projected["seq_train"] / sum(projected.values()) > 0.4

    def test_project_skips_zero_counts(self):
        platform = PynqZ1Platform()
        projected = platform.project_breakdown("DQN", {"train_DQN": 0}, n_hidden=32)
        assert projected == {}

    def test_every_paper_label_is_priced(self):
        platform = PynqZ1Platform()
        labels = {"OS-ELM-L2-Lipschitz": ["predict_init", "predict_seq",
                                          "init_train", "seq_train"],
                  "FPGA": ["predict_init", "predict_seq", "init_train", "seq_train"],
                  "DQN": ["predict_1", "predict_32", "train_DQN"]}
        # The seven Figure 5/6 operation labels.
        assert len({label for ops in labels.values() for label in ops}) == 7
        for design, operations in labels.items():
            for operation in operations:
                assert platform.operation_latency(design, operation, n_hidden=64) > 0.0

    def test_project_breakdown_is_linear_in_counts(self):
        platform = PynqZ1Platform()
        counts = {"seq_train": 300, "predict_seq": 1200}
        single = platform.project_breakdown("FPGA", counts, n_hidden=64)
        doubled = platform.project_breakdown(
            "FPGA", {op: 2 * n for op, n in counts.items()}, n_hidden=64)
        for operation in counts:
            assert doubled[operation] == pytest.approx(2 * single[operation])

    def test_project_breakdown_adds_over_merged_counts(self):
        platform = PynqZ1Platform()
        a = {"seq_train": 10, "predict_seq": 40}
        b = {"seq_train": 5, "init_train": 1}
        merged = {op: a.get(op, 0) + b.get(op, 0) for op in {**a, **b}}
        projected_a = platform.project_breakdown("OS-ELM-L2", a, n_hidden=32)
        projected_b = platform.project_breakdown("OS-ELM-L2", b, n_hidden=32)
        projected = platform.project_breakdown("OS-ELM-L2", merged, n_hidden=32)
        for operation in merged:
            assert projected[operation] == pytest.approx(
                projected_a.get(operation, 0.0) + projected_b.get(operation, 0.0))
        # The input counts are left untouched.
        assert a == {"seq_train": 10, "predict_seq": 40}
        assert b == {"seq_train": 5, "init_train": 1}

    def test_speedup_vs_dqn(self):
        platform = PynqZ1Platform()
        result = ExecutionTimeResult()
        for design, counts in (("DQN", {"train_DQN": 100, "predict_1": 100}),
                               ("FPGA", {"seq_train": 100, "predict_seq": 100})):
            trained = TrainingResult(design, 64, True, 1, 1, 0.0, TrainingCurve(), counts)
            result.add(project_timing(trained, platform))
        assert result.speedup_vs_dqn("FPGA", 64) == pytest.approx(
            result.get("DQN", 64).modelled_total / result.get("FPGA", 64).modelled_total)
        assert result.speedup_vs_dqn("FPGA", 64) > 1.0

    def test_clock_consistency_with_spec(self):
        platform = PynqZ1Platform()
        assert platform.cpu.clock_hz == pytest.approx(PYNQ_Z1.cpu_clock_hz)
        assert platform.pl.clock_hz == pytest.approx(PYNQ_Z1.pl_clock_hz)

    def test_device_capacity_object(self):
        assert isinstance(XC7Z020, FPGADevice)
        assert XC7Z020.default_clock_hz == pytest.approx(125e6)
