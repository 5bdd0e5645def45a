"""Tests for task definitions (repro.circuits)."""

import pytest

from repro.circuits import (
    CircuitTask,
    adder_task,
    datapath_io_timing,
    gray_to_binary_task,
    realistic_adder_task,
)
from repro.prefix import sklansky
from repro.synth import nangate45


class TestAdderTask:
    def test_synthesize_and_cost(self):
        task = adder_task(8, 0.66)
        result = task.synthesize(sklansky(8))
        assert task.cost(result) > 0

    def test_width_mismatch_rejected(self):
        task = adder_task(8, 0.5)
        with pytest.raises(ValueError):
            task.synthesize(sklansky(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitTask("bad", n=1, delay_weight=0.5)
        with pytest.raises(ValueError):
            CircuitTask("bad", n=8, delay_weight=1.5)
        with pytest.raises(ValueError):
            CircuitTask("bad", n=8, delay_weight=0.5, circuit_type="multiplier")

    def test_cost_scales_with_omega(self):
        result = adder_task(8, 0.5).synthesize(sklansky(8))
        low = adder_task(8, 0.05).cost(result)
        high = adder_task(8, 0.95).cost(result)
        # Same circuit, different omega -> different scalar costs.
        assert low != high


class TestDatapathTiming:
    @pytest.mark.parametrize("profile", ["late-msb", "late-lsb", "bowl"])
    def test_profiles_cover_all_bits(self, profile):
        timing = datapath_io_timing(8, profile)
        for i in range(8):
            assert f"a[{i}]" in timing.input_arrival
            assert f"s[{i}]" in timing.output_margin
        assert "cout" in timing.output_margin

    def test_late_msb_shape(self):
        timing = datapath_io_timing(8, "late-msb", skew_ns=0.2)
        assert timing.arrival("a[7]") == pytest.approx(0.2)
        assert timing.arrival("a[0]") == pytest.approx(0.0)

    def test_late_lsb_is_mirror(self):
        msb = datapath_io_timing(8, "late-msb")
        lsb = datapath_io_timing(8, "late-lsb")
        assert msb.arrival("a[7]") == pytest.approx(lsb.arrival("a[0]"))

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            datapath_io_timing(8, "zigzag")

    def test_realistic_task_uses_8nm(self):
        task = realistic_adder_task(n=16)
        assert task.library.name.startswith("scaled")
        assert task.io_timing.input_arrival  # nonuniform

    def test_timing_affects_synthesis(self):
        flat = adder_task(16, 0.6)
        skewed = CircuitTask(
            "skewed", n=16, delay_weight=0.6,
            library=nangate45(), io_timing=datapath_io_timing(16, "late-msb", 0.3),
        )
        g = sklansky(16)
        assert skewed.synthesize(g).delay_ns > flat.synthesize(g).delay_ns


class TestGrayTask:
    def test_defaults_match_paper(self):
        task = gray_to_binary_task()
        assert task.n == 26
        assert task.delay_weight == 0.6
        assert task.circuit_type == "gray"

    def test_synthesizes(self):
        task = gray_to_binary_task(n=8)
        result = task.synthesize(sklansky(8))
        assert result.cell_counts == {"XOR2": result.num_gates} or "BUF" in result.cell_counts
