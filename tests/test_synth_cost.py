"""Tests for the scalar cost function (repro.synth.cost)."""

import pytest

from repro.prefix import ripple_carry, sklansky
from repro.synth import cost_from_metrics, nangate45, synthesize


def test_formula_matches_paper_units():
    # omega * 10 * delay_ns + (1 - omega) * area_um2 / 100
    assert cost_from_metrics(area_um2=500, delay_ns=0.4, delay_weight=0.33) == pytest.approx(
        0.33 * 4.0 + 0.67 * 5.0
    )


def test_extremes_isolate_objectives():
    assert cost_from_metrics(100, 1.0, 0.0) == pytest.approx(1.0)  # pure area
    assert cost_from_metrics(100, 1.0, 1.0) == pytest.approx(10.0)  # pure delay


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        cost_from_metrics(1, 1, -0.1)
    with pytest.raises(ValueError):
        cost_from_metrics(1, 1, 1.5)


def test_omega_sweep_changes_winner():
    """Low omega favours ripple (area), high omega favours Sklansky (delay)
    — the trade-off that makes the omega sweep meaningful."""
    lib = nangate45()
    ripple = synthesize(ripple_carry(32), lib)
    skl = synthesize(sklansky(32), lib)

    def cost(result, omega):
        return cost_from_metrics(result.area_um2, result.delay_ns, omega)

    assert cost(ripple, 0.05) < cost(skl, 0.05)
    assert cost(skl, 0.95) < cost(ripple, 0.95)
