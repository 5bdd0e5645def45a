"""The scalar objective of the paper (Sec. 3).

``f(x) = omega * delay(x) + (1 - omega) * area(x)`` with delay measured in
nanoseconds *times 10* and area in square microns *divided by 100* — the
paper's normalization, chosen so sweeping omega in [0, 1] trades the goals
smoothly.  ``omega`` is the **delay weight**.
"""

from __future__ import annotations

__all__ = ["DELAY_SCALE", "AREA_SCALE", "cost_from_metrics"]

DELAY_SCALE = 10.0  # ns -> cost units
AREA_SCALE = 0.01  # um^2 -> cost units


def cost_from_metrics(area_um2: float, delay_ns: float, delay_weight: float) -> float:
    """Scalar cost of (area, delay) at a given delay weight omega."""
    if not 0.0 <= delay_weight <= 1.0:
        raise ValueError(f"delay weight must be in [0, 1], got {delay_weight}")
    return delay_weight * DELAY_SCALE * delay_ns + (1.0 - delay_weight) * AREA_SCALE * area_um2
