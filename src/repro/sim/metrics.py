"""Metric primitives: percentiles and time series.

The log-bucketed latency histogram the simulator records into is
:class:`repro.obs.registry.Histogram`, the one histogram implementation
in the codebase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["TimeSeries", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a sample list."""
    if not samples:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper or ordered[lower] == ordered[upper]:
        return ordered[lower]
    weight = position - lower
    interpolated = ordered[lower] * (1.0 - weight) + ordered[upper] * weight
    # Guard against float rounding drifting outside the bracketing samples.
    return min(max(interpolated, ordered[lower]), ordered[upper])


@dataclass
class TimeSeries:
    """A named (time_ms, value) series with small helpers for reporting."""

    name: str
    points: list[tuple[int, float]] = field(default_factory=list)

    def append(self, time_ms: int, value: float) -> None:
        self.points.append((time_ms, value))

    def values(self) -> list[float]:
        return [value for _, value in self.points]

    def min(self) -> float:
        return min(self.values())

    def max(self) -> float:
        return max(self.values())

    def mean(self) -> float:
        values = self.values()
        return sum(values) / len(values)

    def __len__(self) -> int:
        return len(self.points)
