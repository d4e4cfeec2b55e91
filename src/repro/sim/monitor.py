"""Measurement monitors.

:class:`TimeSeriesMonitor` records ``(time, value)`` samples and computes
simple summary statistics; the MAC statistics layer keeps its per-frame
sizes and subframe counts in it.
"""

from __future__ import annotations

import math
from typing import List, Tuple


class TimeSeriesMonitor:
    """Records explicit ``(time, value)`` observations."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append an observation."""
        self.samples.append((time, value))

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self.samples)

    @property
    def values(self) -> List[float]:
        """The observed values, in recording order."""
        return [v for _, v in self.samples]

    def mean(self) -> float:
        """Arithmetic mean of the observed values (0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.values) / len(self.samples)

    def total(self) -> float:
        """Sum of the observed values."""
        return sum(self.values)

    def minimum(self) -> float:
        """Smallest observed value (NaN when empty)."""
        return min(self.values) if self.samples else math.nan

    def maximum(self) -> float:
        """Largest observed value (NaN when empty)."""
        return max(self.values) if self.samples else math.nan

    def stddev(self) -> float:
        """Population standard deviation of the observed values."""
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / len(self.samples))
