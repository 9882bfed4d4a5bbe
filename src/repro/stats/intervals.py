"""Confidence intervals for experiment reporting.

The experiment harness reports means over replicated runs; :func:`normal_ci`
attaches a normal-approximation confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConfidenceInterval", "normal_ci"]

# Two-sided standard-normal quantiles for common confidence levels. scipy is
# an optional dependency, so we keep a small table and interpolate.
_Z_TABLE = {
    0.80: 1.2815515655,
    0.90: 1.6448536270,
    0.95: 1.9599639845,
    0.98: 2.3263478740,
    0.99: 2.5758293035,
}


def _z_value(confidence: float) -> float:
    if confidence in _Z_TABLE:
        return _Z_TABLE[confidence]
    # Acklam-style rational approximation of the normal quantile; accurate to
    # ~1e-9 which is far beyond what a CI display needs.
    p = 1 - (1 - confidence) / 2
    if not 0.5 < p < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    # Beasley-Springer-Moro
    a = [2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637]
    b = [-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833]
    c = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ]
    y = p - 0.5
    if abs(y) < 0.42:
        r = y * y
        num = y * (((a[3] * r + a[2]) * r + a[1]) * r + a[0])
        den = (((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1
        return num / den
    r = math.log(-math.log(1 - p))
    z = c[0]
    power = 1.0
    for coef in c[1:]:
        power *= r
        z += coef * power
    return z


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A point estimate with a symmetric-or-not confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half of the interval width (useful for ± display)."""
        return (self.high - self.low) / 2

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.estimate:.4g} [{self.low:.4g}, {self.high:.4g}]"


def normal_ci(samples: np.ndarray | list[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Normal-approximation CI for the mean of ``samples``.

    With a single sample the interval degenerates to a point.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot build a confidence interval from no samples")
    mean = float(data.mean())
    if data.size == 1:
        return ConfidenceInterval(mean, mean, mean, confidence)
    sem = float(data.std(ddof=1)) / math.sqrt(data.size)
    z = _z_value(confidence)
    return ConfidenceInterval(mean, mean - z * sem, mean + z * sem, confidence)
