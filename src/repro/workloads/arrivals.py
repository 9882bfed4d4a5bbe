"""Arrival process implementations.

Every arrival process answers one question per round: *how many new balls
are generated?* The interface is deliberately tiny so that simulators can be
parametrised by arbitrary arrival behaviour without knowing anything about
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "BernoulliArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "AdversarialArrivals",
]


@runtime_checkable
class ArrivalProcess(Protocol):
    """Per-round ball-generation model."""

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        """Number of balls generated at the beginning of ``round_index``."""
        ...  # pragma: no cover - protocol

    @property
    def mean_rate(self) -> float:
        """Expected arrivals per round divided by n (the effective λ)."""
        ...  # pragma: no cover - protocol


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"injection rate lambda must lie in [0, 1), got {lam}")


@dataclass(frozen=True, slots=True)
class DeterministicArrivals:
    """Exactly ``λn`` balls per round — the paper's model.

    The paper assumes ``λn ∈ ℕ``; we enforce it (within floating-point
    tolerance) rather than silently rounding, because a silent round-off
    changes the effective injection rate of long runs.
    """

    n: int
    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)
        per_round = self.lam * self.n
        if abs(per_round - round(per_round)) > 1e-9:
            raise ConfigurationError(
                f"lambda*n must be an integer (paper Section II); got {self.lam}*{self.n}={per_round}"
            )

    @property
    def per_round(self) -> int:
        """The integer ``λn``."""
        return round(self.lam * self.n)

    @property
    def mean_rate(self) -> float:
        return self.lam

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        return self.per_round


@dataclass(frozen=True, slots=True)
class BernoulliArrivals:
    """Each of ``n`` generators emits one ball with probability λ.

    The probabilistic model from the paper's footnote 2: n generators with
    expected injection rate λ, i.e. Binomial(n, λ) arrivals per round.
    """

    n: int
    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)

    @property
    def mean_rate(self) -> float:
        return self.lam

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        return int(rng.binomial(self.n, self.lam))


@dataclass(frozen=True, slots=True)
class PoissonArrivals:
    """Poisson(λn) arrivals per round (Mitzenmacher's arrival model)."""

    n: int
    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)

    @property
    def mean_rate(self) -> float:
        return self.lam

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.lam * self.n))


@dataclass(frozen=True, slots=True)
class BurstyArrivals:
    """On/off bursts with a preserved long-run rate.

    Alternates ``on_rounds`` of rate ``λ_high`` with ``off_rounds`` of rate
    ``λ_low``. Useful for probing how quickly the pool drains after bursts;
    note the paper's theorems assume a constant rate, so this is a
    robustness extension, not a reproduction target.
    """

    n: int
    lam_high: float
    lam_low: float
    on_rounds: int
    off_rounds: int

    def __post_init__(self) -> None:
        _check_lambda(self.lam_low)
        if not 0.0 <= self.lam_high <= 1.0:
            raise ConfigurationError(f"lam_high must lie in [0, 1], got {self.lam_high}")
        if self.lam_high < self.lam_low:
            raise ConfigurationError("lam_high must be at least lam_low")
        if self.on_rounds < 1 or self.off_rounds < 1:
            raise ConfigurationError("on_rounds and off_rounds must be positive")

    @property
    def mean_rate(self) -> float:
        total = self.on_rounds + self.off_rounds
        return (self.lam_high * self.on_rounds + self.lam_low * self.off_rounds) / total

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        period = self.on_rounds + self.off_rounds
        phase = (round_index - 1) % period
        rate = self.lam_high if phase < self.on_rounds else self.lam_low
        return int(round(rate * self.n))


@dataclass(frozen=True, slots=True)
class AdversarialArrivals:
    """Arrivals given by an arbitrary round→count function.

    The schedule callable receives the 1-based round index and must return
    a non-negative integer. ``nominal_rate`` is reported as ``mean_rate``
    for bookkeeping only.
    """

    n: int
    schedule: Callable[[int], int]
    nominal_rate: float = 0.0

    @property
    def mean_rate(self) -> float:
        return self.nominal_rate

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        count = self.schedule(round_index)
        if count < 0:
            raise ConfigurationError(f"schedule returned negative arrivals: {count}")
        return int(count)


@dataclass(frozen=True, slots=True)
class DiurnalArrivals:
    """Sinusoidal day/night rate: λ(t) = base + amplitude·sin(2πt/period).

    A smooth non-adversarial time-varying workload for robustness studies
    — the paper's theorems assume a constant rate, so this is an extension
    model. The instantaneous rate is clamped to [0, 1].
    """

    n: int
    base: float
    amplitude: float
    period: int

    def __post_init__(self) -> None:
        _check_lambda(self.base)
        if self.amplitude < 0:
            raise ConfigurationError(f"amplitude must be non-negative, got {self.amplitude}")
        if self.period < 2:
            raise ConfigurationError(f"period must be at least 2, got {self.period}")

    @property
    def mean_rate(self) -> float:
        return self.base

    def rate_at(self, round_index: int) -> float:
        """Instantaneous rate in ``round_index`` (clamped to [0, 1])."""
        import math

        phase = 2.0 * math.pi * (round_index - 1) / self.period
        return min(1.0, max(0.0, self.base + self.amplitude * math.sin(phase)))

    def arrivals(self, round_index: int, rng: np.random.Generator) -> int:
        return int(round(self.rate_at(round_index) * self.n))
