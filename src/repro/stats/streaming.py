"""Streaming statistics collectors.

Simulations run for thousands of rounds and produce millions of waiting-time
observations; storing them all would dominate memory. The collectors here
maintain constant-size summaries:

* :class:`RunningStats` — Welford's online mean/variance plus min/max,
  with support for *weighted* bulk updates (the fast simulator reports an
  entire round's waiting times as per-value counts).
* :class:`Histogram` — an integer-valued histogram with automatic growth,
  exact quantiles, and merge support (waiting times are small non-negative
  integers, so this is both exact and compact).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

__all__ = ["RunningStats", "Histogram"]


class RunningStats:
    """Welford online mean/variance with weights, min, and max.

    Examples
    --------
    >>> s = RunningStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     s.add(x)
    >>> s.mean
    2.0
    >>> round(s.variance, 6)
    1.0
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> float:
        """Total weight of observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Weighted mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance with Bessel correction (0.0 for < 2 obs)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def add(self, value: float, weight: float = 1.0) -> None:
        """Record ``value`` with multiplicity ``weight``.

        Uses the standard weighted-Welford update, which is exact for
        integer weights (equivalent to ``weight`` repeated calls).
        """
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        if weight == 0:
            return
        self._count += weight
        delta = value - self._mean
        self._mean += delta * weight / self._count
        self._m2 += weight * delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_many(self, values: Iterable[float]) -> None:
        """Record each value in ``values`` with weight one."""
        for value in values:
            self.add(value)

    def get_state(self) -> dict:
        """Snapshot for checkpoint/restore (JSON-able; ±inf round-trips)."""
        return {
            "count": self._count,
            "mean": self._mean,
            "m2": self._m2,
            "min": self._min,
            "max": self._max,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state` exactly.

        The Welford accumulators are restored bit-for-bit (floats survive
        JSON via shortest-round-trip repr), so a restored collector
        continues the identical sequence of updates.
        """
        self._count = float(state["count"])
        self._mean = float(state["mean"])
        self._m2 = float(state["m2"])
        self._min = float(state["min"])
        self._max = float(state["max"])

    def merge(self, other: "RunningStats") -> None:
        """Fold another collector into this one (parallel Welford merge)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)


class Histogram:
    """Exact histogram over small non-negative integers.

    Waiting times and loads in these processes are small integers, so an
    array-backed histogram is both exact and far cheaper than sample
    storage. Bins grow on demand.
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, initial_size: int = 64) -> None:
        if initial_size < 1:
            raise ValueError(f"initial_size must be positive, got {initial_size}")
        self._counts = np.zeros(initial_size, dtype=np.int64)
        self._total = 0

    @property
    def total(self) -> int:
        """Total number of recorded observations."""
        return self._total

    def _grow_to(self, value: int) -> None:
        size = len(self._counts)
        while size <= value:
            size *= 2
        if size != len(self._counts):
            grown = np.zeros(size, dtype=np.int64)
            grown[: len(self._counts)] = self._counts
            self._counts = grown

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` observations equal to ``value``."""
        if value < 0:
            raise ValueError(f"histogram values must be non-negative, got {value}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._grow_to(value)
        self._counts[value] += count
        self._total += count

    def add_array(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-record ``counts[i]`` observations of ``values[i]``."""
        if len(values) == 0:
            return
        if np.any(values < 0) or np.any(counts < 0):
            raise ValueError("values and counts must be non-negative")
        self._grow_to(int(values.max()))
        np.add.at(self._counts, values.astype(np.int64), counts.astype(np.int64))
        self._total += int(counts.sum())

    def counts(self) -> np.ndarray:
        """The raw counts array, trimmed to the last non-zero value."""
        nonzero = np.nonzero(self._counts)[0]
        if len(nonzero) == 0:
            return np.zeros(0, dtype=np.int64)
        return self._counts[: int(nonzero[-1]) + 1].copy()

    @property
    def mean(self) -> float:
        """Mean of recorded observations (0.0 when empty)."""
        if self._total == 0:
            return 0.0
        values = np.arange(len(self._counts))
        return float((values * self._counts).sum() / self._total)

    @property
    def max(self) -> int:
        """Largest recorded value (−1 when empty)."""
        nonzero = np.nonzero(self._counts)[0]
        return int(nonzero[-1]) if len(nonzero) else -1

    @property
    def min(self) -> int:
        """Smallest recorded value (−1 when empty)."""
        nonzero = np.nonzero(self._counts)[0]
        return int(nonzero[0]) if len(nonzero) else -1

    def quantile(self, q: float) -> int:
        """Exact ``q``-quantile (inverted CDF, numpy's ``inverted_cdf``).

        Returns the smallest value whose cumulative count reaches
        ``ceil(q·total)`` (at least 1, so ``quantile(0.0)`` is the minimum).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._total == 0:
            raise ValueError("empty histogram has no quantiles")
        rank = max(1, math.ceil(q * self._total))
        cumulative = np.cumsum(self._counts)
        return int(np.searchsorted(cumulative, rank, side="left"))

    def get_state(self) -> dict:
        """Snapshot for checkpoint/restore (counts trimmed to non-zero)."""
        return {"counts": self.counts().tolist(), "total": self._total}

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state`."""
        counts = np.asarray(state["counts"], dtype=np.int64)
        size = max(len(self._counts), len(counts))
        self._counts = np.zeros(size, dtype=np.int64)
        self._counts[: len(counts)] = counts
        self._total = int(state["total"])

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one."""
        other_counts = other.counts()
        if len(other_counts) == 0:
            return
        self._grow_to(len(other_counts) - 1)
        self._counts[: len(other_counts)] += other_counts
        self._total += other.total
