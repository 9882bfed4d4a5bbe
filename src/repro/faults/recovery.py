"""Recovery-time metrics: empirical self-stabilization after a fault.

The question asked by the self-stabilizing balls-into-bins line of work is
not whether a perturbed system *eventually* returns to its stationary
behaviour (positive recurrence gives that for λ < 1) but *how fast*. This
module quantifies it: fit a **stationary band** to a pre-fault window of a
series (pool size, per-round p99 waiting time, …), then measure the
**time-to-return** — the first post-fault round from which the series stays
inside the band for a sustained stretch.

The sustain requirement matters: a draining pool can dip through the band
transiently while still carrying an age backlog, and a single in-band sample
is not recovery. The band half-width is ``max(width·std, rel_floor·|mean|,
abs_floor)`` — the floors keep near-constant pre-fault series (std ≈ 0) from
producing an unreachably thin band.

Back-of-envelope expectation for CAPPED(c, λ): a fault that builds an excess
backlog of ``B`` balls drains at roughly ``(1 − λ)·n`` balls per round once
service capacity is restored, so recovery time scales like ``B / ((1 − λ)·n)``
— linear in the outage's entity-rounds and ``1/(1 − λ)`` in the load. The
``fault_recovery`` experiment checks this qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "StationaryBand",
    "RecoveryReport",
    "stationary_band",
    "time_to_return",
    "measure_recovery",
    "measure_post_churn_recovery",
    "per_round_p99",
    "record_p99",
]


@dataclass(frozen=True)
class StationaryBand:
    """A tolerance band ``[lo, hi]`` around a pre-fault stationary mean."""

    mean: float
    std: float
    lo: float
    hi: float

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a recovery measurement on one series.

    ``recovery_index`` is an index into the analysed series (same indexing
    as ``fault_end_index``); ``None`` means the series never re-entered the
    band sustainably within the data. ``recovery_rounds`` counts rounds from
    the end of the fault window to recovery (0 = already recovered when the
    fault cleared).
    """

    band: StationaryBand
    fault_index: int
    fault_end_index: int
    peak_value: float
    peak_index: int
    recovery_index: int | None

    @property
    def recovered(self) -> bool:
        return self.recovery_index is not None

    @property
    def recovery_rounds(self) -> int | None:
        if self.recovery_index is None:
            return None
        return max(0, self.recovery_index - self.fault_end_index)


def stationary_band(
    window,
    width: float = 4.0,
    rel_floor: float = 0.05,
    abs_floor: float = 1.0,
) -> StationaryBand:
    """Fit a stationary band to a pre-fault window of a series."""
    window = np.asarray(window, dtype=float)
    if window.size < 2:
        raise ConfigurationError(
            f"need at least 2 pre-fault samples to fit a band, got {window.size}"
        )
    mean = float(window.mean())
    std = float(window.std())
    half = max(width * std, rel_floor * abs(mean), abs_floor)
    return StationaryBand(mean=mean, std=std, lo=mean - half, hi=mean + half)


def time_to_return(series, band: StationaryBand, start: int, sustain: int = 10) -> int | None:
    """First index ``i >= start`` such that ``series[i : i + sustain]`` lies
    entirely inside ``band``. ``None`` if the series never returns.

    **Partial-confirmation edge:** when the run *ends* inside the band but
    with fewer than ``sustain`` trailing in-band samples, the start of that
    trailing in-band stretch is still returned. A truncated run that has
    visibly re-entered the band should report the entry round, not
    ``None`` — the sustain requirement guards against transient dips
    *through* the band, and a run that ends inside it never dipped back
    out. (A series that ends outside the band still returns ``None``.)
    """
    series = np.asarray(series, dtype=float)
    if sustain < 1:
        raise ConfigurationError(f"sustain must be >= 1, got {sustain}")
    inside = (series >= band.lo) & (series <= band.hi)
    first = max(0, start)
    for i in range(first, series.size - sustain + 1):
        if inside[i : i + sustain].all():
            return i
    # Partially-confirmed tail: the run ended mid-sustain but in band.
    if series.size and inside[-1]:
        tail = series.size
        while tail > first and inside[tail - 1]:
            tail -= 1
        if tail < series.size:
            return tail
    return None


def measure_recovery(
    series,
    fault_index: int,
    fault_end_index: int,
    pre_window: int,
    sustain: int = 10,
    width: float = 4.0,
    rel_floor: float = 0.05,
    abs_floor: float = 1.0,
) -> RecoveryReport:
    """Measure recovery of ``series`` from a fault window.

    Parameters
    ----------
    series:
        Per-round values, one per simulated round (index = round - 1 when
        recording from round 1).
    fault_index / fault_end_index:
        Indices of the round the fault was injected and the round it
        cleared (for a one-shot burst at round ``t`` with duration ``d``
        recorded from round 1: ``t - 1`` and ``t + d - 1``).
    pre_window:
        Number of samples immediately before ``fault_index`` used to fit
        the stationary band.
    """
    series = np.asarray(series, dtype=float)
    if not 0 < fault_index <= fault_end_index < series.size:
        raise ConfigurationError(
            f"fault window [{fault_index}, {fault_end_index}] outside series of "
            f"length {series.size}"
        )
    if pre_window < 2 or pre_window > fault_index:
        raise ConfigurationError(f"pre_window must be in [2, fault_index], got {pre_window}")
    band = stationary_band(
        series[fault_index - pre_window : fault_index],
        width=width,
        rel_floor=rel_floor,
        abs_floor=abs_floor,
    )
    return _report(series, band, fault_index, fault_end_index, sustain)


def _report(series, band, fault_index: int, fault_end_index: int, sustain: int) -> RecoveryReport:
    """Peak after ``fault_index`` and sustained return to ``band`` after ``fault_end_index``."""
    scan = series[fault_index:]
    peak_offset = int(np.argmax(np.abs(scan - band.mean)))
    return RecoveryReport(
        band=band,
        fault_index=fault_index,
        fault_end_index=fault_end_index,
        peak_value=float(scan[peak_offset]),
        peak_index=fault_index + peak_offset,
        recovery_index=time_to_return(series, band, start=fault_end_index, sustain=sustain),
    )


def measure_post_churn_recovery(
    series,
    churn_index: int,
    tail_window: int,
    sustain: int = 10,
    width: float = 4.0,
    rel_floor: float = 0.05,
    abs_floor: float = 1.0,
) -> RecoveryReport:
    """Measure settling after a *membership* change (join/leave burst).

    Unlike a fault, churn permanently moves the equilibrium: after a 25%
    leave burst the pool settles around a *new* (higher) stationary level,
    so a band fitted to the pre-churn window may never be re-entered. The
    stationary band is therefore fitted to the last ``tail_window`` samples
    — the post-churn equilibrium the run actually settled into — and the
    time-to-return measures how long after ``churn_index`` the series first
    sustainably reaches that new level.

    The tail must itself have settled for the report to mean anything; the
    caller is responsible for running well past the transient (the
    ``churn_recovery`` experiment uses the final quarter of the run).
    """
    series = np.asarray(series, dtype=float)
    if not 0 < churn_index < series.size:
        raise ConfigurationError(
            f"churn_index {churn_index} outside series of length {series.size}"
        )
    if tail_window < 2 or tail_window > series.size - churn_index:
        raise ConfigurationError(
            f"tail_window must be in [2, {series.size - churn_index}], got {tail_window}"
        )
    band = stationary_band(
        series[series.size - tail_window :],
        width=width,
        rel_floor=rel_floor,
        abs_floor=abs_floor,
    )
    return _report(series, band, churn_index, churn_index, sustain)


def record_p99(record) -> float | None:
    """p99 waiting time of one RoundRecord's sparse ``(wait_values,
    wait_counts)`` histogram; None when the round finalized no waits."""
    total = int(np.sum(record.wait_counts)) if len(record.wait_counts) else 0
    if not total:
        return None
    cumulative = np.cumsum(record.wait_counts)
    rank = int(np.searchsorted(cumulative, np.ceil(0.99 * total)))
    rank = min(rank, len(record.wait_values) - 1)
    return float(record.wait_values[rank])


def per_round_p99(records) -> np.ndarray:
    """Per-round p99 waiting time from a sequence of RoundRecords.

    Rounds with no finalized waits carry the previous round's value forward
    (0.0 before the first observation) so the series stays aligned with the
    pool-size series.
    """
    out = np.zeros(len(records), dtype=float)
    last = 0.0
    for i, record in enumerate(records):
        p99 = record_p99(record)
        if p99 is not None:
            last = p99
        out[i] = last
    return out
