"""Declarative churn schedules: dynamic bin membership over time.

A :class:`ChurnSchedule` is the membership counterpart of
:class:`~repro.faults.schedule.FaultSchedule`: an immutable description of
*who joins and leaves when*, plus a seed for every stochastic choice (which
bins leave, how many Poisson arrivals/departures fire). Like fault
schedules, churn schedules carry no simulator state and draw all randomness
from their own seed through a dedicated RNG stream
(``RngFactory(seed).generator("churn")``) — never from the simulated
process's RNG — so attaching churn does not perturb the arrival/placement
randomness and a (schedule, process-seed) pair fully determines a run.

Timing convention matches faults: an event with ``at_round = t`` is applied
at the *end* of round ``t`` (observers fire after the round completes), so
the new membership is first visible in round ``t + 1``.

Leave policies (see :meth:`repro.balls.bin_array.BinArray.shrink`):

``rehash``
    Queued balls on removed bins re-enter the pool (labelled with the
    current round) and are re-thrown next round.
``drop``
    Queued balls are destroyed (counted by the injector).
``drain``
    Two-stage removal: the bins are *sealed* first (no new acceptance,
    FIFO service continues) and removed only once empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.balls.bin_array import SHRINK_POLICIES
from repro.errors import ConfigurationError

__all__ = [
    "JoinBurst",
    "LeaveBurst",
    "Flapping",
    "PoissonChurn",
    "Ramp",
    "ChurnEvent",
    "ChurnSchedule",
]


def _check_at_round(at_round: int) -> None:
    if at_round < 1:
        raise ConfigurationError(f"at_round must be >= 1, got {at_round}")


def _check_policy(policy: str) -> None:
    if policy not in SHRINK_POLICIES:
        raise ConfigurationError(f"policy must be one of {SHRINK_POLICIES}, got {policy!r}")


@dataclass(frozen=True)
class JoinBurst:
    """``count`` fresh empty bins join at the end of ``at_round``.

    ``capacity=None`` inherits the pool's capacity (scalar c, or the max of
    a per-bin capacity array); an explicit value gives the joiners their
    own buffer size.
    """

    at_round: int
    count: int
    capacity: int | None = None

    def __post_init__(self) -> None:
        _check_at_round(self.at_round)
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {self.capacity}")


@dataclass(frozen=True)
class LeaveBurst:
    """A random ``fraction`` of live bins leaves at the end of ``at_round``.

    Exactly one of ``fraction`` and ``count`` must be given. The victims
    are chosen uniformly from the *current* membership by the schedule's
    RNG stream. ``policy`` decides the fate of their queued balls; with
    ``drain`` the victims are sealed at ``at_round`` and removed once their
    queues empty (at most ``c`` rounds later).
    """

    at_round: int
    fraction: float | None = None
    count: int | None = None
    policy: str = "rehash"

    def __post_init__(self) -> None:
        _check_at_round(self.at_round)
        if (self.fraction is None) == (self.count is None):
            raise ConfigurationError("give exactly one of fraction or count")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.count is not None and self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        _check_policy(self.policy)


@dataclass(frozen=True)
class Flapping:
    """Nodes that repeatedly leave and rejoin (an unstable rack).

    Every ``period`` rounds starting at ``first_round``, ``count`` random
    bins leave (with ``policy``); ``count`` replacements join
    ``down_rounds`` later. Membership oscillates by ``count`` with period
    ``period``. ``last_round`` bounds the flapping window (``None`` = the
    whole run); departures after ``last_round`` do not fire, but a rejoin
    scheduled before it still lands.
    """

    first_round: int
    period: int
    down_rounds: int
    count: int = 1
    policy: str = "rehash"
    last_round: int | None = None

    def __post_init__(self) -> None:
        if self.first_round < 1:
            raise ConfigurationError(f"first_round must be >= 1, got {self.first_round}")
        if self.period < 2:
            raise ConfigurationError(f"period must be >= 2, got {self.period}")
        if not 1 <= self.down_rounds < self.period:
            raise ConfigurationError(
                f"down_rounds must be in [1, period), got {self.down_rounds} "
                f"with period {self.period}"
            )
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        _check_policy(self.policy)
        if self.last_round is not None and self.last_round < self.first_round:
            raise ConfigurationError(
                f"last_round {self.last_round} precedes first_round {self.first_round}"
            )


@dataclass(frozen=True)
class PoissonChurn:
    """Memoryless membership churn: each round in ``[first_round,
    last_round]``, ``Poisson(join_rate)`` bins join and ``Poisson(leave_rate)``
    random bins leave. Equal rates give a membership random walk around the
    starting n (clamped by the schedule's ``min_n``/``max_n``).
    """

    join_rate: float
    leave_rate: float
    first_round: int = 1
    last_round: int | None = None
    policy: str = "rehash"

    def __post_init__(self) -> None:
        if self.join_rate < 0.0 or self.leave_rate < 0.0:
            raise ConfigurationError(
                f"rates must be non-negative, got join={self.join_rate} leave={self.leave_rate}"
            )
        if self.join_rate == 0.0 and self.leave_rate == 0.0:
            raise ConfigurationError("at least one of join_rate/leave_rate must be positive")
        if self.first_round < 1:
            raise ConfigurationError(f"first_round must be >= 1, got {self.first_round}")
        if self.last_round is not None and self.last_round < self.first_round:
            raise ConfigurationError(
                f"last_round {self.last_round} precedes first_round {self.first_round}"
            )
        _check_policy(self.policy)


@dataclass(frozen=True)
class Ramp:
    """Linear membership ramp: from the live n at ``start_round`` to
    ``target_n`` at ``end_round``, adjusting every round along the way
    (a planned scale-up or blue/green drain-down).
    """

    start_round: int
    end_round: int
    target_n: int
    policy: str = "rehash"

    def __post_init__(self) -> None:
        if self.start_round < 1:
            raise ConfigurationError(f"start_round must be >= 1, got {self.start_round}")
        if self.end_round <= self.start_round:
            raise ConfigurationError(
                f"end_round {self.end_round} must be > start_round {self.start_round}"
            )
        if self.target_n < 1:
            raise ConfigurationError(f"target_n must be >= 1, got {self.target_n}")
        _check_policy(self.policy)


ChurnEvent = Union[JoinBurst, LeaveBurst, Flapping, PoissonChurn, Ramp]

_EVENT_TYPES = (JoinBurst, LeaveBurst, Flapping, PoissonChurn, Ramp)


@dataclass(frozen=True)
class ChurnSchedule:
    """An immutable list of churn events plus the injector seed and bounds.

    ``min_n``/``max_n`` clamp every membership change (schedule-driven and
    autoscaler-driven alike use their own bounds): a leave event that would
    push n below ``min_n`` is truncated, a join above ``max_n`` likewise.
    """

    events: tuple = field(default_factory=tuple)
    seed: int = 0
    min_n: int = 1
    max_n: int | None = None

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, _EVENT_TYPES):
                raise ConfigurationError(f"unknown churn event type: {type(event).__name__}")
        object.__setattr__(self, "events", events)
        if self.min_n < 1:
            raise ConfigurationError(f"min_n must be >= 1, got {self.min_n}")
        if self.max_n is not None and self.max_n < self.min_n:
            raise ConfigurationError(f"max_n {self.max_n} below min_n {self.min_n}")

    def __bool__(self) -> bool:
        return bool(self.events)
