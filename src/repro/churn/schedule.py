"""Declarative schedules: what goes wrong and who joins or leaves, when.

A :class:`Schedule` is an immutable list of events plus a seed for every
stochastic choice (crash victims, leave victims, Poisson counts, stochastic
crash/recover coins). It carries no simulator state, so one schedule can
drive many runs. All randomness comes from the seed through two dedicated
streams, never from the simulated process's RNG: fault events draw from
``RngFactory(seed).generator("faults")`` and churn events from
``RngFactory(seed).generator("churn")``. Attaching a schedule therefore
does not perturb the arrival/placement randomness, and a (schedule,
process-seed) pair fully determines a run.

Two event families share the schedule:

fault events (:data:`FAULT_EVENTS`)
    Bins go down and come back, capacities drop for a window, pool balls
    are shed: :class:`CrashBurst`, :class:`PeriodicOutage`,
    :class:`StochasticCrashes`, :class:`CapacityDegradation`,
    :class:`PoolShed`.
churn events (:data:`CHURN_EVENTS`)
    Bins join and leave the membership: :class:`JoinBurst`,
    :class:`LeaveBurst`, :class:`Flapping`, :class:`PoissonChurn`,
    :class:`Ramp`.

Timing convention: an event with ``at_round = t`` is applied at the *end* of
round ``t`` (observers run after the round completes), so its effects are
first visible in round ``t + 1``. An outage with ``duration = d`` ends at the
end of round ``t + d``: rounds ``t + 1 .. t + d`` are affected and round
``t + d + 1`` is the first normal one.

Leave policies (see :meth:`repro.balls.bin_array.BinArray.shrink`):
``rehash`` re-pools the removed bins' queued balls (labelled with the
current round), ``drop`` destroys them, and ``drain`` seals the bins first
(no new acceptance, FIFO service continues) and removes them once empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.balls.bin_array import SHRINK_POLICIES
from repro.errors import ConfigurationError

__all__ = [
    "BUFFER_POLICIES",
    "CHURN_EVENTS",
    "FAULT_EVENTS",
    "CapacityDegradation",
    "CrashBurst",
    "Flapping",
    "JoinBurst",
    "LeaveBurst",
    "PeriodicOutage",
    "PoissonChurn",
    "PoolShed",
    "Ramp",
    "Schedule",
    "StochasticCrashes",
]

#: Crash semantics for buffered state. ``preserved``: a crashed bin keeps
#: its queue frozen and resumes FIFO service on recovery. ``wiped``: queued
#: balls are lost at crash time (counted by the injector).
BUFFER_POLICIES = ("preserved", "wiped")


# The public validators also check AutoscalingPolicy.
def check_at_least(name: str, value: int, low: int = 1) -> None:
    if value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value}")


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")


def check_choice(name: str, value: str, allowed: tuple) -> None:
    if value not in allowed:
        raise ConfigurationError(f"{name} must be one of {allowed}, got {value!r}")


def check_bounds(min_n: int, max_n: int | None) -> None:
    check_at_least("min_n", min_n)
    if max_n is not None and max_n < min_n:
        raise ConfigurationError(f"max_n {max_n} below min_n {min_n}")


def _check_window(first_round: int, last_round: int | None) -> None:
    check_at_least("first_round", first_round)
    if last_round is not None and last_round < first_round:
        raise ConfigurationError(f"last_round {last_round} precedes first_round {first_round}")


def _check_period(period: int, name: str, length: int) -> None:
    check_at_least("period", period, 2)
    if not 1 <= length < period:
        raise ConfigurationError(
            f"{name} must be in [1, period), got {length} with period {period}"
        )


# -- fault events -------------------------------------------------------------


@dataclass(frozen=True)
class CrashBurst:
    """A one-shot outage: a random ``fraction`` of bins crashes at
    ``at_round`` and recovers ``duration`` rounds later.

    ``duration=None`` means the crashed bins never recover within the
    run (a permanent capacity loss).
    """

    at_round: int
    fraction: float
    duration: int | None = None
    buffer_policy: str = "preserved"

    def __post_init__(self) -> None:
        check_at_least("at_round", self.at_round)
        _check_fraction(self.fraction)
        if self.duration is not None:
            check_at_least("duration", self.duration)
        check_choice("buffer_policy", self.buffer_policy, BUFFER_POLICIES)


@dataclass(frozen=True)
class PeriodicOutage:
    """A recurring outage: every ``period`` rounds starting at
    ``first_round``, a fresh random ``fraction`` of bins crashes for
    ``duration`` rounds (rolling maintenance / recurring partial failures).
    """

    period: int
    duration: int
    fraction: float
    first_round: int = 1
    buffer_policy: str = "preserved"

    def __post_init__(self) -> None:
        _check_period(self.period, "duration", self.duration)
        _check_fraction(self.fraction)
        check_at_least("first_round", self.first_round)
        check_choice("buffer_policy", self.buffer_policy, BUFFER_POLICIES)


@dataclass(frozen=True)
class StochasticCrashes:
    """A seeded Markov crash/recover process per bin.

    Each round in ``[first_round, last_round]`` every up bin crashes
    with probability ``crash_prob`` and every down bin recovers with
    probability ``recover_prob``, independently. The stationary down
    fraction is ``crash_prob / (crash_prob + recover_prob)``.
    """

    crash_prob: float
    recover_prob: float
    first_round: int = 1
    last_round: int | None = None
    buffer_policy: str = "preserved"

    def __post_init__(self) -> None:
        for name in ("crash_prob", "recover_prob"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
        _check_window(self.first_round, self.last_round)
        check_choice("buffer_policy", self.buffer_policy, BUFFER_POLICIES)


@dataclass(frozen=True)
class CapacityDegradation:
    """A window during which a ``fraction`` of bins runs with a reduced
    capacity (``c`` drops for ``duration`` rounds, then the previous
    per-bin capacity is restored).

    Existing queue contents are never truncated — an over-full bin simply
    stops accepting until it drains below the degraded capacity. A bin
    that joins mid-window and inherits less than the window's nominal
    capacity is raised to it when the window closes (see ``docs/churn.md``).
    """

    at_round: int
    duration: int
    capacity: int
    fraction: float = 1.0

    def __post_init__(self) -> None:
        check_at_least("at_round", self.at_round)
        check_at_least("duration", self.duration)
        check_at_least("degraded capacity", self.capacity)
        _check_fraction(self.fraction)


@dataclass(frozen=True)
class PoolShed:
    """Shed the *youngest* ``fraction`` of the pool at ``at_round`` (an
    admission-control shed or a lossy network hiccup).

    Shedding youngest-first keeps the balls already owed service and the
    oldest-first acceptance analysis intact.
    """

    at_round: int
    fraction: float

    def __post_init__(self) -> None:
        check_at_least("at_round", self.at_round)
        _check_fraction(self.fraction)


# -- churn events -------------------------------------------------------------


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
        check_at_least("at_round", self.at_round)
        check_at_least("count", self.count)
        if self.capacity is not None:
            check_at_least("capacity", self.capacity)


@dataclass(frozen=True)
class LeaveBurst:
    """A random ``fraction`` of live bins leaves at the end of ``at_round``.

    Exactly one of ``fraction`` and ``count`` must be given. The victims
    are chosen uniformly from the *current* membership by the schedule's
    churn stream. ``policy`` decides the fate of their queued balls; with
    ``drain`` the victims are sealed at ``at_round`` and removed once their
    queues empty (at most ``c`` rounds later).
    """

    at_round: int
    fraction: float | None = None
    count: int | None = None
    policy: str = "rehash"

    def __post_init__(self) -> None:
        check_at_least("at_round", self.at_round)
        if (self.fraction is None) == (self.count is None):
            raise ConfigurationError("give exactly one of fraction or count")
        if self.fraction is not None:
            _check_fraction(self.fraction)
        if self.count is not None:
            check_at_least("count", self.count)
        check_choice("policy", self.policy, SHRINK_POLICIES)


@dataclass(frozen=True)
class Flapping:
    """Bins that repeatedly leave and rejoin (an unstable rack).

    Every ``period`` rounds starting at ``first_round``, ``count`` random
    bins leave (with ``policy``); ``count`` replacements join
    ``down_rounds`` later. ``last_round`` bounds the flapping window
    (``None`` = the whole run); departures after ``last_round`` do not
    fire, but a rejoin scheduled before it still lands.
    """

    first_round: int
    period: int
    down_rounds: int
    count: int = 1
    policy: str = "rehash"
    last_round: int | None = None

    def __post_init__(self) -> None:
        _check_window(self.first_round, self.last_round)
        _check_period(self.period, "down_rounds", self.down_rounds)
        check_at_least("count", self.count)
        check_choice("policy", self.policy, SHRINK_POLICIES)


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
        _check_window(self.first_round, self.last_round)
        check_choice("policy", self.policy, SHRINK_POLICIES)


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
        check_at_least("start_round", self.start_round)
        if self.end_round <= self.start_round:
            raise ConfigurationError(
                f"end_round {self.end_round} must be > start_round {self.start_round}"
            )
        check_at_least("target_n", self.target_n)
        check_choice("policy", self.policy, SHRINK_POLICIES)


FAULT_EVENTS = (CrashBurst, PeriodicOutage, StochasticCrashes, CapacityDegradation, PoolShed)
CHURN_EVENTS = (JoinBurst, LeaveBurst, Flapping, PoissonChurn, Ramp)


@dataclass(frozen=True)
class Schedule:
    """An immutable list of fault and churn events plus the seed and bounds.

    ``min_n``/``max_n`` clamp every membership change the schedule makes:
    a leave that would push n below ``min_n`` is truncated, a join above
    ``max_n`` likewise.
    """

    events: tuple = field(default_factory=tuple)
    seed: int = 0
    min_n: int = 1
    max_n: int | None = None

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FAULT_EVENTS + CHURN_EVENTS):
                raise ConfigurationError(f"unknown event type: {type(event).__name__}")
        object.__setattr__(self, "events", events)
        check_bounds(self.min_n, self.max_n)

    def __bool__(self) -> bool:
        return bool(self.events)
