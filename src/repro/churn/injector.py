"""The churn injector: applies a :class:`~repro.churn.schedule.ChurnSchedule`
to a live simulator through the observer pipeline.

Like :class:`~repro.faults.FaultInjector`, the injector implements the
engine's ``on_round(record, process)`` observer protocol, binds lazily to a
ball process (anything exposing ``grow_bins``/``shrink_bins``), and draws
every stochastic choice (leave victims, Poisson counts) from a dedicated RNG
stream (``RngFactory(seed).generator("churn")``) so the simulated process's
own randomness is untouched.

Index remapping
---------------
Removing bins *compacts* indices: bin ``j > i`` becomes ``j - 1`` when bin
``i`` leaves. Any observer holding per-entity bookkeeping (a FaultInjector's
down map, this injector's own pending-drain groups) goes stale at that
moment. Mutating observers therefore maintain a listener list: after every
shrink they build the old→new index mapping (``-1`` = removed) and call
``remap_entities(mapping)`` on each registered listener.
:meth:`repro.churn.scenario.ChaosScenario.build_observers` wires this
automatically; wire it by hand when composing injectors yourself.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.churn.schedule import (
    ChurnSchedule,
    Flapping,
    JoinBurst,
    LeaveBurst,
    PoissonChurn,
    Ramp,
)
from repro.errors import ConfigurationError
from repro.rng import RngFactory
from repro.telemetry.runtime import current as _telemetry_current

__all__ = ["ChurnInjector", "removal_mapping"]


def removal_mapping(old_n: int, removed: np.ndarray) -> np.ndarray:
    """Old→new index mapping after removing ``removed`` from ``old_n`` entities.

    ``mapping[i]`` is the post-compaction index of old entity ``i``, or
    ``-1`` if it was removed. Pass this to ``remap_entities`` on every
    observer holding per-entity state.
    """
    mapping = np.full(old_n, -1, dtype=np.int64)
    keep = np.ones(old_n, dtype=bool)
    keep[removed] = False
    mapping[keep] = np.arange(old_n - len(removed), dtype=np.int64)
    return mapping


class _BallChurnAdapter:
    """Resizes a CAPPED-style process (``grow_bins``/``shrink_bins``)."""

    def __init__(self, process: Any) -> None:
        self.process = process

    @property
    def n(self) -> int:
        return self.process.bins.n

    def draining_mask(self) -> np.ndarray:
        return self.process.bins.draining

    def loads_of(self, indices: np.ndarray) -> np.ndarray:
        return self.process.bins.loads[indices]

    def join(self, count: int, capacity=None) -> np.ndarray:
        return self.process.grow_bins(count, capacity=capacity)

    def leave(self, indices: np.ndarray, policy: str) -> int:
        return self.process.shrink_bins(indices, policy=policy)

    def seal(self, indices: np.ndarray) -> None:
        self.process.seal_bins(indices)

    def capacity_scalar(self) -> int | None:
        """Shared scalar capacity, or None when unbounded/heterogeneous."""
        capacity = self.process.bins.capacity
        return capacity if isinstance(capacity, int) else None

    def capacity_total(self) -> int | None:
        """Total buffer slots across the pool (None when unbounded)."""
        capacity = self.process.bins.capacity
        if capacity is None:
            return None
        if isinstance(capacity, int):
            return capacity * self.n
        return int(np.asarray(capacity).sum())

    def set_capacity_all(self, value: int) -> None:
        self.process.bins.set_capacity(value)


def bind_membership_adapter(process: Any):
    """Adapter for the membership surface (``grow_bins``/``shrink_bins``) of ``process``."""
    if not (hasattr(process, "grow_bins") and hasattr(process, "shrink_bins")):
        raise ConfigurationError(
            f"don't know how to churn {type(process).__name__}: expected a ball "
            "process (grow_bins/shrink_bins)"
        )
    return _BallChurnAdapter(process)


class _MembershipMutator:
    """Shared listener plumbing for observers that resize the entity set."""

    def __init__(self) -> None:
        self._remap_listeners: list[Any] = []

    def add_remap_listener(self, listener: Any) -> None:
        """Register an observer to notify (``remap_entities``) after shrinks."""
        if listener is self:
            raise ConfigurationError("an observer cannot be its own remap listener")
        if listener not in self._remap_listeners:
            self._remap_listeners.append(listener)

    def _broadcast_remap(self, mapping: np.ndarray) -> None:
        for listener in self._remap_listeners:
            listener.remap_entities(mapping)


class ChurnInjector(_MembershipMutator):
    """Observer that applies a churn schedule to the observed process.

    Attach it to a driver alongside (before) any
    :class:`~repro.faults.FaultInjector`; see
    :class:`~repro.churn.scenario.ChaosScenario` for the standard wiring.

    Attributes
    ----------
    joins / leaves:
        Entities added and removed so far.
    balls_rehashed / balls_dropped:
        Displaced queue contents re-pooled (``rehash``) or destroyed
        (``drop``) by leave events.
    events_log:
        ``(round, description)`` tuples for every applied action.
    """

    def __init__(self, schedule: ChurnSchedule) -> None:
        super().__init__()
        if not isinstance(schedule, ChurnSchedule):
            raise ConfigurationError(
                f"schedule must be a ChurnSchedule, got {type(schedule).__name__}"
            )
        self.schedule = schedule
        self._rng = RngFactory(schedule.seed).generator("churn")
        self._adapter = None
        self._process = None
        # Sealed bins awaiting empty queues, one array per drain-policy
        # leave event (current index space; remapped on every shrink).
        self._pending_drain: list[np.ndarray] = []
        # Flapping rejoins not yet landed: (rejoin_round, count).
        self._rejoins: list[tuple[int, int]] = []
        # Ramp events key their base membership by position in the events
        # tuple, captured the round the ramp starts.
        self._ramp_base: dict[int, int] = {}
        self.joins = 0
        self.leaves = 0
        self.balls_rehashed = 0
        self.balls_dropped = 0
        self.events_log: list[tuple[int, str]] = []

    def _bind(self, process: Any):
        if self._adapter is not None:
            if process is not self._process:
                raise ConfigurationError(
                    "a ChurnInjector is bound to one process; build one per run"
                )
            return self._adapter
        self._adapter = bind_membership_adapter(process)
        self._process = process
        return self._adapter

    def _note(self, t: int, description: str, action: str) -> None:
        self.events_log.append((t, description))
        tel = _telemetry_current()
        if tel is not None:
            tel.inc("churn_events_total", action=action)
            tel.emit({"type": "churn", "round": t, "action": action, "description": description})

    # -- membership state shared with other observers -----------------------

    def remap_entities(self, mapping: np.ndarray) -> None:
        """Rewrite pending-drain groups after someone else shrank the pool."""
        mapping = np.asarray(mapping, dtype=np.int64)
        remapped = []
        for group in self._pending_drain:
            new = mapping[group]
            new = new[new >= 0]
            if new.size:
                remapped.append(new)
        self._pending_drain = remapped

    # -- clamps against schedule bounds -------------------------------------

    def _clamp_join(self, n: int, count: int) -> int:
        if self.schedule.max_n is not None:
            count = min(count, self.schedule.max_n - n)
        return max(count, 0)

    def _clamp_leave(self, n: int, count: int) -> int:
        # Bins already draining are committed departures: budget them
        # against min_n too so a drain plus a follow-up leave cannot
        # jointly undershoot the floor.
        committed = int(sum(group.size for group in self._pending_drain))
        return max(0, min(count, n - committed - self.schedule.min_n))

    # -- primitive membership changes ---------------------------------------

    def _join(self, adapter, t: int, count: int, capacity, reason: str) -> None:
        count = self._clamp_join(adapter.n, count)
        if count <= 0:
            return
        adapter.join(count, capacity=capacity)
        self.joins += count
        self._note(t, f"join {count} ({reason}) -> n={adapter.n}", "join")
        tel = _telemetry_current()
        if tel is not None:
            tel.set_gauge("membership_n", adapter.n)

    def _pick_victims(self, adapter, count: int) -> np.ndarray:
        """Uniform victims among bins not already committed to draining."""
        eligible = np.flatnonzero(~adapter.draining_mask())
        count = min(count, eligible.size)
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._rng.choice(eligible, size=count, replace=False))

    def _leave(self, adapter, t: int, indices: np.ndarray, policy: str, reason: str) -> None:
        if indices.size == 0:
            return
        if policy == "drain":
            adapter.seal(indices)
            self._pending_drain.append(np.asarray(indices, dtype=np.int64))
            self._note(t, f"seal {indices.size} for drain ({reason})", "seal")
            return
        old_n = adapter.n
        displaced = adapter.leave(indices, policy)
        self._broadcast_and_remap(removal_mapping(old_n, indices))
        self.leaves += int(indices.size)
        if policy == "rehash":
            self.balls_rehashed += displaced
        else:
            self.balls_dropped += displaced
        self._note(
            t,
            f"leave {indices.size} ({policy}, displaced {displaced}, {reason}) -> n={adapter.n}",
            "leave",
        )
        tel = _telemetry_current()
        if tel is not None:
            tel.set_gauge("membership_n", adapter.n)
            if policy == "rehash" and displaced:
                tel.inc("balls_rehashed_total", displaced)

    def _broadcast_and_remap(self, mapping: np.ndarray) -> None:
        """Fix our own index bookkeeping, then every registered listener's."""
        self.remap_entities(mapping)
        self._broadcast_remap(mapping)

    def _finish_drains(self, adapter, t: int) -> None:
        """Remove sealed bins whose queues have emptied.

        Drain groups are disjoint (victims are never picked among already-
        draining bins), so every empty sealed bin across all groups leaves
        in one compaction and one remap broadcast.
        """
        still_pending: list[np.ndarray] = []
        ready_parts: list[np.ndarray] = []
        for group in self._pending_drain:
            empty = adapter.loads_of(group) == 0
            if empty.any():
                ready_parts.append(group[empty])
            if not empty.all():
                still_pending.append(group[~empty])
        if not ready_parts:
            return
        self._pending_drain = still_pending
        ready = np.sort(np.concatenate(ready_parts))
        old_n = adapter.n
        adapter.leave(ready, "drain")
        self._broadcast_and_remap(removal_mapping(old_n, ready))
        self.leaves += int(ready.size)
        self._note(t, f"drain complete for {ready.size} -> n={adapter.n}", "leave")
        tel = _telemetry_current()
        if tel is not None:
            tel.set_gauge("membership_n", adapter.n)

    # -- checkpointing ------------------------------------------------------

    def get_state(self) -> dict:
        """Checkpoint the injector's mid-schedule position.

        The schedule is immutable configuration; the mutable state is the
        churn RNG stream, pending drains/rejoins, ramp bases, counters, and
        the log. Restored alongside the process state, a resumed run applies
        the exact same remaining churn as an uninterrupted one.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "pending_drain": [group.tolist() for group in self._pending_drain],
            "rejoins": [[t, count] for t, count in self._rejoins],
            "ramp_base": [[index, base] for index, base in sorted(self._ramp_base.items())],
            "joins": self.joins,
            "leaves": self.leaves,
            "balls_rehashed": self.balls_rehashed,
            "balls_dropped": self.balls_dropped,
            "events_log": [[t, description] for t, description in self.events_log],
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state` (binding stays lazy)."""
        self._rng.bit_generator.state = state["rng"]
        self._pending_drain = [
            np.asarray(group, dtype=np.int64) for group in state["pending_drain"]
        ]
        self._rejoins = [(int(t), int(count)) for t, count in state["rejoins"]]
        self._ramp_base = {int(index): int(base) for index, base in state["ramp_base"]}
        self.joins = int(state["joins"])
        self.leaves = int(state["leaves"])
        self.balls_rehashed = int(state["balls_rehashed"])
        self.balls_dropped = int(state["balls_dropped"])
        self.events_log = [(int(t), str(description)) for t, description in state["events_log"]]

    # -- the observer hook --------------------------------------------------

    def on_round(self, record, process: Any) -> None:
        adapter = self._bind(process)
        t = record.round

        # 1. Flapping rejoins landing now.
        due = [count for rejoin_round, count in self._rejoins if rejoin_round == t]
        if due:
            self._rejoins = [r for r in self._rejoins if r[0] != t]
            for count in due:
                self._join(adapter, t, count, None, "flap rejoin")

        # 2. Sealed bins whose queues emptied leave now.
        if self._pending_drain:
            self._finish_drains(adapter, t)

        # 3. Scheduled events firing now.
        for event_index, event in enumerate(self.schedule.events):
            if isinstance(event, JoinBurst):
                if event.at_round == t:
                    self._join(adapter, t, event.count, event.capacity, "join burst")
            elif isinstance(event, LeaveBurst):
                if event.at_round == t:
                    want = (
                        event.count
                        if event.count is not None
                        else max(1, round(event.fraction * adapter.n))
                    )
                    count = self._clamp_leave(adapter.n, want)
                    victims = self._pick_victims(adapter, count)
                    self._leave(adapter, t, victims, event.policy, "leave burst")
            elif isinstance(event, Flapping):
                last = event.last_round
                if (
                    t >= event.first_round
                    and (last is None or t <= last)
                    and (t - event.first_round) % event.period == 0
                ):
                    count = self._clamp_leave(adapter.n, event.count)
                    victims = self._pick_victims(adapter, count)
                    if victims.size:
                        self._leave(adapter, t, victims, event.policy, "flap leave")
                        self._rejoins.append((t + event.down_rounds, int(victims.size)))
            elif isinstance(event, PoissonChurn):
                if t >= event.first_round and (
                    event.last_round is None or t <= event.last_round
                ):
                    # Fixed draw order (joins, leaves, victims) keeps the
                    # stream deterministic regardless of clamping.
                    join_count = (
                        int(self._rng.poisson(event.join_rate)) if event.join_rate else 0
                    )
                    leave_count = (
                        int(self._rng.poisson(event.leave_rate)) if event.leave_rate else 0
                    )
                    if join_count:
                        self._join(adapter, t, join_count, None, "poisson")
                    if leave_count:
                        count = self._clamp_leave(adapter.n, leave_count)
                        victims = self._pick_victims(adapter, count)
                        self._leave(adapter, t, victims, event.policy, "poisson")
            elif isinstance(event, Ramp):
                if event.start_round <= t <= event.end_round:
                    base = self._ramp_base.setdefault(event_index, adapter.n)
                    span = event.end_round - event.start_round
                    desired = round(
                        base + (event.target_n - base) * (t - event.start_round) / span
                    )
                    delta = int(desired) - adapter.n
                    if delta > 0:
                        self._join(adapter, t, delta, None, "ramp")
                    elif delta < 0:
                        count = self._clamp_leave(adapter.n, -delta)
                        victims = self._pick_victims(adapter, count)
                        self._leave(adapter, t, victims, event.policy, "ramp")
