"""The injector: applies :class:`~repro.churn.schedule.Schedule` events to a
live process through the observer pipeline.

:class:`Injector` implements the engine's ``on_round(record, process)``
observer protocol, so it plugs into
:class:`~repro.engine.driver.SimulationDriver` without touching any
simulator inner loop. It binds lazily to a ball process — anything exposing
a ``bins`` :class:`~repro.balls.bin_array.BinArray`, an age ``pool`` and
``grow_bins``/``shrink_bins``/``seal_bins`` — and mutates it directly: bins
go down and up, capacities change, pool balls are shed, bins join and leave.

Each round applies churn first (flapping rejoins, finished drains, churn
events), then faults (capacity restorations, due recoveries, fault events),
so fault bookkeeping always reads the round's final membership.

Index remapping
---------------
Removing bins *compacts* indices: bin ``j > i`` becomes ``j - 1`` when bin
``i`` leaves. The injector rewrites its own per-bin bookkeeping (down map,
pending restorations and drains) after every shrink it makes; a resize made
by someone else (an :class:`~repro.churn.autoscale.Autoscaler`) reaches it
through :meth:`Injector.remap_entities` and :meth:`Injector.bins_joined`.
:meth:`repro.churn.scenario.ChaosScenario.build_observers` wires this.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.churn.schedule import (
    CHURN_EVENTS,
    FAULT_EVENTS,
    CapacityDegradation,
    CrashBurst,
    Flapping,
    JoinBurst,
    LeaveBurst,
    PeriodicOutage,
    PoissonChurn,
    PoolShed,
    Ramp,
    Schedule,
    StochasticCrashes,
)
from repro.errors import CheckpointIncompatible, ConfigurationError
from repro.rng import RngFactory
from repro.telemetry.runtime import current as _telemetry_current

__all__ = ["Injector", "removal_mapping"]

_COUNTERS = (
    "crashes",
    "recoveries",
    "balls_lost",
    "balls_shed",
    "down_rounds",
    "joins",
    "leaves",
    "balls_rehashed",
    "balls_dropped",
)


def removal_mapping(old_n: int, removed: np.ndarray) -> np.ndarray:
    """Old→new index mapping after removing ``removed`` from ``old_n`` bins.

    ``mapping[i]`` is the post-compaction index of old bin ``i``, or ``-1``
    if it was removed. Pass this to ``remap_entities`` on every observer
    holding per-bin state.
    """
    mapping = np.full(old_n, -1, dtype=np.int64)
    keep = np.ones(old_n, dtype=bool)
    keep[removed] = False
    mapping[keep] = np.arange(old_n - len(removed), dtype=np.int64)
    return mapping


_SURFACE = ("bins", "pool", "grow_bins", "shrink_bins", "seal_bins")


def require_ball_process(process: Any) -> None:
    """Raise unless ``process`` exposes the surface injectors and autoscalers drive."""
    if not all(hasattr(process, name) for name in _SURFACE):
        raise ConfigurationError(
            f"don't know how to change the bins of {type(process).__name__}: expected a "
            "ball process (bins, pool, grow_bins/shrink_bins)"
        )


def sample_sorted(rng, eligible: np.ndarray, count: int) -> np.ndarray:
    """Up to ``count`` distinct draws from ``eligible``, sorted (no draw when none)."""
    count = min(count, eligible.size)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(eligible, size=count, replace=False))


def _active(t: int, first_round: int, last_round: int | None) -> bool:
    return t >= first_round and (last_round is None or t <= last_round)


class Injector:
    """Observer that applies one or more schedules to the observed process.

    Attach it to a driver (``SimulationDriver(..., observers=[injector])``).
    The first ``on_round`` call binds the injector to that process; reuse
    across processes is an error (build one injector per run). Each
    schedule keeps its own pair of RNG streams; membership changes are
    clamped to the tightest ``min_n``/``max_n`` of all schedules.

    Attributes
    ----------
    crashes / recoveries:
        Crash and recovery transitions applied.
    balls_lost:
        Balls destroyed by wiped buffers.
    balls_shed:
        Pool balls shed by :class:`~repro.churn.schedule.PoolShed` events.
    down_rounds:
        Sum over rounds of the number of bins down.
    joins / leaves:
        Bins added and removed.
    balls_rehashed / balls_dropped:
        Displaced queue contents re-pooled (``rehash``) or destroyed
        (``drop``) by leave events.
    events_log:
        ``(round, description)`` tuples for every applied action.
    """

    def __init__(self, *schedules: Schedule) -> None:
        for schedule in schedules:
            if not isinstance(schedule, Schedule):
                raise ConfigurationError(
                    f"schedule must be a Schedule, got {type(schedule).__name__}"
                )
        self.schedules = schedules
        self._churn_rngs = [RngFactory(s.seed).generator("churn") for s in schedules]
        self._fault_rngs = [RngFactory(s.seed).generator("faults") for s in schedules]
        streams = zip(schedules, self._churn_rngs, self._fault_rngs)
        events = [(event, churn, fault) for s, churn, fault in streams for event in s.events]
        self._churn_events = [(churn, e) for e, churn, _ in events if isinstance(e, CHURN_EVENTS)]
        self._fault_events = [(fault, e) for e, _, fault in events if isinstance(e, FAULT_EVENTS)]
        self._min_n = max((s.min_n for s in schedules), default=1)
        self._max_n = min((s.max_n for s in schedules if s.max_n is not None), default=None)
        self._process = None
        # Bin index -> recovery round (None = no scheduled recovery).
        self._down: dict[int, int | None] = {}
        # Down bins whose recovery is a StochasticCrashes coin.
        self._stochastic_down: set[int] = set()
        # Pending capacity restorations: (restore_round, indices, saved values).
        self._restores: list[tuple[int, np.ndarray, np.ndarray]] = []
        # Sealed bins awaiting empty queues, one array per drain-policy leave.
        self._pending_drain: list[np.ndarray] = []
        # Flapping rejoins not yet landed: (rejoin_round, count).
        self._rejoins: list[tuple[int, int]] = []
        # Ramp base membership, keyed by the ramp's position among the
        # churn events, captured the round the ramp starts.
        self._ramp_base: dict[int, int] = {}
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.events_log: list[tuple[int, str]] = []

    @property
    def down_count(self) -> int:
        """Bins currently down."""
        return len(self._down)

    @property
    def all_clear(self) -> bool:
        """True when no bin is down and no restoration is pending."""
        return not self._down and not self._restores

    def _bind(self, process: Any) -> None:
        if self._process is None:
            require_ball_process(process)
            self._process = process
        elif process is not self._process:
            raise ConfigurationError("an Injector is bound to one process; build one per run")

    def _note(self, t: int, kind: str, action: str, description: str, n: int | None = None) -> None:
        """Record one applied action in the log (and telemetry, with the new
        membership ``n`` when it changed)."""
        self.events_log.append((t, description))
        tel = _telemetry_current()
        if tel is not None:
            tel.inc(f"{kind}_events_total", action=action)
            tel.emit({"type": kind, "round": t, "action": action, "description": description})
            if n is not None:
                tel.set_gauge("membership_n", n)

    # -- checkpointing ------------------------------------------------------

    def get_state(self) -> dict:
        """Checkpoint the injector's position inside its (immutable) schedules:
        with it restored, a resumed run applies the same remaining events."""
        return {
            "rngs": [
                [churn.bit_generator.state, fault.bit_generator.state]
                for churn, fault in zip(self._churn_rngs, self._fault_rngs)
            ],
            "down": [[index, recover] for index, recover in sorted(self._down.items())],
            "stochastic_down": sorted(self._stochastic_down),
            "restores": [
                [restore_round, indices.tolist(), saved.tolist()]
                for restore_round, indices, saved in self._restores
            ],
            "pending_drain": [group.tolist() for group in self._pending_drain],
            "rejoins": [[t, count] for t, count in self._rejoins],
            "ramp_base": [[index, base] for index, base in sorted(self._ramp_base.items())],
            **{name: getattr(self, name) for name in _COUNTERS},
            "events_log": [[t, description] for t, description in self.events_log],
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state`.

        Binding stays lazy, and the down/degraded/draining masks live in
        the process's own checkpointed state. A snapshot of another layout
        — including one written by the separate fault and churn injectors
        of earlier versions — raises
        :class:`~repro.errors.CheckpointIncompatible`.
        """
        missing = self.get_state().keys() - state.keys()
        if missing or len(state["rngs"]) != len(self.schedules):
            raise CheckpointIncompatible(
                "injector state does not match this injector "
                f"(missing keys {sorted(missing)}, {len(self.schedules)} schedules); "
                "snapshots from the separate fault/churn injectors of older versions "
                "cannot resume: delete the checkpoint directory to start afresh"
            )
        for churn, fault, (churn_state, fault_state) in zip(
            self._churn_rngs, self._fault_rngs, state["rngs"]
        ):
            churn.bit_generator.state = churn_state
            fault.bit_generator.state = fault_state
        self._down = {int(i): None if r is None else int(r) for i, r in state["down"]}
        self._stochastic_down = {int(index) for index in state["stochastic_down"]}
        self._restores = [
            (int(due), np.asarray(indices, dtype=np.int64), np.asarray(saved, dtype=np.int64))
            for due, indices, saved in state["restores"]
        ]
        self._pending_drain = [np.asarray(g, dtype=np.int64) for g in state["pending_drain"]]
        self._rejoins = [(int(t), int(count)) for t, count in state["rejoins"]]
        self._ramp_base = {int(index): int(base) for index, base in state["ramp_base"]}
        for name in _COUNTERS:
            setattr(self, name, int(state[name]))
        self.events_log = [(int(t), str(description)) for t, description in state["events_log"]]

    def remap_entities(self, mapping) -> None:
        """Rewrite per-bin bookkeeping after a membership compaction.

        ``mapping[old_index]`` gives the new index (``-1`` = removed).
        Removed bins drop out of the down map, the stochastic set, pending
        restorations and drain groups — their outage ended with their
        membership. Counters are history and stay untouched.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        self._down = {int(mapping[i]): r for i, r in self._down.items() if mapping[i] >= 0}
        self._stochastic_down = {int(mapping[i]) for i in self._stochastic_down if mapping[i] >= 0}
        self._restores = [
            (due, mapping[indices][keep], saved[keep])
            for due, indices, saved in self._restores
            if (keep := mapping[indices] >= 0).any()
        ]
        groups = [mapping[group] for group in self._pending_drain]
        self._pending_drain = [group[group >= 0] for group in groups if (group >= 0).any()]

    def bins_joined(self, bins, added: np.ndarray) -> None:
        """Note bins that just joined with an inherited capacity.

        A joiner inherits the capacity of the bins around it, which is the
        degraded one while a :class:`~repro.churn.schedule.CapacityDegradation`
        window covers them all. Each pending restoration whose nominal
        capacity (the largest it saved) exceeds the inherited one lifts the
        joiners to it when the window closes.
        """
        if not self._restores:
            return
        inherited = int(bins.capacity_of(added[:1])[0])
        restores = []
        for due, indices, saved in self._restores:
            nominal = saved.max()
            if inherited < nominal:
                indices = np.concatenate([indices, added])
                saved = np.concatenate([saved, np.full(added.size, nominal)])
            restores.append((due, indices, saved))
        self._restores = restores

    # -- membership changes -------------------------------------------------

    def _join(self, process: Any, t: int, count: int, capacity, reason: str) -> None:
        if self._max_n is not None:
            count = min(count, self._max_n - process.bins.n)
        if count <= 0:
            return
        added = process.grow_bins(count, capacity=capacity)
        if capacity is None:
            self.bins_joined(process.bins, added)
        self.joins += count
        n = process.bins.n
        self._note(t, "churn", "join", f"join {count} ({reason}) -> n={n}", n)

    def _leave_victims(self, rng, process: Any, count: int) -> np.ndarray:
        """Uniform victims among bins not already committed to draining."""
        # Draining bins are committed departures: budget them against min_n
        # too, so a drain plus a follow-up leave cannot undershoot the floor.
        committed = int(sum(group.size for group in self._pending_drain))
        count = min(count, process.bins.n - committed - self._min_n)
        return sample_sorted(rng, np.flatnonzero(~process.bins.draining), count)

    def _shrink(self, process: Any, indices: np.ndarray, policy: str) -> int:
        old_n = process.bins.n
        displaced = process.shrink_bins(indices, policy=policy)
        self.remap_entities(removal_mapping(old_n, indices))
        self.leaves += int(indices.size)
        return displaced

    def _leave(self, process: Any, t: int, indices: np.ndarray, policy: str, reason: str) -> None:
        if indices.size == 0:
            return
        if policy == "drain":
            process.seal_bins(indices)
            self._pending_drain.append(np.asarray(indices, dtype=np.int64))
            self._note(t, "churn", "seal", f"seal {indices.size} for drain ({reason})")
            return
        displaced = self._shrink(process, indices, policy)
        if policy == "rehash":
            self.balls_rehashed += displaced
        else:
            self.balls_dropped += displaced
        n = process.bins.n
        description = f"leave {indices.size} ({policy}, displaced {displaced}, {reason}) -> n={n}"
        self._note(t, "churn", "leave", description, n)
        tel = _telemetry_current()
        if tel is not None and policy == "rehash" and displaced:
            tel.inc("balls_rehashed_total", displaced)

    def _finish_drains(self, process: Any, t: int) -> None:
        """Remove every sealed bin whose queue has emptied, in one compaction
        (drain groups are disjoint: victims are never draining bins)."""
        still_pending: list[np.ndarray] = []
        ready_parts: list[np.ndarray] = []
        for group in self._pending_drain:
            empty = process.bins.loads[group] == 0
            if empty.any():
                ready_parts.append(group[empty])
            if not empty.all():
                still_pending.append(group[~empty])
        if not ready_parts:
            return
        self._pending_drain = still_pending
        ready = np.sort(np.concatenate(ready_parts))
        self._shrink(process, ready, "drain")
        n = process.bins.n
        self._note(t, "churn", "leave", f"drain complete for {ready.size} -> n={n}", n)

    def _apply_churn(self, process: Any, t: int, index: int, rng, event) -> None:
        if isinstance(event, JoinBurst):
            if event.at_round == t:
                self._join(process, t, event.count, event.capacity, "join burst")
        elif isinstance(event, LeaveBurst):
            if event.at_round == t:
                want = (
                    event.count
                    if event.count is not None
                    else max(1, round(event.fraction * process.bins.n))
                )
                victims = self._leave_victims(rng, process, want)
                self._leave(process, t, victims, event.policy, "leave burst")
        elif isinstance(event, Flapping):
            first = event.first_round
            if _active(t, first, event.last_round) and (t - first) % event.period == 0:
                victims = self._leave_victims(rng, process, event.count)
                if victims.size:
                    self._leave(process, t, victims, event.policy, "flap leave")
                    self._rejoins.append((t + event.down_rounds, int(victims.size)))
        elif isinstance(event, PoissonChurn):
            if _active(t, event.first_round, event.last_round):
                # Fixed draw order (joins, leaves, victims) keeps the
                # stream deterministic regardless of clamping.
                joins = int(rng.poisson(event.join_rate)) if event.join_rate else 0
                leaves = int(rng.poisson(event.leave_rate)) if event.leave_rate else 0
                if joins:
                    self._join(process, t, joins, None, "poisson")
                if leaves:
                    victims = self._leave_victims(rng, process, leaves)
                    self._leave(process, t, victims, event.policy, "poisson")
        elif isinstance(event, Ramp):
            if event.start_round <= t <= event.end_round:
                base = self._ramp_base.setdefault(index, process.bins.n)
                span = event.end_round - event.start_round
                desired = round(base + (event.target_n - base) * (t - event.start_round) / span)
                delta = int(desired) - process.bins.n
                if delta > 0:
                    self._join(process, t, delta, None, "ramp")
                elif delta < 0:
                    victims = self._leave_victims(rng, process, -delta)
                    self._leave(process, t, victims, event.policy, "ramp")

    # -- faults ---------------------------------------------------------------

    def _pick_up(self, rng, process: Any, fraction: float) -> np.ndarray:
        """Choose a random ``fraction`` of currently-up bins (at least one)."""
        count = max(1, round(fraction * process.bins.n))
        return sample_sorted(rng, np.flatnonzero(~process.bins.down), count)

    def _crash(self, process, t, indices, buffer_policy, recover_round, stochastic=False) -> None:
        if indices.size == 0:
            return
        lost = process.bins.set_down(indices, wipe=buffer_policy == "wiped")
        self.balls_lost += lost
        self.crashes += int(indices.size)
        for index in indices:
            self._down[int(index)] = recover_round
            if stochastic:
                self._stochastic_down.add(int(index))
        until = f" until {recover_round}" if recover_round is not None else ""
        self._note(
            t, "fault", "crash", f"crash {indices.size} ({buffer_policy}, lost {lost}){until}"
        )

    def _recover(self, process: Any, t: int, indices: np.ndarray) -> None:
        if indices.size == 0:
            return
        process.bins.set_up(indices)
        self.recoveries += int(indices.size)
        for index in indices:
            self._down.pop(int(index), None)
            self._stochastic_down.discard(int(index))
        self._note(t, "fault", "recover", f"recover {indices.size}")

    def _shed(self, pool, fraction: float) -> int:
        """Shed the youngest ``fraction`` of the pool; returns the count."""
        to_shed = int(fraction * pool.size)
        remaining = to_shed
        for label, count in zip(reversed(pool.labels()), reversed(pool.counts())):
            if remaining <= 0:
                break
            take = min(count, remaining)
            pool.remove(label, take)
            remaining -= take
        return to_shed - remaining

    def _apply_fault(self, process: Any, t: int, rng, event) -> None:
        bins = process.bins
        if isinstance(event, CrashBurst):
            if event.at_round == t:
                recover_round = t + event.duration if event.duration is not None else None
                victims = self._pick_up(rng, process, event.fraction)
                self._crash(process, t, victims, event.buffer_policy, recover_round)
        elif isinstance(event, PeriodicOutage):
            if t >= event.first_round and (t - event.first_round) % event.period == 0:
                victims = self._pick_up(rng, process, event.fraction)
                self._crash(process, t, victims, event.buffer_policy, t + event.duration)
        elif isinstance(event, CapacityDegradation):
            if event.at_round == t:
                if event.fraction >= 1.0:
                    indices = np.arange(bins.n, dtype=np.int64)
                else:
                    count = max(1, round(event.fraction * bins.n))
                    indices = np.sort(rng.choice(bins.n, size=count, replace=False))
                saved = bins.capacity_of(indices)
                bins.set_capacity(event.capacity, indices=indices)
                self._restores.append((t + event.duration, indices, saved))
                description = f"degrade capacity of {indices.size} to {event.capacity}"
                self._note(t, "fault", "degrade", description)
        elif isinstance(event, PoolShed):
            if event.at_round == t:
                shed = self._shed(process.pool, event.fraction)
                self.balls_shed += shed
                self._note(t, "fault", "shed", f"shed {shed} pool balls")
        elif isinstance(event, StochasticCrashes):
            if _active(t, event.first_round, event.last_round):
                up = np.flatnonzero(~bins.down)
                if up.size:
                    coins = rng.random(up.size)
                    victims = up[coins < event.crash_prob]
                    self._crash(process, t, victims, event.buffer_policy, None, stochastic=True)
                if self._stochastic_down:
                    candidates = np.asarray(sorted(self._stochastic_down), dtype=np.int64)
                    coins = rng.random(candidates.size)
                    self._recover(process, t, candidates[coins < event.recover_prob])

    # -- the observer hook ----------------------------------------------------

    def on_round(self, record, process: Any) -> None:
        self._bind(process)
        t = record.round

        # Churn: flapping rejoins landing now, finished drains, churn events.
        due = [count for rejoin_round, count in self._rejoins if rejoin_round == t]
        if due:
            self._rejoins = [r for r in self._rejoins if r[0] != t]
            for count in due:
                self._join(process, t, count, None, "flap rejoin")
        if self._pending_drain:
            self._finish_drains(process, t)
        for index, (rng, event) in enumerate(self._churn_events):
            self._apply_churn(process, t, index, rng, event)

        # Faults: capacity restorations due now, scheduled recoveries, fault events.
        due_restores = [r for r in self._restores if r[0] == t]
        if due_restores:
            self._restores = [r for r in self._restores if r[0] != t]
            for _, indices, saved in due_restores:
                process.bins.set_capacity(saved, indices=indices)
                self._note(t, "fault", "restore", f"restore capacity of {indices.size}")
        due_up = np.asarray(sorted(i for i, r in self._down.items() if r == t), dtype=np.int64)
        self._recover(process, t, due_up)
        for rng, event in self._fault_events:
            self._apply_fault(process, t, rng, event)

        self.down_rounds += len(self._down)
