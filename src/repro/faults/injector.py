"""The fault injector: applies a :class:`~repro.faults.schedule.FaultSchedule`
to a live simulator through the observer pipeline.

The injector implements the engine's :class:`~repro.engine.observers.Observer`
protocol — ``on_round(record, process)`` — so it plugs into
:class:`~repro.engine.driver.SimulationDriver` without touching any simulator
inner loop. Observers fire at the end of round ``t``, so an event scheduled
``at_round = t`` first affects round ``t + 1``.

An adapter translates schedule events into mutations of a ball process
(anything exposing a ``bins`` :class:`~repro.balls.bin_array.BinArray` and an
age ``pool``): bins go down/up, capacities change, pool balls are shed.

Determinism: all stochastic choices come from a dedicated RNG stream derived
from ``schedule.seed`` (``RngFactory(seed).generator("faults")``), never from
the process's own RNG, so the same (schedule, process-seed) pair reproduces a
faulty run exactly and the fault-free trajectory is unchanged by merely
attaching an injector with an empty schedule.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.schedule import (
    CapacityDegradation,
    CrashBurst,
    FaultSchedule,
    PeriodicOutage,
    RequestDrop,
    StochasticCrashes,
)
from repro.rng import RngFactory
from repro.telemetry.runtime import current as _telemetry_current

__all__ = ["FaultInjector"]


class _BallProcessAdapter:
    """Mutates a CAPPED-style process: ``bins`` is a BinArray, ``pool`` an AgePool."""

    def __init__(self, process: Any) -> None:
        self.bins = process.bins
        self.pool = process.pool

    @property
    def n(self) -> int:
        return self.bins.n

    def down_mask(self) -> np.ndarray:
        return self.bins.down

    def crash(self, indices: np.ndarray, wipe: bool) -> int:
        return self.bins.set_down(indices, wipe=wipe)

    def recover(self, indices: np.ndarray) -> None:
        self.bins.set_up(indices)

    def get_capacity(self, indices: np.ndarray) -> np.ndarray:
        return self.bins.capacity_of(indices)

    def set_capacity(self, indices: np.ndarray, values) -> None:
        self.bins.set_capacity(values, indices=indices)

    def shed(self, fraction: float) -> int:
        """Drop the youngest ``fraction`` of the pool; returns the count."""
        to_drop = int(fraction * self.pool.size)
        remaining = to_drop
        # Youngest first: iterate the age buckets from the newest label.
        for label, count in zip(reversed(self.pool.labels()), reversed(self.pool.counts())):
            if remaining <= 0:
                break
            take = min(count, remaining)
            self.pool.remove(label, take)
            remaining -= take
        return to_drop - remaining


class FaultInjector:
    """Observer that applies a fault schedule to the observed process.

    Attach it to a driver (``SimulationDriver(..., observers=[injector])``).
    The first ``on_round`` call binds the injector to that process; reuse
    across processes is an error (build one injector per run).

    Attributes
    ----------
    crashes / recoveries:
        Total crash and recovery transitions applied.
    balls_lost:
        Balls destroyed by wiped buffers.
    requests_dropped:
        Pool balls shed by :class:`RequestDrop` events.
    down_rounds:
        Sum over rounds of the number of entities down (entity-rounds of
        outage actually imposed).
    events_log:
        ``(round, description)`` tuples for every applied action.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ConfigurationError(
                f"schedule must be a FaultSchedule, got {type(schedule).__name__}"
            )
        self.schedule = schedule
        self._rng = RngFactory(schedule.seed).generator("faults")
        self._adapter = None
        self._process = None
        # index -> recovery round (None = no scheduled recovery).
        self._down: dict[int, int | None] = {}
        # Subset of down entities whose recovery is governed by a
        # StochasticCrashes coin rather than a scheduled round.
        self._stochastic_down: set[int] = set()
        # Pending capacity restorations: (restore_round, indices, saved values).
        self._restores: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.crashes = 0
        self.recoveries = 0
        self.balls_lost = 0
        self.requests_dropped = 0
        self.down_rounds = 0
        self.events_log: list[tuple[int, str]] = []

    @property
    def down_count(self) -> int:
        """Entities currently down."""
        return len(self._down)

    @property
    def all_clear(self) -> bool:
        """True when no entity is down and no restoration is pending."""
        return not self._down and not self._restores

    def _bind(self, process: Any):
        if self._adapter is not None:
            if process is not self._process:
                raise ConfigurationError(
                    "a FaultInjector is bound to one process; build one per run"
                )
            return self._adapter
        if not (hasattr(process, "bins") and hasattr(process, "pool")):
            raise ConfigurationError(
                f"don't know how to inject faults into {type(process).__name__}: "
                "expected a ball process (bins + pool)"
            )
        self._adapter = _BallProcessAdapter(process)
        self._process = process
        return self._adapter

    def _note(self, t: int, description: str, action: str) -> None:
        """Record one applied fault action in the log (and telemetry)."""
        self.events_log.append((t, description))
        tel = _telemetry_current()
        if tel is not None:
            tel.inc("fault_events_total", action=action)
            tel.emit({"type": "fault", "round": t, "action": action, "description": description})

    def get_state(self) -> dict:
        """Checkpoint the injector's mutable mid-schedule state.

        The schedule itself is immutable configuration; what must survive a
        restore is the *position* within it: which entities are down (and
        when they recover), which are under stochastic-recovery coins,
        pending capacity restorations, the fault RNG stream, the counters,
        and the event log. With these restored, a resumed run applies the
        exact same remaining faults as an uninterrupted one.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "down": [[index, recover] for index, recover in sorted(self._down.items())],
            "stochastic_down": sorted(self._stochastic_down),
            "restores": [
                [restore_round, indices.tolist(), saved.tolist()]
                for restore_round, indices, saved in self._restores
            ],
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "balls_lost": self.balls_lost,
            "requests_dropped": self.requests_dropped,
            "down_rounds": self.down_rounds,
            "events_log": [[t, description] for t, description in self.events_log],
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state`.

        The injector may be restored before or after binding: the adapter
        is rebuilt lazily on the next ``on_round``, and the down/degraded
        masks it mutates live in the process's own checkpointed state.
        """
        self._rng.bit_generator.state = state["rng"]
        self._down = {
            int(index): (None if recover is None else int(recover))
            for index, recover in state["down"]
        }
        self._stochastic_down = {int(index) for index in state["stochastic_down"]}
        self._restores = [
            (
                int(restore_round),
                np.asarray(indices, dtype=np.int64),
                np.asarray(saved, dtype=np.int64),
            )
            for restore_round, indices, saved in state["restores"]
        ]
        self.crashes = int(state["crashes"])
        self.recoveries = int(state["recoveries"])
        self.balls_lost = int(state["balls_lost"])
        self.requests_dropped = int(state["requests_dropped"])
        self.down_rounds = int(state["down_rounds"])
        self.events_log = [(int(t), str(description)) for t, description in state["events_log"]]

    def remap_entities(self, mapping) -> None:
        """Rewrite per-entity bookkeeping after a membership compaction.

        Churn (``repro.churn``) removes entities by index, compacting the
        survivors; ``mapping[old_index]`` gives the new index (``-1`` =
        removed). Mutating observers broadcast this after every shrink.
        Removed entities simply drop out of the down map / stochastic set /
        pending restorations — their outage ended with their membership.
        Aggregate counters are history and stay untouched.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        self._down = {
            int(mapping[index]): recover
            for index, recover in self._down.items()
            if mapping[index] >= 0
        }
        self._stochastic_down = {
            int(mapping[index]) for index in self._stochastic_down if mapping[index] >= 0
        }
        restores = []
        for restore_round, indices, saved in self._restores:
            new_indices = mapping[indices]
            keep = new_indices >= 0
            if keep.any():
                restores.append((restore_round, new_indices[keep], saved[keep]))
        self._restores = restores

    # -- event application -------------------------------------------------

    def _pick_up_entities(self, adapter, fraction: float) -> np.ndarray:
        """Choose a random ``fraction`` of currently-up entities (at least one)."""
        up = np.flatnonzero(~adapter.down_mask())
        if up.size == 0:
            return up
        count = min(up.size, max(1, round(fraction * adapter.n)))
        return np.sort(self._rng.choice(up, size=count, replace=False))

    def _crash(
        self,
        adapter,
        t: int,
        indices: np.ndarray,
        wipe: bool,
        recover_round: int | None,
        stochastic: bool,
    ) -> None:
        if indices.size == 0:
            return
        lost = adapter.crash(indices, wipe=wipe)
        self.balls_lost += lost
        self.crashes += int(indices.size)
        for index in indices:
            self._down[int(index)] = recover_round
            if stochastic:
                self._stochastic_down.add(int(index))
        policy = "wiped" if wipe else "preserved"
        until = f" until {recover_round}" if recover_round is not None else ""
        self._note(t, f"crash {indices.size} ({policy}, lost {lost}){until}", "crash")

    def _recover(self, adapter, t: int, indices: np.ndarray) -> None:
        if indices.size == 0:
            return
        adapter.recover(indices)
        self.recoveries += int(indices.size)
        for index in indices:
            self._down.pop(int(index), None)
            self._stochastic_down.discard(int(index))
        self._note(t, f"recover {indices.size}", "recover")

    def on_round(self, record, process: Any) -> None:
        adapter = self._bind(process)
        t = record.round

        # 1. Restore capacity degradations expiring now.
        if self._restores:
            due = [r for r in self._restores if r[0] == t]
            if due:
                self._restores = [r for r in self._restores if r[0] != t]
                for _, indices, saved in due:
                    adapter.set_capacity(indices, saved)
                    self._note(t, f"restore capacity of {indices.size}", "restore")

        # 2. Scheduled recoveries due now.
        due_up = np.asarray(sorted(i for i, r in self._down.items() if r == t), dtype=np.int64)
        self._recover(adapter, t, due_up)

        # 3. Scheduled events firing now.
        for event in self.schedule.events:
            if isinstance(event, CrashBurst):
                if event.at_round == t:
                    victims = self._pick_up_entities(adapter, event.fraction)
                    recover_round = t + event.duration if event.duration is not None else None
                    self._crash(
                        adapter,
                        t,
                        victims,
                        event.buffer_policy == "wiped",
                        recover_round,
                        stochastic=False,
                    )
            elif isinstance(event, PeriodicOutage):
                if t >= event.first_round and (t - event.first_round) % event.period == 0:
                    victims = self._pick_up_entities(adapter, event.fraction)
                    self._crash(
                        adapter,
                        t,
                        victims,
                        event.buffer_policy == "wiped",
                        t + event.duration,
                        stochastic=False,
                    )
            elif isinstance(event, CapacityDegradation):
                if event.at_round == t:
                    if event.fraction >= 1.0:
                        indices = np.arange(adapter.n, dtype=np.int64)
                    else:
                        count = max(1, round(event.fraction * adapter.n))
                        indices = np.sort(self._rng.choice(adapter.n, size=count, replace=False))
                    saved = adapter.get_capacity(indices)
                    adapter.set_capacity(indices, event.capacity)
                    self._restores.append((t + event.duration, indices, saved))
                    self._note(
                        t, f"degrade capacity of {indices.size} to {event.capacity}", "degrade"
                    )
            elif isinstance(event, RequestDrop):
                if event.at_round == t:
                    dropped = adapter.shed(event.fraction)
                    self.requests_dropped += dropped
                    self._note(t, f"drop {dropped} pending", "drop")
            elif isinstance(event, StochasticCrashes):
                if t >= event.first_round and (event.last_round is None or t <= event.last_round):
                    down_mask = adapter.down_mask()
                    up = np.flatnonzero(~down_mask)
                    if up.size:
                        coins = self._rng.random(up.size)
                        victims = up[coins < event.crash_prob]
                        self._crash(
                            adapter,
                            t,
                            victims,
                            event.buffer_policy == "wiped",
                            None,
                            stochastic=True,
                        )
                    if self._stochastic_down:
                        candidates = np.asarray(sorted(self._stochastic_down), dtype=np.int64)
                        coins = self._rng.random(candidates.size)
                        self._recover(adapter, t, candidates[coins < event.recover_prob])

        self.down_rounds += len(self._down)
