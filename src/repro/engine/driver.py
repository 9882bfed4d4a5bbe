"""Burn-in/measurement execution of round-based processes.

:class:`SimulationDriver` is the single entry point used by examples,
benchmarks, and the experiment harness: it advances a process through a
burn-in phase (statistics discarded, observers still notified), then through
a measurement window feeding a :class:`~repro.engine.metrics.MetricsCollector`,
and returns a :class:`SimulationResult`.

Checkpointing
-------------
With ``checkpoint_dir`` set the driver durably snapshots the complete
resumable state every ``checkpoint_every`` rounds (process state including
its RNG, the streaming collector accumulators, every stateful observer, and
the phase position) through a :class:`~repro.checkpoint.CheckpointStore`.
A later ``run`` against the same directory restores from the newest valid
snapshot and produces a :class:`SimulationResult` and RoundRecord stream
bit-identical to an uninterrupted run — the contract enforced by
``tests/engine/test_driver_checkpoint.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.engine.metrics import MetricsCollector, MetricsSummary, RoundRecord
from repro.engine.observers import Observer
from repro.engine.stability import is_stationary
from repro.errors import CheckpointIncompatible, ConfigurationError, GracefulShutdown
from repro.faults.chaos import chaos_from_env, maybe_chaos_round
from repro.telemetry.runtime import current as _telemetry_current, span as _span

__all__ = ["RoundProcess", "SimulationDriver", "SimulationResult"]


@runtime_checkable
class RoundProcess(Protocol):
    """Minimal interface every simulated process implements."""

    n: int

    def step(self) -> RoundRecord:
        """Advance one round and report what happened."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a driver run.

    Attributes
    ----------
    summary:
        Aggregate statistics over the measurement window.
    pool_series:
        Per-round pool sizes over the measurement window.
    burn_in / measured:
        The phase lengths actually executed.
    stationary:
        Result of the drift diagnostic on the measured pool series.
        **None contract:** ``None`` means the diagnostic was *not run* —
        the driver was configured with ``measure < 4`` (the two-half drift
        test needs at least 2 points per half), so no stationarity claim
        is made either way. Consumers must treat ``None`` as "unknown",
        never as "not stationary"; aggregations (e.g.
        ``PointResult.stationary_fraction``) skip such replicates.
    """

    summary: MetricsSummary
    pool_series: np.ndarray
    burn_in: int
    measured: int
    stationary: bool | None

    @property
    def normalized_pool(self) -> float:
        """Mean pool size divided by n (Figure 4's y-axis)."""
        return self.summary.normalized_pool

    @property
    def avg_wait(self) -> float:
        """Average waiting time (Figure 5, triangles)."""
        return self.summary.avg_wait

    @property
    def max_wait(self) -> int:
        """Maximum waiting time (Figure 5, points)."""
        return self.summary.max_wait


class SimulationDriver:
    """Runs a process through burn-in then measurement.

    Parameters
    ----------
    burn_in:
        Rounds to discard before measuring.
    measure:
        Rounds in the measurement window (the paper averages over 1000).
    observers:
        Optional callbacks notified after *every* round, including burn-in.
    checkpoint_dir:
        Directory of durable snapshots for this run. ``run`` restores
        from the newest valid snapshot found there before stepping.
    checkpoint_every:
        Snapshot cadence in rounds (requires ``checkpoint_dir``); with
        ``checkpoint_dir`` but no cadence the driver only restores (and
        writes a final snapshot if interrupted).
    checkpoint_keep:
        Snapshots retained (rolling); at least 2 so a torn newest file can
        fall back to the previous one.
    """

    def __init__(
        self,
        burn_in: int,
        measure: int,
        observers: Sequence[Observer] = (),
        checkpoint_dir: Path | str | None = None,
        checkpoint_every: int | None = None,
        checkpoint_keep: int = 3,
    ) -> None:
        if burn_in < 0:
            raise ConfigurationError(f"burn_in must be non-negative, got {burn_in}")
        if measure < 1:
            raise ConfigurationError(f"measure must be positive, got {measure}")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigurationError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
            if checkpoint_dir is None:
                raise ConfigurationError("checkpoint_every needs a checkpoint_dir")
        self.burn_in = burn_in
        self.measure = measure
        self.observers = list(observers)
        self.checkpoint_every = checkpoint_every
        if checkpoint_dir is not None:
            from repro.checkpoint import CheckpointStore

            self._store = CheckpointStore(checkpoint_dir, keep=checkpoint_keep)
        else:
            self._store = None
        #: Provenance of the last ``run``: the
        #: :class:`~repro.checkpoint.RestoredCheckpoint` it resumed from,
        #: or None for a from-scratch run.
        self.last_restore = None
        # The drift diagnostic splits the measured series into two halves
        # and needs at least 2 points in each; decide once at configuration
        # time instead of re-checking the series length on every run.
        self._diagnose_stationarity = measure >= 4

    def _notify(self, record: RoundRecord, process: Any) -> None:
        for observer in self.observers:
            observer.on_round(record, process)

    @staticmethod
    def _theory_normalized_pool(process: Any) -> float | None:
        """Section V reference pool curve for ``process``, when defined.

        Only capped processes with an integer capacity and λ < 1 have the
        ``1/c·ln(1/(1−λ)) + 1`` reference; anything else returns None and
        the deviation gauge is simply not emitted.
        """
        capacity = getattr(process, "capacity", None)
        lam = getattr(process, "lam", None)
        if capacity is None or lam is None or np.ndim(capacity) != 0:
            return None
        if not (0 <= lam < 1) or int(capacity) < 1:
            return None
        from repro.core.theory import empirical_pool_curve

        return empirical_pool_curve(int(capacity), float(lam))

    # -- checkpoint plumbing ------------------------------------------------

    def _observer_states(self) -> list:
        """Snapshot every observer that is stateful; None for the rest."""
        states = []
        for observer in self.observers:
            get_state = getattr(observer, "get_state", None)
            states.append(get_state() if callable(get_state) else None)
        return states

    def _snapshot_payload(
        self,
        process: Any,
        done_burn: int,
        done_measure: int,
        collector: MetricsCollector | None = None,
    ) -> dict:
        return {
            "driver": {
                "burn_in": self.burn_in,
                "measure": self.measure,
                "done_burn": done_burn,
                "done_measure": done_measure,
            },
            "process": {
                "class": process.__class__.__name__,
                "n": process.n,
                # Churn changes the live n mid-run; compatibility is judged
                # against the bin count the process was *configured* with.
                "initial_n": getattr(process, "initial_n", process.n),
                "state": process.get_state(),
            },
            "observers": self._observer_states(),
            "collector": None if collector is None else collector.get_state(),
        }

    def _check_restorable(self, payload: dict, process: Any) -> None:
        """Reject snapshots that do not describe *this* driver+process."""
        driver = payload.get("driver", {})
        proc = payload.get("process", {})
        problems = []
        if driver.get("burn_in") != self.burn_in:
            problems.append(f"burn_in {driver.get('burn_in')} != {self.burn_in}")
        if driver.get("measure") != self.measure:
            problems.append(f"measure {driver.get('measure')} != {self.measure}")
        if proc.get("class") != process.__class__.__name__:
            problems.append(
                f"process class {proc.get('class')!r} != " f"{process.__class__.__name__!r}"
            )
        # Compare configured bin counts, not live ones: a snapshot taken
        # after churn resized the pool legitimately differs from the fresh
        # process's n (``process.set_state`` adopts the snapshot's
        # membership). Older snapshots without ``initial_n`` fall back to
        # their recorded live n — correct for every churn-free run.
        snapshot_n = proc.get("initial_n", proc.get("n"))
        process_n = getattr(process, "initial_n", process.n)
        if snapshot_n != process_n:
            problems.append(f"n {snapshot_n} != {process_n}")
        if len(payload.get("observers", ())) != len(self.observers):
            problems.append(
                f"{len(payload.get('observers', ()))} observer states for "
                f"{len(self.observers)} observers"
            )
        if problems:
            raise CheckpointIncompatible(
                "checkpoint does not match this run: " + "; ".join(problems)
            )

    def _restore(self, process: Any):
        """Load the newest valid snapshot, apply it, return its payload.

        All or nothing: if the process or an observer refuses its part,
        everything already applied is put back before the error propagates,
        so the caller's process and observers keep their previous states.
        """
        restored = self._store.load_latest()
        if restored is None:
            self.last_restore = None
            return None
        payload = restored.payload
        self._check_restorable(payload, process)
        previous = process.get_state()
        previous_observers = self._observer_states()
        try:
            process.set_state(payload["process"]["state"])
            for observer, saved in zip(self.observers, payload["observers"]):
                if saved is not None:
                    observer.set_state(saved)
        except Exception:
            process.set_state(previous)
            for observer, saved in zip(self.observers, previous_observers):
                if saved is not None:
                    observer.set_state(saved)
            raise
        self.last_restore = restored
        return payload

    def _save(self, round_index: int, payload: dict, phase: str) -> None:
        self._store.save(round_index, payload, meta={"round": round_index, "phase": phase})

    def _after_round(self, record, chaos, label: str, phase: str, payload_fn) -> None:
        """Periodic snapshot, then the round-scoped chaos hook.

        The snapshot is written *before* chaos fires so a kill-at-round run
        always leaves a resumable snapshot at the kill point. The cadence
        keys on the process's own round counter (restored on resume), so a
        resumed run checkpoints at exactly the rounds the original would.
        """
        if (
            self._store is not None
            and self.checkpoint_every is not None
            and record.round % self.checkpoint_every == 0
        ):
            self._save(record.round, payload_fn(), phase)
        if chaos is not None:
            maybe_chaos_round(label, record.round, spec=chaos)

    def run(self, process: RoundProcess) -> SimulationResult:
        """Execute the configured phases on ``process`` and summarise.

        With a checkpoint store configured the run first restores from the
        newest valid snapshot (skipping the burn-in/measure rounds it
        already covers), snapshots every ``checkpoint_every`` rounds, and
        writes a final snapshot if interrupted — the resumed result is
        bit-identical to an uninterrupted run.
        """
        collector = MetricsCollector(n=process.n)
        done_burn = 0
        done_measure = 0
        last_round = 0
        self.last_restore = None
        if self._store is not None:
            payload = self._restore(process)
            if payload is not None:
                if payload["collector"] is not None:
                    collector.set_state(payload["collector"])
                done_burn = int(payload["driver"]["done_burn"])
                done_measure = int(payload["driver"]["done_measure"])
                last_round = self.last_restore.round
            else:
                # Fresh start: seed the store with a round-0 snapshot so a
                # kill before the first cadence point is still resumable.
                self._save(
                    0,
                    self._snapshot_payload(process, 0, 0),
                    "burn_in",
                )

        chaos = chaos_from_env()
        label = type(process).__name__
        tel = _telemetry_current()
        theory_pool = self._theory_normalized_pool(process) if tel is not None else None
        phase = "burn_in"
        # An interrupt can land mid-step, leaving the process advanced past
        # the bookkeeping counters; a snapshot taken there would not resume
        # bit-identically. Only the round boundary is a consistent cut.
        at_boundary = True
        try:
            with _span("burn_in", component="driver"):
                while done_burn < self.burn_in:
                    at_boundary = False
                    record = process.step()
                    self._notify(record, process)
                    done_burn += 1
                    last_round = record.round
                    at_boundary = True
                    self._after_round(
                        record,
                        chaos,
                        label,
                        phase,
                        lambda: self._snapshot_payload(process, done_burn, done_measure),
                    )
            phase = "measure"
            with _span("measure", component="driver"):
                while done_measure < self.measure:
                    at_boundary = False
                    record = process.step()
                    self._notify(record, process)
                    collector.observe(record)
                    done_measure += 1
                    last_round = record.round
                    at_boundary = True
                    if tel is not None:
                        normalized = record.pool_size / process.n
                        tel.set_gauge("pool_size_normalized", normalized)
                        if theory_pool:
                            tel.set_gauge("pool_size_over_theory", normalized / theory_pool)
                    self._after_round(
                        record,
                        chaos,
                        label,
                        phase,
                        lambda: self._snapshot_payload(
                            process,
                            done_burn,
                            done_measure,
                            collector=collector,
                        ),
                    )
        except (KeyboardInterrupt, GracefulShutdown):
            if self._store is not None and at_boundary:
                self._save(
                    last_round,
                    self._snapshot_payload(
                        process,
                        done_burn,
                        done_measure,
                        collector=collector if done_measure else None,
                    ),
                    phase,
                )
            raise

        series = collector.pool_series
        stationary = is_stationary(series) if self._diagnose_stationarity else None
        return SimulationResult(
            summary=collector.summary(),
            pool_series=series,
            burn_in=self.burn_in,
            measured=self.measure,
            stationary=stationary,
        )
