"""Pluggable per-round observers.

Observers receive every :class:`~repro.engine.metrics.RoundRecord` produced
by the driver — including burn-in rounds — and may inspect the process
itself. They are the extension point for tracing, invariant auditing, and
profiling without touching simulator inner loops.

Ordering and error semantics (see ``docs/observability.md``):

* observers are notified in list order, after the round's record exists
  and after the process state for that round is final;
* an observer exception propagates immediately — the driver does not
  swallow it, later observers in the list are not called for that round,
  and the run aborts. Because simulator state mutates *before*
  notification, and the parallel runner journals a task's outcome only
  after the whole measurement returns, an observer raising mid-run can
  never corrupt the journal or the result cache — the task simply fails
  (and is retried/quarantined by the runner's fault-tolerance machinery).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.engine.metrics import RoundRecord
from repro.errors import InvariantViolation

__all__ = [
    "Observer",
    "TraceRecorder",
    "InvariantChecker",
    "AgeProfiler",
    "LoadDistributionObserver",
]


@runtime_checkable
class Observer(Protocol):
    """Callback protocol invoked after every simulated round."""

    def on_round(self, record: RoundRecord, process: Any) -> None:
        """Called once per round with the record and the live process."""
        ...  # pragma: no cover - protocol


class TraceRecorder:
    """Keeps every :class:`RoundRecord` for post-hoc inspection.

    Intended for tests and debugging; memory grows linearly with rounds.
    """

    def __init__(self) -> None:
        self.records: list[RoundRecord] = []

    def on_round(self, record: RoundRecord, process: Any) -> None:
        self.records.append(record)

    def pool_sizes(self) -> list[int]:
        """Pool size per recorded round."""
        return [r.pool_size for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


class InvariantChecker:
    """Calls ``process.check_invariants()`` every ``every`` rounds.

    Processes in this library expose ``check_invariants`` raising
    :class:`~repro.errors.InvariantViolation` on inconsistent state; running
    the check periodically during long simulations catches state corruption
    close to where it happens instead of in the final statistics.

    A failing check is re-raised as an :class:`InvariantViolation` whose
    message localizes the failure: the round number, the process class, the
    underlying error, and a snapshot of the round's headline state.
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"'every' must be positive, got {every}")
        self.every = every
        self.checks_run = 0

    def on_round(self, record: RoundRecord, process: Any) -> None:
        if record.round % self.every == 0:
            check = getattr(process, "check_invariants", None)
            if check is not None:
                try:
                    check()
                except Exception as err:
                    snapshot = (
                        f"pool={record.pool_size} total_load={record.total_load} "
                        f"max_load={record.max_load} accepted={record.accepted} "
                        f"deleted={record.deleted}"
                    )
                    raise InvariantViolation(
                        f"invariant violated at round {record.round} in "
                        f"{type(process).__name__}: {err} [{snapshot}]"
                    ) from err
                self.checks_run += 1


class AgeProfiler:
    """Tracks the age profile of the pool over time.

    Records, per observed round, the age of the oldest pool ball and the
    number of distinct age classes. The oldest pool age upper-bounds the
    pool-delay component of every future waiting time, so its trajectory
    visualises the Lemma 3–5 drain stages directly. Only meaningful for
    processes exposing an ``pool`` attribute (CAPPED variants).
    """

    def __init__(self) -> None:
        self.max_ages: list[int] = []
        self.age_class_counts: list[int] = []

    def on_round(self, record: RoundRecord, process: Any) -> None:
        pool = getattr(process, "pool", None)
        if pool is None or not hasattr(pool, "max_age"):
            return
        self.max_ages.append(pool.max_age(record.round))
        self.age_class_counts.append(pool.num_buckets)

    @property
    def peak_age(self) -> int:
        """Largest pool age ever observed (0 when nothing recorded)."""
        return max(self.max_ages, default=0)


class LoadDistributionObserver:
    """Accumulates the end-of-round bin-load distribution.

    Records how often each load value 0..max occurs across bins and
    rounds. In steady state this converges to the stationary single-bin
    load distribution, which the mean-field solver
    (:func:`repro.core.meanfield.stationary_loads`) predicts — the test
    suite cross-validates the two. Works with any process exposing a
    ``bins`` attribute with a ``loads`` array.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self.rounds_observed = 0

    def on_round(self, record: RoundRecord, process: Any) -> None:
        bins = getattr(process, "bins", None)
        loads = getattr(bins, "loads", None)
        if loads is None:
            return
        self.rounds_observed += 1
        values, counts = np.unique(loads, return_counts=True)
        for value, count in zip(values, counts):
            self._counts[int(value)] = self._counts.get(int(value), 0) + int(count)

    def distribution(self) -> np.ndarray:
        """Empirical load distribution as a probability vector 0..max."""
        if not self._counts:
            return np.zeros(0)
        size = max(self._counts) + 1
        out = np.zeros(size)
        for value, count in self._counts.items():
            out[value] = count
        return out / out.sum()

