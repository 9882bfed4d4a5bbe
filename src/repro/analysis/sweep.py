"""Replicated measurement of single parameter points.

The paper's data points are long-run averages of a stabilised system. Each
helper here builds the process, warm-starts it at the mean-field
equilibrium where applicable, burns in, measures, and aggregates over
independent replicates (each with its own derived random stream).

Parallel execution
------------------
:func:`measure_capped` and :func:`measure_greedy` are the seam the parallel
runner (:mod:`repro.parallel`) hooks into: when a measurement context is
active they delegate to it instead of simulating inline. Each replicate is
an independently executable unit — :func:`run_replicate` — whose random
stream derives only from ``(seed, replicate)`` via
:class:`~repro.rng.RngFactory`, so replicates computed in any order, in any
process, produce bit-identical results to the serial loop. Aggregation over
replicates (:func:`aggregate_point`) is shared between the serial path and
the parallel replay, which is what makes ``--jobs N`` output byte-identical
to ``--jobs 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.capped import CappedProcess
from repro.core.meanfield import equilibrium
from repro.engine.driver import SimulationDriver, SimulationResult
from repro.engine.stability import default_burn_in
from repro.errors import ParallelExecutionError
from repro.parallel.context import active_context
from repro.processes.greedy import GreedyBatchProcess
from repro.rng import RngFactory
from repro.stats.intervals import ConfidenceInterval, normal_ci

__all__ = [
    "PointResult",
    "ReplicateOutcome",
    "measure_capped",
    "measure_greedy",
    "run_replicate",
    "run_capped_replicate",
    "run_greedy_replicate",
    "aggregate_point",
    "assemble_point",
    "placeholder_point",
]


@dataclass(frozen=True)
class PointResult:
    """Aggregated statistics for one parameter point.

    Means are averaged over replicates; ``max_wait`` and ``peak_pool`` are
    the maxima across all replicates (the paper's "maximum waiting time" is
    a max over the whole measurement, so maxima aggregate by max).
    """

    n: int
    c: int | None
    lam: float
    replicates: int
    measure_rounds: int
    burn_in: int
    normalized_pool: float
    pool_ci: ConfidenceInterval
    avg_wait: float
    wait_ci: ConfidenceInterval
    max_wait: int
    wait_p99: int
    peak_pool: int
    peak_max_load: int
    stationary_fraction: float

    def row(self) -> dict[str, float | int | str]:
        """Flat representation for table/CSV output."""
        return {
            "n": self.n,
            "c": "inf" if self.c is None else self.c,
            "lambda": round(self.lam, 8),
            "pool/n": round(self.normalized_pool, 4),
            "avg_wait": round(self.avg_wait, 3),
            "max_wait": self.max_wait,
            "p99_wait": self.wait_p99,
        }


@dataclass(frozen=True)
class ReplicateOutcome:
    """The serialisable slice of one replicate's :class:`SimulationResult`.

    Exactly the fields point aggregation consumes — small enough to journal
    and cache as JSON, and JSON round-trips every value exactly (Python
    floats serialise with shortest-round-trip repr), so an outcome replayed
    from disk aggregates bit-identically to one computed in process.
    """

    normalized_pool: float
    avg_wait: float
    max_wait: int
    wait_p99: int
    peak_pool: int
    peak_max_load: int
    stationary: bool | None

    @staticmethod
    def from_result(result: SimulationResult) -> "ReplicateOutcome":
        return ReplicateOutcome(
            normalized_pool=result.normalized_pool,
            avg_wait=result.avg_wait,
            max_wait=result.max_wait,
            wait_p99=result.summary.wait_p99,
            peak_pool=result.summary.peak_pool,
            peak_max_load=result.summary.peak_max_load,
            stationary=result.stationary,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "normalized_pool": self.normalized_pool,
            "avg_wait": self.avg_wait,
            "max_wait": self.max_wait,
            "wait_p99": self.wait_p99,
            "peak_pool": self.peak_pool,
            "peak_max_load": self.peak_max_load,
            "stationary": self.stationary,
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "ReplicateOutcome":
        stationary = payload["stationary"]
        return ReplicateOutcome(
            normalized_pool=float(payload["normalized_pool"]),
            avg_wait=float(payload["avg_wait"]),
            max_wait=int(payload["max_wait"]),
            wait_p99=int(payload["wait_p99"]),
            peak_pool=int(payload["peak_pool"]),
            peak_max_load=int(payload["peak_max_load"]),
            stationary=None if stationary is None else bool(stationary),
        )


def aggregate_point(
    n: int,
    c: int | None,
    lam: float,
    burn_in: int,
    measure: int,
    outcomes: list[ReplicateOutcome],
) -> PointResult:
    """Fold replicate outcomes into a :class:`PointResult`."""
    pools = [o.normalized_pool for o in outcomes]
    waits = [o.avg_wait for o in outcomes]
    stationary_flags = [o.stationary for o in outcomes if o.stationary is not None]
    return PointResult(
        n=n,
        c=c,
        lam=lam,
        replicates=len(outcomes),
        measure_rounds=measure,
        burn_in=burn_in,
        normalized_pool=float(np.mean(pools)),
        pool_ci=normal_ci(pools),
        avg_wait=float(np.mean(waits)),
        wait_ci=normal_ci(waits),
        max_wait=max(o.max_wait for o in outcomes),
        wait_p99=max(o.wait_p99 for o in outcomes),
        peak_pool=max(o.peak_pool for o in outcomes),
        peak_max_load=max(o.peak_max_load for o in outcomes),
        stationary_fraction=(float(np.mean(stationary_flags)) if stationary_flags else 1.0),
    )


def run_capped_replicate(
    n: int,
    c: int | None,
    lam: float,
    measure: int,
    seed: int,
    replicate: int,
    warm_start: bool,
    burn_in: int,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    scenario: dict[str, Any] | None = None,
) -> ReplicateOutcome:
    """Run one CAPPED replicate (independently of every other replicate).

    The random stream is ``RngFactory(seed).child(replicate)`` — a pure
    function of ``(seed, replicate)`` — so this call returns the same
    outcome whether it runs in the serial loop or on a worker process.
    Checkpoint configuration never changes the outcome (resume is
    bit-identical) and is deliberately *not* part of the measurement
    parameters the parallel runner hashes.

    ``scenario`` is a chaos-scenario dict (see
    :func:`repro.churn.scenario_from_dict`); its observers — churn,
    faults, autoscaling — are built fresh for every replicate, so each
    replicate perturbs its own process. A scenario changes outcomes and
    is part of the measurement parameters.
    """
    factory = RngFactory(seed=seed)
    effective_warm = warm_start and c is not None and lam > 0
    initial_pool = equilibrium(c, lam).pool_size(n) if effective_warm else 0
    observers: list = []
    if scenario:
        from repro.churn import scenario_from_dict

        observers = scenario_from_dict(scenario).build_observers()
    driver = SimulationDriver(
        burn_in=burn_in,
        measure=measure,
        observers=observers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    process = CappedProcess(
        n=n,
        capacity=c,
        lam=lam,
        rng=factory.child(replicate).generator("capped"),
        initial_pool=initial_pool,
    )
    return ReplicateOutcome.from_result(driver.run(process))


def run_greedy_replicate(
    n: int,
    d: int,
    lam: float,
    measure: int,
    seed: int,
    replicate: int,
    burn_in: int,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
) -> ReplicateOutcome:
    """Run one GREEDY[d] replicate (see :func:`run_capped_replicate`)."""
    factory = RngFactory(seed=seed)
    driver = SimulationDriver(
        burn_in=burn_in,
        measure=measure,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    process = GreedyBatchProcess(
        n=n, d=d, lam=lam, rng=factory.child(replicate).generator("greedy")
    )
    return ReplicateOutcome.from_result(driver.run(process))


def run_replicate(
    kind: str,
    params: dict[str, Any],
    replicate: int,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
) -> ReplicateOutcome:
    """Dispatch one replicate task by kind (the worker entry point).

    ``checkpoint_dir``/``checkpoint_every`` ride alongside ``params``
    rather than inside it: the params dict is what task digests hash, and
    checkpoint placement must never change a task's cache identity.
    """
    if kind == "capped":
        return run_capped_replicate(
            replicate=replicate,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            **params,
        )
    if kind == "greedy":
        return run_greedy_replicate(
            replicate=replicate,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            **params,
        )
    raise ParallelExecutionError(f"unknown measurement kind {kind!r}")


def assemble_point(
    kind: str, params: dict[str, Any], outcomes: list[ReplicateOutcome]
) -> PointResult:
    """Aggregate outcomes of a recorded point exactly as the serial path."""
    return aggregate_point(
        n=params["n"],
        c=params["c"] if kind == "capped" else None,
        lam=params["lam"],
        burn_in=params["burn_in"],
        measure=params["measure"],
        outcomes=outcomes,
    )


def placeholder_point(kind: str, params: dict[str, Any], replicates: int) -> PointResult:
    """A structurally valid, all-zero :class:`PointResult`.

    Returned by the recording context so experiment generators run to
    completion during plan discovery; everything derived from it is
    discarded before the replay pass.
    """
    zero_ci = ConfidenceInterval(0.0, 0.0, 0.0, 0.95)
    return PointResult(
        n=params["n"],
        c=params["c"] if kind == "capped" else None,
        lam=params["lam"],
        replicates=replicates,
        measure_rounds=params["measure"],
        burn_in=params["burn_in"],
        normalized_pool=0.0,
        pool_ci=zero_ci,
        avg_wait=0.0,
        wait_ci=zero_ci,
        max_wait=0,
        wait_p99=0,
        peak_pool=0,
        peak_max_load=0,
        stationary_fraction=1.0,
    )


def measure_capped(
    n: int,
    c: int | None,
    lam: float,
    measure: int,
    replicates: int = 1,
    seed: int = 0,
    warm_start: bool = True,
    burn_in: int | None = None,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    scenario: dict[str, Any] | None = None,
) -> PointResult:
    """Measure CAPPED(c, λ) at one parameter point.

    ``warm_start=True`` (default) initialises the pool at the mean-field
    equilibrium and shortens the burn-in accordingly; pass ``False`` for a
    faithful cold start from the paper's empty system (much longer burn-in
    for λ close to 1). Infinite capacity (``c=None``) cannot be
    warm-started through the mean-field solver and always cold-starts.

    When a :mod:`repro.parallel` measurement context is active the call is
    delegated to it (recorded, or replayed from precomputed outcomes)
    instead of simulating inline; the context distributes whole
    replicates.

    With ``checkpoint_dir`` set the inline path snapshots/resumes each
    replicate (subdirectory ``rep-<r>``) every ``checkpoint_every``
    rounds. Checkpoint settings never alter results and are not part of
    the measurement parameters.

    ``scenario`` — a chaos-scenario dict of fault/churn/autoscaling
    schedules (see :func:`repro.churn.scenario_from_dict`) — perturbs
    every replicate. It changes outcomes, so it joins the measurement
    parameters when set.
    """
    effective_warm = warm_start and c is not None and lam > 0
    if burn_in is None:
        burn_in = default_burn_in(n, c if c is not None else 1, lam, warm_start=effective_warm)
    params = {
        "n": n,
        "c": c,
        "lam": lam,
        "measure": measure,
        "seed": seed,
        "warm_start": warm_start,
        "burn_in": burn_in,
    }
    if scenario:
        params["scenario"] = scenario
    context = active_context()
    if context is not None:
        return context.measure("capped", params, replicates)
    base = None if checkpoint_dir is None else Path(checkpoint_dir)
    outcomes = [
        run_replicate(
            "capped",
            params,
            replicate,
            checkpoint_dir=None if base is None else base / f"rep-{replicate}",
            checkpoint_every=checkpoint_every,
        )
        for replicate in range(replicates)
    ]
    return aggregate_point(n, c, lam, burn_in, measure, outcomes)


def measure_greedy(
    n: int,
    d: int,
    lam: float,
    measure: int,
    replicates: int = 1,
    seed: int = 0,
    burn_in: int | None = None,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
) -> PointResult:
    """Measure batch GREEDY[d] (leaky bins) at one parameter point.

    GREEDY has no pool, so there is no warm start; its queues fill within
    the waiting-time scale, which for d = 1 is ``Θ(log n/(1−λ))`` — the
    default burn-in covers it via the relaxation term. Delegates to an
    active measurement context like :func:`measure_capped`.
    """
    if burn_in is None:
        burn_in = default_burn_in(n, 1, lam, warm_start=False)
    params = {
        "n": n,
        "d": d,
        "lam": lam,
        "measure": measure,
        "seed": seed,
        "burn_in": burn_in,
    }
    context = active_context()
    if context is not None:
        return context.measure("greedy", params, replicates)
    base = None if checkpoint_dir is None else Path(checkpoint_dir)
    outcomes = [
        run_replicate(
            "greedy",
            params,
            replicate,
            checkpoint_dir=None if base is None else base / f"rep-{replicate}",
            checkpoint_every=checkpoint_every,
        )
        for replicate in range(replicates)
    ]
    return aggregate_point(n, None, lam, burn_in, measure, outcomes)
