"""Fault injection and recovery measurement for the simulators.

Layer 1 of the robustness subsystem: declarative fault schedules
(:mod:`repro.faults.schedule`), an observer-based injector that applies them
to :class:`~repro.core.capped.CappedProcess`-style ball processes
(:mod:`repro.faults.injector`), and
recovery-time metrics that quantify empirical self-stabilization
(:mod:`repro.faults.recovery`).

Layer 2 — harness-level chaos hooks used to test the hardened parallel
runner — lives in :mod:`repro.faults.chaos` and is inert unless the
``REPRO_CHAOS`` environment variable is set.
"""

from repro.faults.injector import FaultInjector
from repro.faults.recovery import (
    RecoveryReport,
    StationaryBand,
    measure_post_churn_recovery,
    measure_recovery,
    per_round_p99,
    stationary_band,
)
from repro.faults.schedule import (
    CapacityDegradation,
    CrashBurst,
    FaultSchedule,
    PeriodicOutage,
    RequestDrop,
    StochasticCrashes,
)

__all__ = [
    "FaultSchedule",
    "CrashBurst",
    "PeriodicOutage",
    "StochasticCrashes",
    "CapacityDegradation",
    "RequestDrop",
    "FaultInjector",
    "RecoveryReport",
    "StationaryBand",
    "stationary_band",
    "measure_recovery",
    "measure_post_churn_recovery",
    "per_round_p99",
]
