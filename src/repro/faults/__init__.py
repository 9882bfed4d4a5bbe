"""Recovery-time metrics (:mod:`repro.faults.recovery`) and harness-level
chaos hooks for the runner (:mod:`repro.faults.chaos`, inert unless
``REPRO_CHAOS`` is set). The fault events themselves share one
:class:`~repro.churn.schedule.Schedule` and one
:class:`~repro.churn.injector.Injector` with the churn events.
"""

from repro.faults.recovery import (
    RecoveryReport,
    StationaryBand,
    measure_post_churn_recovery,
    measure_recovery,
    per_round_p99,
    stationary_band,
)

__all__ = [
    "RecoveryReport",
    "StationaryBand",
    "stationary_band",
    "measure_recovery",
    "measure_post_churn_recovery",
    "per_round_p99",
]
