"""Faults and dynamic membership: schedules, injection, autoscaling, scenarios.

Crashes, capacity loss, pool shedding, joins and leaves all change the same
bin set, so one :class:`Schedule` holds every event kind and one
:class:`Injector` applies them to a live process — while keeping every
repro guarantee intact: determinism under dedicated RNG substreams,
bit-identical checkpoint/resume through membership changes, and zero
perturbation of static runs (an empty schedule is a no-op observer).

See ``docs/churn.md`` for the membership model, re-hash policies, the
RNG-stream contract, and the autoscaler knobs.
"""

from repro.churn.autoscale import Autoscaler, AutoscalingPolicy
from repro.churn.injector import Injector, removal_mapping
from repro.churn.scenario import ChaosScenario, scenario_from_dict, scenario_from_json
from repro.churn.schedule import (
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

__all__ = [
    "Autoscaler",
    "AutoscalingPolicy",
    "CapacityDegradation",
    "ChaosScenario",
    "CrashBurst",
    "Flapping",
    "Injector",
    "JoinBurst",
    "LeaveBurst",
    "PeriodicOutage",
    "PoissonChurn",
    "PoolShed",
    "Ramp",
    "Schedule",
    "StochasticCrashes",
    "removal_mapping",
    "scenario_from_dict",
    "scenario_from_json",
]
