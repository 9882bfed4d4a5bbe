"""Dynamic membership: churn schedules, injection, autoscaling, scenarios.

The churn subsystem lets bins join and leave *mid-run* — the
regime studied by the dynamic balls-into-bins line of work — while keeping
every repro guarantee intact: determinism under a dedicated RNG substream,
bit-identical checkpoint/resume through membership changes, and zero
perturbation of static runs (an empty schedule is a no-op observer).

See ``docs/churn.md`` for the membership model, re-hash policies, the
RNG-stream contract, and the autoscaler knobs.
"""

from repro.churn.autoscale import Autoscaler, AutoscalingPolicy
from repro.churn.injector import ChurnInjector, removal_mapping
from repro.churn.schedule import (
    ChurnEvent,
    ChurnSchedule,
    Flapping,
    JoinBurst,
    LeaveBurst,
    PoissonChurn,
    Ramp,
)
from repro.churn.scenario import ChaosScenario, scenario_from_dict, scenario_from_json

__all__ = [
    "Autoscaler",
    "AutoscalingPolicy",
    "ChaosScenario",
    "ChurnEvent",
    "ChurnInjector",
    "ChurnSchedule",
    "Flapping",
    "JoinBurst",
    "LeaveBurst",
    "PoissonChurn",
    "Ramp",
    "removal_mapping",
    "scenario_from_dict",
    "scenario_from_json",
]
