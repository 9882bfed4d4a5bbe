"""The chaos scenario DSL: faults + churn + autoscaling in one spec.

A :class:`ChaosScenario` bundles up to two :class:`~repro.churn.schedule.Schedule`
sections — ``faults`` and ``churn``, each with its own seed — and an
:class:`~repro.churn.autoscale.AutoscalingPolicy`, and builds the wired
observer pipeline for a run: one :class:`~repro.churn.injector.Injector`
over both schedules, then the autoscaler, which reports every resize it
makes to the injector.

Scenarios parse from plain dicts/JSON (``scenario_from_dict`` /
``scenario_from_json``), giving the CLI and CI a declarative surface::

    {
      "faults": {"seed": 1, "events": [
        {"type": "crash_burst", "at_round": 300, "fraction": 0.1, "duration": 50}
      ]},
      "churn": {"seed": 2, "min_n": 64, "events": [
        {"type": "join_burst", "at_round": 150, "count": 128},
        {"type": "leave_burst", "at_round": 400, "fraction": 0.25, "policy": "rehash"}
      ]},
      "autoscaling": {"controller": "utilization", "target": 0.7},
      "autoscale_seed": 3
    }

Event ``type`` names are the snake_case class names; the ``faults`` section
takes fault events and a ``seed``, the ``churn`` section churn events, a
``seed`` and the ``min_n``/``max_n`` bounds. Unknown keys anywhere are a
:class:`~repro.errors.ConfigurationError` (typos must not silently produce
a different scenario).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields as dataclass_fields

from repro.churn.autoscale import Autoscaler, AutoscalingPolicy
from repro.churn.injector import Injector
from repro.churn.schedule import CHURN_EVENTS, FAULT_EVENTS, Schedule
from repro.errors import ConfigurationError

__all__ = ["ChaosScenario", "scenario_from_dict", "scenario_from_json"]


def _snake_case(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


#: section -> (kind, type-name -> event class, schedule keys besides events).
SECTIONS = {
    "faults": ("fault", {_snake_case(cls.__name__): cls for cls in FAULT_EVENTS}, {"seed"}),
    "churn": (
        "churn",
        {_snake_case(cls.__name__): cls for cls in CHURN_EVENTS},
        {"seed", "min_n", "max_n"},
    ),
}


@dataclass(frozen=True)
class ChaosScenario:
    """Everything that goes wrong (and adapts) in one run.

    Any subset of the three parts may be present; an all-``None`` scenario
    builds an empty observer list and leaves the run untouched.
    """

    faults: Schedule | None = None
    churn: Schedule | None = None
    autoscaling: AutoscalingPolicy | None = None
    autoscale_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("faults", "churn"):
            part = getattr(self, name)
            if part is not None and not isinstance(part, Schedule):
                raise ConfigurationError(f"{name} must be a Schedule, got {type(part).__name__}")
        if self.autoscaling is not None and not isinstance(self.autoscaling, AutoscalingPolicy):
            raise ConfigurationError(
                f"autoscaling must be an AutoscalingPolicy, got "
                f"{type(self.autoscaling).__name__}"
            )

    def __bool__(self) -> bool:
        return bool(self.faults) or bool(self.churn) or self.autoscaling is not None

    def build_observers(self) -> list:
        """Construct and wire the observers for one run.

        Returns ``[Injector?, Autoscaler?]`` (present parts only, in that
        order). The injector applies the churn section before the faults
        section every round; the autoscaler reports each resize to it, so
        its per-bin bookkeeping follows the compacted indices and joiners.
        """
        schedules = [s for s in (self.churn, self.faults) if s is not None]
        observers: list = [Injector(*schedules)] if schedules else []
        if self.autoscaling is not None:
            autoscaler = Autoscaler(self.autoscaling, seed=self.autoscale_seed)
            for observer in observers:
                autoscaler.add_remap_listener(observer)
            observers.append(autoscaler)
        return observers


def _check_keys(given, allowed, where: str) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown {where} {sorted(unknown)}; allowed: {sorted(allowed)}")


def _build_event(registry: dict, spec: dict, kind: str):
    spec = dict(spec)
    type_name = spec.pop("type", None)
    if type_name is None:
        raise ConfigurationError(f"{kind} event is missing its 'type' key: {spec}")
    cls = registry.get(type_name)
    if cls is None:
        raise ConfigurationError(
            f"unknown {kind} event type {type_name!r}; expected one of {sorted(registry)}"
        )
    fields = [f.name for f in dataclass_fields(cls)]
    _check_keys(spec, fields, f"keys of {kind} event {type_name!r}")
    return cls(**spec)


def scenario_from_dict(spec: dict) -> ChaosScenario:
    """Build a :class:`ChaosScenario` from its dict form (see module doc)."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"scenario must be a dict, got {type(spec).__name__}")
    _check_keys(spec, ["autoscaling", "autoscale_seed", *SECTIONS], "scenario keys")
    autoscaling = spec.get("autoscaling")
    if autoscaling is not None:
        knobs = [f.name for f in dataclass_fields(AutoscalingPolicy)]
        _check_keys(autoscaling, knobs, "autoscaling keys")
    schedules = {}
    for section, (kind, registry, allowed) in SECTIONS.items():
        if spec.get(section) is not None:
            schedule = dict(spec[section])
            events = schedule.pop("events", [])
            _check_keys(schedule, allowed, f"keys in {kind} schedule")
            built = tuple(_build_event(registry, event, kind) for event in events)
            schedules[section] = Schedule(events=built, **schedule)
    return ChaosScenario(
        **schedules,
        autoscaling=None if autoscaling is None else AutoscalingPolicy(**autoscaling),
        autoscale_seed=int(spec.get("autoscale_seed", 0)),
    )


def scenario_from_json(text: str) -> ChaosScenario:
    """Parse a scenario from its JSON text form."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(spec)
