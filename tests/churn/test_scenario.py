"""Tests for the chaos scenario DSL (dict/JSON -> wired observers)."""

import pytest

from repro.churn import (
    Autoscaler,
    AutoscalingPolicy,
    ChaosScenario,
    CrashBurst,
    Injector,
    JoinBurst,
    LeaveBurst,
    Schedule,
    scenario_from_dict,
    scenario_from_json,
)
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.errors import ConfigurationError


class TestParsing:
    def test_full_scenario_round_trips(self):
        scenario = scenario_from_dict(
            {
                "faults": {
                    "seed": 1,
                    "events": [
                        {"type": "crash_burst", "at_round": 30, "fraction": 0.1, "duration": 5}
                    ],
                },
                "churn": {
                    "seed": 2,
                    "min_n": 8,
                    "events": [
                        {"type": "join_burst", "at_round": 15, "count": 16},
                        {"type": "leave_burst", "at_round": 40, "fraction": 0.25},
                    ],
                },
                "autoscaling": {"controller": "utilization", "target": 0.7},
                "autoscale_seed": 3,
            }
        )
        assert isinstance(scenario.faults.events[0], CrashBurst)
        assert isinstance(scenario.churn.events[0], JoinBurst)
        assert isinstance(scenario.churn.events[1], LeaveBurst)
        assert scenario.churn.min_n == 8
        assert scenario.autoscaling.target == 0.7
        assert scenario.autoscale_seed == 3

    def test_snake_case_registry_names(self):
        scenario = scenario_from_dict(
            {"churn": {"events": [{"type": "leave_burst", "at_round": 2, "count": 1}]}}
        )
        assert isinstance(scenario.churn.events[0], LeaveBurst)

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown churn event type"):
            scenario_from_dict({"churn": {"events": [{"type": "node_explosion"}]}})

    def test_missing_event_type_rejected(self):
        with pytest.raises(ConfigurationError, match="missing its 'type'"):
            scenario_from_dict({"churn": {"events": [{"at_round": 2, "count": 1}]}})

    def test_unknown_event_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            scenario_from_dict(
                {"churn": {"events": [{"type": "join_burst", "at_round": 2, "cont": 1}]}}
            )

    def test_unknown_schedule_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            scenario_from_dict({"churn": {"sed": 1, "events": []}})

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            scenario_from_dict({"chrun": {}})

    def test_unknown_autoscaling_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown autoscaling keys"):
            scenario_from_dict({"autoscaling": {"tarjet": 0.5}})

    def test_event_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict(
                {"churn": {"events": [{"type": "join_burst", "at_round": 0, "count": 1}]}}
            )

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a dict"):
            scenario_from_dict(["churn"])

    def test_from_json(self):
        scenario = scenario_from_json(
            '{"churn": {"events": [{"type": "join_burst", "at_round": 3, "count": 2}]}}'
        )
        assert scenario.churn.events[0].count == 2

    def test_from_json_rejects_bad_json(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            scenario_from_json("{nope")


class TestScenario:
    def test_empty_scenario_is_falsy(self):
        assert not ChaosScenario()
        assert not scenario_from_dict({})
        assert scenario_from_dict(
            {"churn": {"events": [{"type": "join_burst", "at_round": 1, "count": 1}]}}
        )
        assert scenario_from_dict({"autoscaling": {}})

    def test_rejects_wrong_part_types(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario(faults={"events": []})
        with pytest.raises(ConfigurationError):
            ChaosScenario(churn=[JoinBurst(at_round=3, count=4)])
        with pytest.raises(ConfigurationError):
            ChaosScenario(autoscaling={"target": 0.5})

    def test_build_observers_order_and_types(self):
        scenario = ChaosScenario(
            faults=Schedule(events=(CrashBurst(at_round=5, fraction=0.1, duration=3),)),
            churn=Schedule(events=(JoinBurst(at_round=3, count=4),)),
            autoscaling=AutoscalingPolicy(),
        )
        observers = scenario.build_observers()
        assert [type(o) for o in observers] == [Injector, Autoscaler]

    def test_build_observers_skips_absent_parts(self):
        observers = ChaosScenario(
            churn=Schedule(events=(JoinBurst(at_round=3, count=4),))
        ).build_observers()
        assert [type(o) for o in observers] == [Injector]
        assert ChaosScenario().build_observers() == []

    def test_builds_fresh_observers_each_call(self):
        scenario = ChaosScenario(churn=Schedule(events=(JoinBurst(at_round=3, count=4),)))
        a = scenario.build_observers()
        b = scenario.build_observers()
        assert a[0] is not b[0]

    def test_remap_cross_wiring(self):
        # A churn shrink must remap the injector's down-map so a crashed
        # bin keeps being tracked under its compacted index.
        scenario = scenario_from_dict(
            {
                "faults": {
                    "seed": 4,
                    "events": [
                        {"type": "crash_burst", "at_round": 2, "fraction": 0.5, "duration": 30}
                    ],
                },
                "churn": {
                    "seed": 9,
                    "events": [
                        {"type": "leave_burst", "at_round": 5, "fraction": 0.5, "policy": "drop"}
                    ],
                },
            }
        )
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=6)
        observers = scenario.build_observers()
        (injector,) = observers
        for _ in range(10):
            record = process.step()
            for observer in observers:
                observer.on_round(record, process)
        assert process.n == 16
        # Remaining down bins all map inside the compacted index space,
        # and the fault injector's bookkeeping agrees with the bin mask.
        down = process.bins.down
        assert down.shape[0] == 16
        assert injector.down_count == int(down.sum())
        process.check_invariants()


class TestDriverIntegration:
    def test_scenario_observers_drive_a_run(self):
        scenario = scenario_from_dict(
            {
                "churn": {
                    "seed": 5,
                    "events": [
                        {"type": "join_burst", "at_round": 10, "count": 8},
                        {"type": "leave_burst", "at_round": 20, "count": 4, "policy": "rehash"},
                    ],
                },
                "faults": {
                    "seed": 6,
                    "events": [
                        {"type": "crash_burst", "at_round": 15, "fraction": 0.1, "duration": 5}
                    ],
                },
            }
        )
        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=7)
        driver = SimulationDriver(burn_in=5, measure=25, observers=scenario.build_observers())
        result = driver.run(process)
        assert process.n == 36
        assert len(result.pool_series) == 25
        process.check_invariants()
