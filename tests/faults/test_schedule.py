"""Validation semantics of the fault events of the declarative schedules."""

import pytest

from repro.churn import (
    CapacityDegradation,
    CrashBurst,
    PeriodicOutage,
    PoolShed,
    Schedule,
    StochasticCrashes,
)
from repro.errors import ConfigurationError


class TestCrashBurst:
    def test_valid(self):
        event = CrashBurst(at_round=10, fraction=0.5, duration=5)
        assert event.buffer_policy == "preserved"

    def test_permanent_outage_allowed(self):
        assert CrashBurst(at_round=1, fraction=1.0).duration is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"at_round": 0, "fraction": 0.5},
            {"at_round": 1, "fraction": 0.0},
            {"at_round": 1, "fraction": 1.5},
            {"at_round": 1, "fraction": 0.5, "duration": 0},
            {"at_round": 1, "fraction": 0.5, "buffer_policy": "shredded"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            CrashBurst(**kwargs)


class TestPeriodicOutage:
    def test_valid(self):
        PeriodicOutage(period=20, duration=5, fraction=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 1, "duration": 1, "fraction": 0.1},
            {"period": 10, "duration": 10, "fraction": 0.1},  # duration < period
            {"period": 10, "duration": 0, "fraction": 0.1},
            {"period": 10, "duration": 5, "fraction": 0.1, "first_round": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PeriodicOutage(**kwargs)


class TestStochasticCrashes:
    def test_valid(self):
        StochasticCrashes(crash_prob=0.01, recover_prob=0.2, last_round=100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_prob": 0.0, "recover_prob": 0.5},
            {"crash_prob": 0.5, "recover_prob": 1.5},
            {"crash_prob": 0.1, "recover_prob": 0.1, "first_round": 10, "last_round": 5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            StochasticCrashes(**kwargs)


class TestCapacityDegradation:
    def test_valid(self):
        CapacityDegradation(at_round=5, duration=10, capacity=1, fraction=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"at_round": 5, "duration": 0, "capacity": 1},
            {"at_round": 5, "duration": 10, "capacity": 0},
            {"at_round": 5, "duration": 10, "capacity": 1, "fraction": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            CapacityDegradation(**kwargs)


class TestPoolShed:
    def test_valid(self):
        PoolShed(at_round=3, fraction=0.25)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            PoolShed(at_round=3, fraction=2.0)


class TestFaultSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not Schedule()
        assert Schedule(events=(CrashBurst(at_round=1, fraction=0.5),))

    def test_events_coerced_to_tuple(self):
        schedule = Schedule(events=[PoolShed(at_round=1, fraction=0.5)])
        assert isinstance(schedule.events, tuple)

    def test_rejects_unknown_event_type(self):
        with pytest.raises(ConfigurationError):
            Schedule(events=("not an event",))
