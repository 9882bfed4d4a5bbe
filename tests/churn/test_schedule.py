"""Validation tests for churn schedule dataclasses."""

import pytest

from repro.churn import (
    Flapping,
    JoinBurst,
    LeaveBurst,
    PoissonChurn,
    Ramp,
    Schedule,
)
from repro.errors import ConfigurationError


class TestJoinBurst:
    def test_valid(self):
        event = JoinBurst(at_round=5, count=8)
        assert event.capacity is None

    def test_rejects_bad_round(self):
        with pytest.raises(ConfigurationError):
            JoinBurst(at_round=0, count=1)

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            JoinBurst(at_round=1, count=0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            JoinBurst(at_round=1, count=1, capacity=0)


class TestLeaveBurst:
    def test_fraction_or_count_exactly_one(self):
        with pytest.raises(ConfigurationError):
            LeaveBurst(at_round=1)
        with pytest.raises(ConfigurationError):
            LeaveBurst(at_round=1, fraction=0.5, count=3)

    def test_fraction_range(self):
        with pytest.raises(ConfigurationError):
            LeaveBurst(at_round=1, fraction=0.0)
        with pytest.raises(ConfigurationError):
            LeaveBurst(at_round=1, fraction=1.5)
        LeaveBurst(at_round=1, fraction=1.0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            LeaveBurst(at_round=1, count=1, policy="explode")

    def test_drain_policy_accepted(self):
        assert LeaveBurst(at_round=1, count=2, policy="drain").policy == "drain"


class TestFlapping:
    def test_valid(self):
        Flapping(first_round=1, period=10, down_rounds=3, count=2)

    def test_down_rounds_must_fit_period(self):
        with pytest.raises(ConfigurationError):
            Flapping(first_round=1, period=5, down_rounds=5)
        with pytest.raises(ConfigurationError):
            Flapping(first_round=1, period=5, down_rounds=0)

    def test_last_round_after_first(self):
        with pytest.raises(ConfigurationError):
            Flapping(first_round=10, period=5, down_rounds=2, last_round=9)


class TestPoissonChurn:
    def test_valid(self):
        PoissonChurn(join_rate=0.5, leave_rate=0.5)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            PoissonChurn(join_rate=-0.1, leave_rate=0.5)

    def test_rejects_both_zero(self):
        with pytest.raises(ConfigurationError):
            PoissonChurn(join_rate=0.0, leave_rate=0.0)

    def test_window_ordering(self):
        with pytest.raises(ConfigurationError):
            PoissonChurn(join_rate=1.0, leave_rate=0.0, first_round=10, last_round=5)


class TestRamp:
    def test_valid(self):
        Ramp(start_round=5, end_round=20, target_n=100)

    def test_end_after_start(self):
        with pytest.raises(ConfigurationError):
            Ramp(start_round=5, end_round=5, target_n=100)

    def test_target_positive(self):
        with pytest.raises(ConfigurationError):
            Ramp(start_round=1, end_round=2, target_n=0)


class TestChurnSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not Schedule()
        assert Schedule(events=(JoinBurst(at_round=1, count=1),))

    def test_rejects_foreign_event_types(self):
        with pytest.raises(ConfigurationError):
            Schedule(events=("join",))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Schedule(min_n=0)
        with pytest.raises(ConfigurationError):
            Schedule(min_n=10, max_n=5)

    def test_events_normalised_to_tuple(self):
        schedule = Schedule(events=[JoinBurst(at_round=1, count=1)])
        assert isinstance(schedule.events, tuple)
