"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.arrivals import (
    AdversarialArrivals,
    ArrivalProcess,
    BernoulliArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
)


class TestDeterministic:
    def test_exact_count(self, rng):
        arrivals = DeterministicArrivals(n=100, lam=0.75)
        assert arrivals.arrivals(1, rng) == 75
        assert arrivals.per_round == 75

    def test_non_integral_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicArrivals(n=100, lam=0.111)

    def test_lambda_range(self):
        with pytest.raises(ConfigurationError):
            DeterministicArrivals(n=100, lam=1.0)
        with pytest.raises(ConfigurationError):
            DeterministicArrivals(n=100, lam=-0.1)

    def test_zero_rate(self, rng):
        assert DeterministicArrivals(n=10, lam=0.0).arrivals(1, rng) == 0

    def test_mean_rate(self):
        assert DeterministicArrivals(n=8, lam=0.5).mean_rate == 0.5

    def test_protocol_conformance(self):
        assert isinstance(DeterministicArrivals(n=8, lam=0.5), ArrivalProcess)


class TestBernoulli:
    def test_mean_close_to_lambda_n(self, rng):
        arrivals = BernoulliArrivals(n=1000, lam=0.3)
        samples = [arrivals.arrivals(t, rng) for t in range(500)]
        assert np.mean(samples) == pytest.approx(300, rel=0.05)

    def test_bounded_by_n(self, rng):
        arrivals = BernoulliArrivals(n=50, lam=0.9)
        assert all(arrivals.arrivals(t, rng) <= 50 for t in range(200))


class TestPoisson:
    def test_mean_close_to_lambda_n(self, rng):
        arrivals = PoissonArrivals(n=1000, lam=0.3)
        samples = [arrivals.arrivals(t, rng) for t in range(500)]
        assert np.mean(samples) == pytest.approx(300, rel=0.05)

    def test_variance_close_to_mean(self, rng):
        arrivals = PoissonArrivals(n=1000, lam=0.5)
        samples = [arrivals.arrivals(t, rng) for t in range(2000)]
        assert np.var(samples) == pytest.approx(500, rel=0.15)


class TestBursty:
    def test_alternation(self, rng):
        arrivals = BurstyArrivals(n=100, lam_high=1.0, lam_low=0.0, on_rounds=2, off_rounds=3)
        counts = [arrivals.arrivals(t, rng) for t in range(1, 11)]
        assert counts == [100, 100, 0, 0, 0, 100, 100, 0, 0, 0]

    def test_mean_rate(self):
        arrivals = BurstyArrivals(n=100, lam_high=1.0, lam_low=0.5, on_rounds=1, off_rounds=1)
        assert arrivals.mean_rate == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(n=10, lam_high=0.2, lam_low=0.5, on_rounds=1, off_rounds=1)
        with pytest.raises(ConfigurationError):
            BurstyArrivals(n=10, lam_high=0.9, lam_low=0.5, on_rounds=0, off_rounds=1)


class TestAdversarial:
    def test_schedule_respected(self, rng):
        arrivals = AdversarialArrivals(n=10, schedule=lambda t: t * 2)
        assert arrivals.arrivals(3, rng) == 6

    def test_negative_schedule_rejected(self, rng):
        arrivals = AdversarialArrivals(n=10, schedule=lambda t: -1)
        with pytest.raises(ConfigurationError):
            arrivals.arrivals(1, rng)
