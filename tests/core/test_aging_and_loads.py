"""Tests for the acceptance-order ablation and load-distribution validation."""

import numpy as np
import pytest

from repro.core.capped import CappedProcess
from repro.core.meanfield import equilibrium, stationary_loads
from repro.engine.driver import SimulationDriver
from repro.engine.observers import AgeProfiler, LoadDistributionObserver
from repro.errors import ConfigurationError


class TestAcceptanceOrder:
    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError):
            CappedProcess(n=8, capacity=1, lam=0.5, acceptance_order="fifo")

    def test_youngest_first_deterministic_case(self):
        # One pool ball (label 0) and one new ball (label 1) compete for a
        # single slot: youngest-first accepts the *new* ball.
        process = CappedProcess(
            n=2, capacity=1, lam=0.5, rng=0, initial_pool=1, acceptance_order="youngest"
        )
        record = process.step(choices=np.zeros(2, dtype=np.int64))
        assert record.accepted == 1
        # Accepted ball is the fresh one: wait = (1-1) + 0 = 0.
        assert record.wait_values.tolist() == [0]
        # The old ball stays in the pool.
        assert process.pool.oldest_label == 0

    def test_pool_dynamics_identical_under_flip(self):
        # Acceptance counts per bin depend only on request counts, so with
        # shared choices the pool-size trajectory is identical.
        n, c, lam = 32, 2, 0.75
        oldest = CappedProcess(n=n, capacity=c, lam=lam, rng=0)
        youngest = CappedProcess(n=n, capacity=c, lam=lam, rng=0, acceptance_order="youngest")
        choice_rng = np.random.default_rng(11)
        for _ in range(100):
            thrown = oldest.pool.size + round(lam * n)
            choices = choice_rng.integers(0, n, size=thrown)
            a = oldest.step(choices=choices)
            b = youngest.step(choices=choices)
            assert a.pool_size == b.pool_size
            assert a.accepted == b.accepted
            assert a.max_load == b.max_load

    def test_youngest_first_starves_the_tail(self):
        driver_kwargs = dict(burn_in=600, measure=600)
        lam = 1 - 2**-8
        results = {}
        for order in ("oldest", "youngest"):
            profiler = AgeProfiler()
            process = CappedProcess(n=512, capacity=2, lam=lam, rng=5, acceptance_order=order)
            result = SimulationDriver(**driver_kwargs, observers=[profiler]).run(process)
            results[order] = (result, profiler)
        oldest_result, _ = results["oldest"]
        youngest_result, youngest_prof = results["youngest"]
        assert youngest_result.max_wait >= 3 * oldest_result.max_wait
        assert youngest_prof.peak_age > 3 * oldest_result.max_wait
        # The averages stay close (same pool dynamics).
        assert youngest_result.avg_wait == pytest.approx(oldest_result.avg_wait, rel=0.15)


class TestLoadDistribution:
    def test_empty_observer(self):
        observer = LoadDistributionObserver()
        assert observer.distribution().size == 0

    def test_ignores_processes_without_bins(self):
        from repro.processes.greedy import GreedyBatchProcess

        observer = LoadDistributionObserver()
        process = GreedyBatchProcess(n=16, d=2, lam=0.75, rng=0)
        SimulationDriver(burn_in=0, measure=5, observers=[observer]).run(process)
        # GREEDY exposes `loads` but not `bins`, so nothing is recorded.
        assert observer.rounds_observed == 0

    def test_distribution_sums_to_one(self):
        observer = LoadDistributionObserver()
        process = CappedProcess(n=64, capacity=2, lam=0.75, rng=1)
        SimulationDriver(burn_in=50, measure=100, observers=[observer]).run(process)
        dist = observer.distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert len(dist) <= 3  # loads 0..c

    @pytest.mark.parametrize("c,lam", [(1, 0.75), (2, 0.875), (3, 1 - 2**-6)])
    def test_matches_meanfield_stationary_loads(self, c, lam):
        # The strongest mean-field check: the whole load *distribution*,
        # not just its mean, matches the fluid-limit chain.
        observer = LoadDistributionObserver()
        eq = equilibrium(c, lam)
        process = CappedProcess(n=2048, capacity=c, lam=lam, rng=2, initial_pool=eq.pool_size(2048))
        SimulationDriver(burn_in=300, measure=400, observers=[observer]).run(process)
        empirical = observer.distribution()
        predicted = stationary_loads(eq.throw_intensity, c)
        assert len(empirical) <= len(predicted)
        padded = np.zeros(len(predicted))
        padded[: len(empirical)] = empirical
        assert np.abs(padded - predicted).max() < 0.05
