"""Integration: invariants and conservation laws over long runs.

Runs every round-based process with a periodic invariant-checking observer
and verifies global conservation (generated = served + in flight) under
deterministic, stochastic, and bursty arrival models.
"""

import pytest

from repro.core.capped import CappedProcess
from repro.core.modcapped import ModCappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import InvariantChecker, TraceRecorder
from repro.processes.greedy import GreedyBatchProcess
from repro.workloads.arrivals import BernoulliArrivals, BurstyArrivals, PoissonArrivals


class TestInvariantSweeps:
    @pytest.mark.parametrize("c", [1, 2, 5, None])
    def test_capped_invariants_hold(self, c):
        process = CappedProcess(n=128, capacity=c, lam=0.875, rng=0)
        checker = InvariantChecker(every=1)
        SimulationDriver(burn_in=0, measure=300, observers=[checker]).run(process)
        assert checker.checks_run == 300

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 7])
    def test_modcapped_invariants_hold(self, c):
        process = ModCappedProcess(n=64, c=c, lam=0.75, rng=c)
        checker = InvariantChecker(every=1)
        SimulationDriver(burn_in=0, measure=20 * c + 100, observers=[checker]).run(process)

    def test_greedy_invariants_hold(self):
        process = GreedyBatchProcess(n=128, d=2, lam=0.875, rng=1)
        SimulationDriver(burn_in=0, measure=300, observers=[InvariantChecker()]).run(process)


class TestConservation:
    def _check_capped_conservation(self, process, rounds):
        trace = TraceRecorder()
        SimulationDriver(burn_in=0, measure=rounds, observers=[trace]).run(process)
        generated = sum(r.arrivals for r in trace.records)
        deleted = sum(r.deleted for r in trace.records)
        final = trace.records[-1]
        assert generated == deleted + final.pool_size + final.total_load

    def test_deterministic_arrivals(self):
        self._check_capped_conservation(
            CappedProcess(n=64, capacity=2, lam=0.75, rng=3), rounds=200
        )

    def test_bernoulli_arrivals(self):
        arrivals = BernoulliArrivals(n=64, lam=0.75)
        self._check_capped_conservation(
            CappedProcess(n=64, capacity=2, lam=0.75, rng=4, arrivals=arrivals),
            rounds=200,
        )

    def test_poisson_arrivals(self):
        arrivals = PoissonArrivals(n=64, lam=0.5)
        self._check_capped_conservation(
            CappedProcess(n=64, capacity=1, lam=0.5, rng=5, arrivals=arrivals),
            rounds=200,
        )

    def test_bursty_arrivals(self):
        arrivals = BurstyArrivals(n=64, lam_high=1.0, lam_low=0.25, on_rounds=10, off_rounds=10)
        self._check_capped_conservation(
            CappedProcess(n=64, capacity=3, lam=0.625, rng=6, arrivals=arrivals),
            rounds=200,
        )


class TestStochasticArrivalStability:
    def test_bernoulli_model_matches_deterministic_in_steady_state(self):
        # Paper footnote 2: results carry over to probabilistic generation.
        driver = SimulationDriver(burn_in=500, measure=500)
        deterministic = driver.run(CappedProcess(n=512, capacity=2, lam=0.875, rng=7))
        probabilistic = driver.run(
            CappedProcess(
                n=512,
                capacity=2,
                lam=0.875,
                rng=8,
                arrivals=BernoulliArrivals(n=512, lam=0.875),
            )
        )
        assert probabilistic.normalized_pool == pytest.approx(
            deterministic.normalized_pool, rel=0.2
        )

    def test_pool_recovers_after_burst(self):
        arrivals = BurstyArrivals(n=256, lam_high=1.0, lam_low=0.0, on_rounds=50, off_rounds=50)
        process = CappedProcess(n=256, capacity=2, lam=0.5, rng=9, arrivals=arrivals)
        trace = TraceRecorder()
        SimulationDriver(burn_in=0, measure=400, observers=[trace]).run(process)
        pools = trace.pool_sizes()
        # At the end of each off phase the pool must have drained well
        # below its in-burst peak.
        assert pools[99] < max(pools[50:99])
        assert pools[199] <= pools[150]
