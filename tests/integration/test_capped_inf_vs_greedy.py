"""Integration: CAPPED(∞, λ) ≡ GREEDY[1] (paper Section II).

With no capacity limit every ball is accepted by its sampled bin, so the
two implementations — one pool-based, one load-vector-based — simulate the
same process. We check distributional equality of their steady-state
statistics and exact equality of their per-round semantics under shared
randomness.
"""

import numpy as np
import pytest

from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.processes.greedy import GreedyBatchProcess
from tests.processes.test_greedy import _ranks_within_groups


def test_statistics_match_distributionally():
    driver = SimulationDriver(burn_in=400, measure=400)
    capped = driver.run(CappedProcess(n=512, capacity=None, lam=0.875, rng=1))
    greedy = driver.run(GreedyBatchProcess(n=512, d=1, lam=0.875, rng=2))
    assert capped.avg_wait == pytest.approx(greedy.avg_wait, rel=0.1)
    assert capped.max_wait == pytest.approx(greedy.max_wait, abs=4)
    assert capped.summary.peak_max_load == pytest.approx(greedy.summary.peak_max_load, abs=4)


def test_identical_under_shared_choices():
    n, lam, rounds = 64, 0.75, 80
    capped = CappedProcess(n=n, capacity=None, lam=lam, rng=0)
    greedy = GreedyBatchProcess(n=n, d=1, lam=lam, rng=0)
    choice_rng = np.random.default_rng(5)
    arrivals = round(lam * n)
    for _ in range(rounds):
        choices = choice_rng.integers(0, n, size=arrivals)
        # The sort-based oracle: each ball waits its bin's start load plus
        # its rank among this round's arrivals to that bin.
        oracle_waits = greedy.loads[choices] + _ranks_within_groups(choices)

        capped_record = capped.step(choices=choices)
        # Drive GREEDY with the same committed bins.
        greedy.commit_bins = lambda count, committed=choices: committed
        greedy_record = greedy.step()

        assert capped_record.accepted == greedy_record.accepted == arrivals
        # Load vectors identical after the round.
        assert capped.bins.loads.tolist() == greedy.loads.tolist()
        assert capped_record.max_load == greedy_record.max_load
        assert capped_record.total_load == greedy_record.total_load
        # Wait histograms identical to each other and to the oracle's.
        expected_values, expected_counts = np.unique(oracle_waits, return_counts=True)
        for record in (capped_record, greedy_record):
            assert record.wait_values.tolist() == expected_values.tolist()
            assert record.wait_counts.tolist() == expected_counts.tolist()


def test_pool_always_empty_for_infinite_capacity():
    capped = CappedProcess(n=128, capacity=None, lam=0.9375, rng=3)
    for _ in range(100):
        assert capped.step().pool_size == 0
