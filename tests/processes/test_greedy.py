"""Unit tests for batch GREEDY[d] with leaky bins.

The sort-based step that ranks every ball within its bin (stable argsort,
``np.unique`` over per-ball waits, ``argmin`` commit) lives here as the
oracle; the process itself counts intervals instead and must agree with
it record for record.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine.driver import SimulationDriver
from repro.engine.metrics import RoundRecord
from repro.errors import ConfigurationError
from repro.processes.greedy import GreedyBatchProcess, interval_wait_histogram, least_loaded
from repro.workloads.arrivals import PoissonArrivals

_EMPTY = np.zeros(0, dtype=np.int64)


def _ranks_within_groups(groups: np.ndarray) -> np.ndarray:
    """Arrival rank of each element among equal values of ``groups``.

    ``groups[k]`` is the bin ball ``k`` committed to; the result gives each
    ball its 0-based position among this round's arrivals to the same bin,
    in ball order (the arbitrary-but-fixed batch tie-break).
    """
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    boundaries = np.empty(len(groups), dtype=bool)
    if len(groups):
        boundaries[0] = True
        boundaries[1:] = sorted_groups[1:] != sorted_groups[:-1]
    group_starts = np.where(boundaries, np.arange(len(groups)), 0)
    np.maximum.accumulate(group_starts, out=group_starts)
    ranks_sorted = np.arange(len(groups)) - group_starts
    ranks = np.empty(len(groups), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def oracle_histogram(loads: np.ndarray, committed: np.ndarray):
    """Per-ball waits (start load + rank within the bin), then ``np.unique``."""
    if not len(committed):
        return _EMPTY, _EMPTY
    waits = loads[committed] + _ranks_within_groups(committed)
    return np.unique(waits, return_counts=True)


def oracle_commit(probes: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Least-loaded probe per row via ``argmin`` (first minimum wins ties)."""
    best = np.argmin(loads[probes], axis=1)
    return probes[np.arange(len(probes)), best]


class OracleGreedy(GreedyBatchProcess):
    """GREEDY[d] stepped the sort-based way: rank every ball in its bin."""

    def commit_bins(self, arrivals: int) -> np.ndarray:
        if arrivals == 0:
            return _EMPTY
        choices = self.rng.integers(0, self.n, size=(arrivals, self.d))
        if self.d == 1:
            return choices[:, 0]
        return oracle_commit(choices, self.loads)

    def step(self) -> RoundRecord:
        self.round += 1
        generated = self.arrivals.arrivals(self.round, self.rng)
        committed = self.commit_bins(generated)
        wait_values, wait_counts = oracle_histogram(self.loads, committed)
        self.loads += np.bincount(committed, minlength=self.n)
        self.peak_load = max(self.peak_load, int(self.loads.max()))
        nonempty = self.loads > 0
        deleted = int(np.count_nonzero(nonempty))
        self.loads[nonempty] -= 1
        return RoundRecord(
            round=self.round,
            arrivals=generated,
            thrown=generated,
            accepted=generated,
            deleted=deleted,
            pool_size=0,
            total_load=int(self.loads.sum()),
            max_load=int(self.loads.max()),
            wait_values=wait_values,
            wait_counts=wait_counts,
        )


def assert_same_histogram(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist()


class TestRanks:
    def test_single_group(self):
        ranks = _ranks_within_groups(np.array([2, 2, 2]))
        assert ranks.tolist() == [0, 1, 2]

    def test_interleaved_groups(self):
        ranks = _ranks_within_groups(np.array([0, 1, 0, 1, 0]))
        assert ranks.tolist() == [0, 0, 1, 1, 2]

    def test_empty(self):
        assert _ranks_within_groups(np.zeros(0, dtype=np.int64)).size == 0

    def test_stable_order_within_group(self):
        # Ball order is preserved within a bin (the batch tie-break).
        groups = np.array([3, 1, 3, 3, 1])
        ranks = _ranks_within_groups(groups)
        assert ranks.tolist() == [0, 0, 1, 2, 1]


def histogram_of(loads, committed):
    loads = np.asarray(loads, dtype=np.int64)
    committed = np.asarray(committed, dtype=np.int64)
    requests = np.bincount(committed, minlength=len(loads))
    return interval_wait_histogram(loads, requests), oracle_histogram(loads, committed)


class TestIntervalHistogram:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 10_000), min_size=n, max_size=n),
                st.lists(st.integers(0, n - 1), max_size=120),
            )
        )
    )
    def test_matches_per_ball_ranks(self, case):
        loads, committed = case
        assert_same_histogram(*histogram_of(loads, committed))

    def test_empty_round(self):
        got, expected = histogram_of([3, 0, 7], [])
        assert_same_histogram(got, expected)
        assert got[0].size == 0

    def test_all_balls_in_one_bin(self):
        got, expected = histogram_of([0, 5, 2], [1] * 50)
        assert_same_histogram(got, expected)
        assert got[0].tolist() == list(range(5, 55))
        assert set(got[1].tolist()) == {1}

    def test_large_loads(self):
        rng = np.random.default_rng(0)
        loads = rng.integers(0, 10_001, size=256)
        committed = rng.integers(0, 256, size=4096)
        assert_same_histogram(*histogram_of(loads, committed))


class TestLeastLoaded:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_argmin_ties_included(self, d):
        rng = np.random.default_rng(d)
        for n, top in ((4, 2), (64, 3), (1024, 50)):
            # Few distinct load values, so ties among probes are common.
            loads = rng.integers(0, top, size=n)
            probes = rng.integers(0, n, size=(2000, d))
            assert least_loaded(probes, loads).tolist() == oracle_commit(probes, loads).tolist()

    def test_first_minimum_wins(self):
        loads = np.array([1, 0, 0, 1])
        probes = np.array([[1, 2], [2, 1], [0, 3], [3, 0], [0, 1]])
        assert least_loaded(probes, loads).tolist() == [1, 2, 0, 3, 1]


def greedy_cases():
    for d in (1, 2, 3):
        yield dict(n=1, d=d, lam=0.5, arrivals=PoissonArrivals(n=1, lam=0.5))
        yield dict(n=1, d=d, lam=0.9, arrivals=PoissonArrivals(n=1, lam=0.9))
        for n in (64, 1024):
            for lam in (0.0, 0.75, 1 - 2**-6):
                yield dict(n=n, d=d, lam=lam)
        yield dict(n=1024, d=d, lam=1 - 2**-10)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "config", list(greedy_cases()), ids=lambda c: f"n{c['n']}-d{c['d']}-lam{c['lam']}"
    )
    def test_records_match_sort_based_step(self, config):
        fast = GreedyBatchProcess(rng=17, **config)
        oracle = OracleGreedy(rng=17, **config)
        for _ in range(200):
            a, b = fast.step(), oracle.step()
            for field in (
                "round",
                "arrivals",
                "thrown",
                "accepted",
                "deleted",
                "pool_size",
                "total_load",
                "max_load",
            ):
                assert getattr(a, field) == getattr(b, field), (field, a.round)
            assert_same_histogram((a.wait_values, a.wait_counts), (b.wait_values, b.wait_counts))
        assert fast.peak_load == oracle.peak_load
        assert fast.loads.tolist() == oracle.loads.tolist()


class TestConfiguration:
    def test_rejects_bad_d(self):
        with pytest.raises(ConfigurationError):
            GreedyBatchProcess(n=8, d=0, lam=0.5)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            GreedyBatchProcess(n=0, d=1, lam=0.5)

    def test_rejects_non_integral_rate(self):
        with pytest.raises(ConfigurationError):
            GreedyBatchProcess(n=10, d=1, lam=0.123)


class TestDynamics:
    def test_never_rejects_balls(self):
        process = GreedyBatchProcess(n=32, d=2, lam=0.75, rng=0)
        for _ in range(50):
            record = process.step()
            assert record.accepted == record.arrivals
            assert record.pool_size == 0

    def test_conservation(self):
        process = GreedyBatchProcess(n=32, d=2, lam=0.75, rng=1)
        arrived = deleted = 0
        for _ in range(60):
            record = process.step()
            arrived += record.arrivals
            deleted += record.deleted
        assert arrived == deleted + record.total_load

    def test_wait_counts_match_arrivals(self):
        process = GreedyBatchProcess(n=32, d=1, lam=0.5, rng=2)
        for _ in range(30):
            record = process.step()
            assert record.wait_total == record.arrivals

    def test_two_choices_balance_better(self):
        driver = SimulationDriver(burn_in=300, measure=300)
        one = driver.run(GreedyBatchProcess(n=256, d=1, lam=0.9375, rng=3))
        two = driver.run(GreedyBatchProcess(n=256, d=2, lam=0.9375, rng=3))
        assert two.max_wait < one.max_wait

    def test_d1_commit_is_uniform(self, rng):
        process = GreedyBatchProcess(n=4, d=1, lam=0.75, rng=4)
        counts = np.zeros(4)
        for _ in range(500):
            counts += np.bincount(process.commit_bins(3), minlength=4)
        assert counts.min() > 0.7 * counts.max()

    def test_commit_prefers_less_loaded(self):
        process = GreedyBatchProcess(n=2, d=2, lam=0.5, rng=5)
        process.loads[:] = [10, 0]
        committed = process.commit_bins(100)
        # With d=2, a ball only lands in bin 0 if both probes hit bin 0.
        assert np.count_nonzero(committed == 1) > np.count_nonzero(committed == 0)

    def test_empty_round(self):
        process = GreedyBatchProcess(n=8, d=2, lam=0.0, rng=6)
        record = process.step()
        assert record.arrivals == 0
        assert record.wait_total == 0

    def test_check_invariants(self):
        process = GreedyBatchProcess(n=16, d=2, lam=0.5, rng=7)
        for _ in range(20):
            process.step()
        process.check_invariants()


class TestWaitingTimeIdentity:
    def test_wait_equals_queue_position(self):
        # Deterministic single-bin check: positions accumulate across the
        # batch and drain one per round.
        process = GreedyBatchProcess(n=1, d=1, lam=0.0, rng=8)
        process.loads[0] = 2
        record = process.step()
        assert record.deleted == 1
        process2 = GreedyBatchProcess(n=1, d=1, lam=0.0, rng=9)

        # inject three balls manually via commit path
        class ThreeArrivals:
            mean_rate = 0.0

            def arrivals(self, t, rng):
                return 3 if t == 1 else 0

        process2.arrivals = ThreeArrivals()
        record = process2.step()
        assert sorted(np.repeat(record.wait_values, record.wait_counts)) == [0, 1, 2]
