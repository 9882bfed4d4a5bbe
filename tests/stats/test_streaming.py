"""Unit tests for streaming statistics collectors."""

import math

import numpy as np
import pytest

from repro.stats.streaming import Histogram, RunningStats


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.min == math.inf

    def test_mean_and_variance_match_numpy(self, rng):
        data = rng.normal(5, 2, size=500)
        stats = RunningStats()
        stats.add_many(data)
        assert stats.mean == pytest.approx(float(np.mean(data)))
        assert stats.variance == pytest.approx(float(np.var(data, ddof=1)))

    def test_weighted_equals_repeated(self):
        weighted = RunningStats()
        repeated = RunningStats()
        for value, weight in [(1.0, 3), (4.0, 2), (2.5, 5)]:
            weighted.add(value, weight)
            for _ in range(weight):
                repeated.add(value)
        assert weighted.mean == pytest.approx(repeated.mean)
        assert weighted.variance == pytest.approx(repeated.variance)
        assert weighted.count == repeated.count

    def test_min_max(self):
        stats = RunningStats()
        stats.add_many([3.0, -1.0, 7.0])
        assert stats.min == -1.0
        assert stats.max == 7.0

    def test_zero_weight_ignored(self):
        stats = RunningStats()
        stats.add(100.0, weight=0)
        assert stats.count == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RunningStats().add(1.0, weight=-1)

    def test_merge_matches_combined(self, rng):
        a_data = rng.normal(0, 1, 200)
        b_data = rng.normal(3, 2, 300)
        a, b, combined = RunningStats(), RunningStats(), RunningStats()
        a.add_many(a_data)
        b.add_many(b_data)
        combined.add_many(np.concatenate([a_data, b_data]))
        a.merge(b)
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.count == combined.count

    def test_merge_into_empty(self):
        a, b = RunningStats(), RunningStats()
        b.add_many([1.0, 2.0])
        a.merge(b)
        assert a.mean == 1.5

    def test_merge_empty_is_noop(self):
        a, b = RunningStats(), RunningStats()
        a.add(5.0)
        a.merge(b)
        assert a.count == 1


class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.total == 0
        assert hist.max == -1
        assert hist.min == -1

    def test_add_and_moments(self):
        hist = Histogram()
        hist.add(1, 2)
        hist.add(3, 2)
        assert hist.total == 4
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1
        assert hist.max == 3

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)

    def test_grows_on_demand(self):
        hist = Histogram(initial_size=2)
        hist.add(1000)
        assert hist.max == 1000

    def test_add_array(self):
        hist = Histogram()
        hist.add_array(np.array([0, 5, 5]), np.array([1, 2, 3]))
        assert hist.total == 6
        assert hist.counts().tolist() == [1, 0, 0, 0, 0, 5]

    def test_add_empty_array(self):
        hist = Histogram()
        hist.add_array(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert hist.total == 0

    def test_quantiles_exact(self):
        hist = Histogram()
        for value in [0, 0, 1, 2, 2, 2, 3, 10]:
            hist.add(value)
        assert hist.quantile(0.0) == 0
        assert hist.quantile(0.5) == 2
        assert hist.quantile(1.0) == 10

    def test_quantile_of_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().quantile(0.5)

    def test_quantile_out_of_range_rejected(self):
        hist = Histogram()
        hist.add(1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(1, 2)
        b.add(1, 1)
        b.add(400, 1)
        a.merge(b)
        assert a.total == 4
        assert a.max == 400

    def test_mean_matches_numpy(self, rng):
        values = rng.integers(0, 30, size=1000)
        hist = Histogram()
        for value in values:
            hist.add(int(value))
        assert hist.mean == pytest.approx(float(values.mean()))
