"""Unit tests for stochastic-dominance utilities."""

import pytest

from repro.stats.dominance import coupled_dominance_report


class TestCoupledDominance:
    def test_holds(self):
        report = coupled_dominance_report([1, 2, 3], [1, 2, 4])
        assert report.holds
        assert report.violations == 0
        assert report.worst_gap <= 0

    def test_violation_counted(self):
        report = coupled_dominance_report([1, 5, 3], [1, 2, 4])
        assert not report.holds
        assert report.violations == 1
        assert report.worst_gap == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coupled_dominance_report([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coupled_dominance_report([], [])

    def test_str_mentions_status(self):
        assert "holds" in str(coupled_dominance_report([1], [2]))
        assert "VIOLATED" in str(coupled_dominance_report([2], [1]))
