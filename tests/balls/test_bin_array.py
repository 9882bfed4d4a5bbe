"""Unit tests for the vectorised BinArray, driven through the round API."""

import numpy as np
import pytest

from repro.balls.bin_array import BinArray
from repro.errors import ConfigurationError, InvariantViolation

from tests.rounds import fill, run_round


class TestConstruction:
    def test_starts_empty(self):
        bins = BinArray(n=4, capacity=2)
        assert bins.total_load == 0
        assert bins.loads.tolist() == [0, 0, 0, 0]

    def test_rejects_zero_bins(self):
        with pytest.raises(ConfigurationError):
            BinArray(n=0, capacity=1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            BinArray(n=4, capacity=0)

    def test_none_capacity_is_unbounded(self):
        bins = BinArray(n=2, capacity=None)
        assert run_round(bins, [10**6, 0]).accepted_total == 10**6
        assert bins.loads.tolist() == [10**6 - 1, 0]


class TestAccept:
    def test_caps_at_capacity(self):
        bins = BinArray(n=3, capacity=2)
        resolved = run_round(bins, [5, 1, 0])
        assert resolved.accepted_total == 3
        assert resolved.peak_load == 2
        # Queue positions: two balls at bin 0 (0 and 1), one at bin 1.
        assert resolved.wait_values.tolist() == [0, 1]
        assert resolved.wait_counts.tolist() == [2, 1]
        assert bins.loads.tolist() == [1, 0, 0]  # after the FIFO deletion

    def test_respects_existing_load(self):
        bins = BinArray(n=2, capacity=3)
        run_round(bins, [3, 0])
        assert bins.loads.tolist() == [2, 0]
        resolved = run_round(bins, [5, 5])
        # Bin 0 takes one ball, at queue position 2; bin 1 takes three.
        assert resolved.accepted_total == 4
        assert resolved.wait_values.tolist() == [0, 1, 2]
        assert resolved.wait_counts.tolist() == [1, 1, 2]

    def test_free_slots(self):
        bins = BinArray(n=2, capacity=3)
        fill(bins, [1, 3])
        # Room is c − ℓ: two balls for bin 0, none for the full bin 1.
        assert run_round(bins, [9, 9]).accepted_total == 2
        assert bins.loads.tolist() == [2, 2]


class TestDeletion:
    def test_delete_one_each_decrements_nonempty(self):
        bins = BinArray(n=3, capacity=2)
        fill(bins, [2, 1, 0])
        assert run_round(bins, [0, 0, 0]).deleted == 2
        assert bins.loads.tolist() == [1, 0, 0]

    def test_delete_on_empty_bins_is_zero(self):
        bins = BinArray(n=3, capacity=2)
        assert run_round(bins, [0, 0, 0]).deleted == 0

    def test_loads_never_negative(self):
        bins = BinArray(n=2, capacity=1)
        fill(bins, [1, 0])
        run_round(bins, [0, 0])
        run_round(bins, [0, 0])
        assert bins.loads.min() == 0


class TestAccounting:
    def test_peak_load(self):
        bins = BinArray(n=2, capacity=5)
        run_round(bins, [4, 1])
        run_round(bins, [0, 0])
        assert bins.peak_load == 4

    def test_totals(self):
        bins = BinArray(n=2, capacity=2)
        run_round(bins, [3, 1])  # one rejected
        assert bins.total_accepted == 3
        assert bins.total_deleted == 2

    def test_check_invariants_detects_overload(self):
        bins = BinArray(n=2, capacity=1)
        bins.loads[0] = 5  # simulate corruption
        with pytest.raises(InvariantViolation):
            bins.check_invariants()

    def test_check_invariants_detects_negative(self):
        bins = BinArray(n=2, capacity=1)
        bins.loads[1] = -1
        with pytest.raises(InvariantViolation):
            bins.check_invariants()


class TestFreeSlotsCache:
    """Room per bin is c − ℓ, clamped at 0 and masked at down bins; O(1) total load."""

    def test_cache_tracks_accept_and_delete(self):
        bins = BinArray(n=4, capacity=3)
        run_round(bins, [5, 2, 0, 1])
        assert bins.loads.tolist() == [2, 1, 0, 0]
        bins.check_invariants()
        # The next round's room is 1, 2, 3 and 3.
        assert run_round(bins, [5, 5, 5, 5]).accepted_total == 9
        assert bins.loads.tolist() == [2, 2, 2, 2]
        bins.check_invariants()

    def test_unbounded_cache_is_sentinel(self):
        bins = BinArray(n=3, capacity=None)
        run_round(bins, [10, 0, 4])
        assert run_round(bins, [10, 0, 4]).accepted_total == 14
        assert bins.loads.tolist() == [18, 0, 6]
        bins.check_invariants()

    def test_degradation_clamps_free_at_zero(self):
        # Shrinking capacity below the load leaves no room (not negative
        # room), and the bin takes nothing until it drains back under its
        # new capacity.
        bins = BinArray(n=2, capacity=3)
        fill(bins, [3, 1])
        bins.set_capacity(1)
        assert run_round(bins, [2, 2]).accepted_total == 0
        assert bins.loads.tolist() == [2, 0]
        bins.check_invariants()
        assert run_round(bins, [2, 2]).accepted_total == 1  # bin 0 still over capacity
        assert bins.loads.tolist() == [1, 0]
        assert run_round(bins, [2, 2]).accepted_total == 1  # bin 0 exactly at capacity
        assert bins.loads.tolist() == [0, 0]
        bins.check_invariants()

    def test_down_bins_masked_without_corrupting_cache(self):
        bins = BinArray(n=3, capacity=2)
        fill(bins, [1, 1, 1])
        bins.set_down([1])
        # The down bin takes nothing and keeps its ball.
        assert run_round(bins, [2, 2, 2]).accepted_total == 2
        assert bins.loads.tolist() == [1, 1, 1]
        bins.set_up([1])
        assert run_round(bins, [2, 2, 2]).accepted_total == 3
        bins.check_invariants()

    def test_wipe_refreshes_cache_and_counter(self):
        bins = BinArray(n=2, capacity=2)
        fill(bins, [2, 1])
        wiped = bins.set_down([0], wipe=True)
        assert wiped == 2
        assert bins.total_load == 1
        bins.set_up([0])
        assert run_round(bins, [2, 2]).accepted_total == 3
        bins.check_invariants()

    def test_total_load_counter_is_exact(self):
        rng = np.random.default_rng(0)
        bins = BinArray(n=8, capacity=3)
        for _ in range(50):
            run_round(bins, rng.integers(0, 4, size=8))
            assert bins.total_load == int(bins.loads.sum())
        bins.check_invariants()

    def test_state_roundtrip_rebuilds_cache(self):
        bins = BinArray(n=4, capacity=2)
        fill(bins, [2, 1, 0, 2])
        restored = BinArray(n=4, capacity=2)
        restored.set_state(bins.get_state())
        assert restored.total_load == bins.total_load
        taken = run_round(bins, [2] * 4).accepted_total
        assert run_round(restored, [2] * 4).accepted_total == taken
        assert restored.loads.tolist() == bins.loads.tolist()

    def test_invariants_detect_stale_total(self):
        bins = BinArray(n=2, capacity=2)
        run_round(bins, [2, 0])
        bins._total_load = 7
        with pytest.raises(InvariantViolation):
            bins.check_invariants()
