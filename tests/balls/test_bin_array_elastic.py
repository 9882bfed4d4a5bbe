"""Elastic-membership tests for :class:`repro.balls.bin_array.BinArray`.

Covers grow (capacity inheritance rules), shrink (all three removal
policies and their validation), seal/unseal draining semantics, the
round kernels' ceiling view of draining/down/unbounded bins, and
checkpoint restore across a membership change.
"""

import numpy as np
import pytest

from repro.balls.bin_array import BinArray
from repro.errors import ConfigurationError

from tests.rounds import fill, run_round


class TestGrow:
    def test_appends_trailing_empty_bins(self):
        bins = BinArray(4, capacity=3)
        fill(bins, [1, 2, 3, 0])
        new = bins.grow(2)
        assert new.tolist() == [4, 5]
        assert bins.n == 6
        assert bins.loads.tolist() == [1, 2, 3, 0, 0, 0]
        bins.check_invariants()

    def test_scalar_capacity_stays_scalar_on_inherit(self):
        bins = BinArray(4, capacity=3)
        bins.grow(2)
        assert np.isscalar(bins.capacity) and bins.capacity == 3
        assert run_round(bins, [5] * 6).accepted_total == 3 * 6

    def test_different_capacity_goes_per_bin(self):
        bins = BinArray(4, capacity=3)
        bins.grow(2, capacity=5)
        assert not np.isscalar(bins.capacity)
        assert bins.capacity.tolist() == [3, 3, 3, 3, 5, 5]

    def test_per_bin_array_inherits_max(self):
        bins = BinArray(3, capacity=np.array([2, 4, 3]))
        bins.grow(1)
        assert bins.capacity.tolist() == [2, 4, 3, 4]

    def test_unbounded_stays_unbounded(self):
        bins = BinArray(3, capacity=None)
        bins.grow(2)
        assert bins.capacity is None
        assert bins.n == 5

    def test_explicit_capacity_on_unbounded_rejected(self):
        bins = BinArray(3, capacity=None)
        with pytest.raises(ConfigurationError):
            bins.grow(2, capacity=4)

    def test_rejects_zero_count_and_bad_capacity(self):
        bins = BinArray(3, capacity=2)
        with pytest.raises(ConfigurationError):
            bins.grow(0)
        with pytest.raises(ConfigurationError):
            bins.grow(1, capacity=0)


class TestShrink:
    def test_rehash_reports_displaced_and_compacts(self):
        bins = BinArray(5, capacity=4)
        fill(bins, [1, 2, 3, 4, 0])
        displaced = bins.shrink(np.array([1, 3]), policy="rehash")
        assert displaced == 6
        assert bins.n == 3
        assert bins.loads.tolist() == [1, 3, 0]
        assert bins.total_load == 4
        bins.check_invariants()

    def test_drop_reports_displaced_too(self):
        bins = BinArray(4, capacity=4)
        fill(bins, [2, 2, 0, 0])
        assert bins.shrink(np.array([0]), policy="drop") == 2
        assert bins.loads.tolist() == [2, 0, 0]

    def test_duplicate_indices_collapse(self):
        bins = BinArray(4, capacity=2)
        assert bins.shrink(np.array([2, 2, 2]), policy="drop") == 0
        assert bins.n == 3

    def test_rejects_out_of_range(self):
        bins = BinArray(4, capacity=2)
        with pytest.raises(ConfigurationError):
            bins.shrink(np.array([4]))
        with pytest.raises(ConfigurationError):
            bins.shrink(np.array([-1]))

    def test_rejects_removing_every_bin(self):
        bins = BinArray(3, capacity=2)
        with pytest.raises(ConfigurationError):
            bins.shrink(np.array([0, 1, 2]))

    def test_rejects_unknown_policy(self):
        bins = BinArray(3, capacity=2)
        with pytest.raises(ConfigurationError):
            bins.shrink(np.array([0]), policy="explode")

    def test_per_bin_capacity_compacts_with_membership(self):
        bins = BinArray(4, capacity=np.array([2, 3, 4, 5]))
        bins.shrink(np.array([1]), policy="drop")
        assert bins.capacity.tolist() == [2, 4, 5]
        bins.check_invariants()


class TestDrain:
    def test_drain_requires_empty_bins(self):
        bins = BinArray(4, capacity=3)
        fill(bins, [0, 2, 0, 0])
        with pytest.raises(ConfigurationError, match="requires empty bins"):
            bins.shrink(np.array([1]), policy="drain")

    def test_seal_blocks_acceptance_but_service_continues(self):
        bins = BinArray(4, capacity=3)
        fill(bins, [1, 2, 0, 0])
        bins.seal([1])
        assert bins.draining.tolist() == [False, True, False, False]
        # The sealed bin takes nothing; bin 2 fills up.
        assert run_round(bins, [0, 3, 3, 0]).accepted_total == 3
        # FIFO service still drains the sealed queue.
        run_round(bins, [0, 0, 0, 0])
        assert bins.loads[1] == 0
        bins.shrink(np.array([1]), policy="drain")
        assert bins.n == 3
        assert not bins.draining.any()
        bins.check_invariants()

    def test_unseal_restores_free_slots(self):
        bins = BinArray(3, capacity=2)
        bins.seal([0, 2])
        bins.unseal([0, 2])
        assert not bins.draining.any()
        assert run_round(bins, [3, 3, 3]).accepted_total == 6


class TestSerialRoundLimit:
    KEYS = np.array([0, 3, 3, 1], dtype=np.int64)

    def test_plain_scalar_case(self):
        bins = BinArray(4, capacity=3)
        limit, hist_size = bins.serial_round_limit(self.KEYS)
        assert limit == 3 and hist_size == 4

    def test_draining_bins_clamp_to_current_load(self):
        bins = BinArray(4, capacity=3)
        fill(bins, [0, 2, 1, 0])
        bins.seal([1, 2])
        limit, hist_size = bins.serial_round_limit(self.KEYS)
        assert limit.tolist() == [3, 2, 1, 3]
        assert hist_size == 4

    def test_down_bins_clamp_to_current_load(self):
        bins = BinArray(4, capacity=3)
        fill(bins, [0, 2, 1, 0])
        bins.set_down([1, 3])
        limit, hist_size = bins.serial_round_limit(self.KEYS)
        assert limit.tolist() == [3, 2, 3, 0]
        assert hist_size == 4
        assert bins.frozen.tolist() == [False, True, False, True]
        bins.set_up([1, 3])
        assert bins.frozen is None

    def test_unit_capacity_gate(self):
        # The c = 1 kernel runs on exactly this scalar ceiling.
        bins = BinArray(4, capacity=1)
        limit, hist_size = bins.serial_round_limit(self.KEYS)
        assert np.isscalar(limit) and limit == 1 and hist_size == 2

    def test_unbounded_ceiling_covers_the_round(self):
        # Max load 2 plus the 2 balls thrown at bin 3: no bin can pass 4.
        bins = BinArray(4, capacity=None)
        fill(bins, [0, 2, 1, 0])
        assert bins.serial_round_limit(self.KEYS) == (4, 5)
        assert bins.serial_round_limit(self.KEYS[:0]) == (2, 3)


class TestElasticState:
    def test_snapshot_after_grow_restores_into_smaller_array(self):
        bins = BinArray(4, capacity=2)
        fill(bins, [1, 0, 2, 0])
        bins.grow(3)
        bins.seal([5])
        state = bins.get_state()

        fresh = BinArray(4, capacity=2)
        fresh.set_state(state)
        assert fresh.n == 7
        assert fresh.loads.tolist() == bins.loads.tolist()
        assert fresh.draining.tolist() == bins.draining.tolist()
        requests = [3] * 7
        assert run_round(fresh, requests).accepted_total == run_round(bins, requests).accepted_total
        assert fresh.loads.tolist() == bins.loads.tolist()
        fresh.check_invariants()

    def test_snapshot_after_shrink_restores_into_larger_array(self):
        bins = BinArray(6, capacity=np.array([2, 2, 3, 3, 4, 4]))
        fill(bins, [1, 1, 2, 0, 3, 0])
        bins.shrink(np.array([0, 4]), policy="drop")
        state = bins.get_state()

        fresh = BinArray(6, capacity=2)
        fresh.set_state(state)
        assert fresh.n == 4
        assert fresh.loads.tolist() == [1, 2, 0, 0]
        assert fresh.capacity.tolist() == [2, 3, 3, 4]
        fresh.check_invariants()
