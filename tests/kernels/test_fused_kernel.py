"""Unit tests of the two whole-round kernels against a per-ball reference.

:func:`resolve_capped_round_serial` takes any finite per-bin ceiling,
frozen (down) bins and empty pools; :func:`resolve_capped_round` takes the
c = 1 steady state (ceiling 1, every bin empty). Hand-checkable cases,
plus a per-ball reference that both must match on random instances, with
the FIFO deletion and the carried load histogram included.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.balls.bin_array import BinArray
from repro.core.capped import CappedProcess
from repro.kernels import resolve_capped_round, resolve_capped_round_serial

from tests.kernels.test_fused_equivalence import assert_records_equal
from tests.oracles import SweepCappedProcess, positional_waits
from tests.rounds import fill


def as_hist(waits):
    """Sorted ``[values], [counts]`` of a list of waits, as plain lists."""
    values, counts = np.unique(np.asarray(waits, dtype=np.int64), return_counts=True)
    return values.tolist(), counts.tolist()


def hist_lists(resolved):
    return resolved.wait_values.tolist(), resolved.wait_counts.tolist()


def reference_round(loads, limit, keys, counts, ages, frozen=None):
    """Per-ball oracle: walk the buckets in priority order, ball by ball.

    A ball is accepted if its bin is still below its ``limit``; it takes
    the next queue position, so it waits its bucket's age plus the bin's
    load at that moment. Then every non-empty bin that is not ``frozen``
    deletes one ball.
    """
    held = [int(x) for x in loads]
    limit = np.broadcast_to(limit, len(held)).tolist()
    frozen = [False] * len(held) if frozen is None else frozen.tolist()
    accepted_per_bucket = []
    waits = Counter()
    offset = 0
    for age, count in zip(ages, counts):
        taken = 0
        for key in keys[offset : offset + count].tolist():
            if held[key] < limit[key]:
                waits[age + held[key]] += 1
                held[key] += 1
                taken += 1
        accepted_per_bucket.append(taken)
        offset += count
    serving = [h > 0 and not f for h, f in zip(held, frozen)]
    new_loads = [h - s for h, s in zip(held, serving)]
    values = sorted(waits)
    return {
        "new_loads": new_loads,
        "accepted_per_bucket": accepted_per_bucket,
        "accepted_total": sum(accepted_per_bucket),
        "deleted": sum(serving),
        "peak_load": max(held, default=0),
        "max_load": max(new_loads, default=0),
        "wait_hist": (values, [waits[v] for v in values]),
    }


def serial(loads, limit, keys, counts, ages, frozen=None):
    hist_size = int(np.max(limit)) + 1
    return resolve_capped_round_serial(
        np.asarray(loads, dtype=np.int64), limit, keys, counts, ages, hist_size, frozen=frozen
    )


def unit_take(n, keys, counts, ages):
    return resolve_capped_round(np.zeros(n, dtype=np.int64), 1, keys, counts, ages)


def random_instance(rng, max_free, zero_loads):
    """Loads, a per-bin ceiling ``loads + free`` and a priority-major round."""
    n = int(rng.integers(2, 40))
    num_buckets = int(rng.integers(1, 6))
    counts = rng.integers(0, 12, size=num_buckets)
    counts[0] += 1  # at least one thrown ball
    keys = rng.integers(0, n, size=int(counts.sum())).astype(np.int64)
    free = rng.integers(0, max_free + 1, size=n).astype(np.int64)
    free[int(rng.integers(0, n))] = max_free
    if zero_loads:
        loads = np.zeros(n, dtype=np.int64)
    else:
        loads = rng.integers(0, 4, size=n).astype(np.int64)
        loads[int(rng.integers(0, n))] = 1
    # Ages are distinct by construction for real callers (t − labels with
    # strictly increasing labels); the unit-take histogram relies on it.
    ages = np.sort(rng.choice(30, size=num_buckets, replace=False))[::-1]
    return loads, loads + free, keys, counts.tolist(), ages.tolist()


def assert_matches_reference(resolved, expected):
    assert resolved.new_loads.tolist() == expected["new_loads"]
    assert resolved.accepted_per_bucket == expected["accepted_per_bucket"]
    assert resolved.accepted_total == expected["accepted_total"]
    assert resolved.deleted == expected["deleted"]
    assert resolved.peak_load == expected["peak_load"]
    assert resolved.max_load == expected["max_load"]
    values, counts = expected["wait_hist"]
    assert hist_lists(resolved) == (values, counts)
    # The carried histogram must describe the new loads exactly.
    assert resolved.next_hist == np.bincount(
        resolved.new_loads, minlength=len(resolved.next_hist)
    ).tolist()


class TestResolveCappedRound:
    def test_empty_round(self):
        # An empty pool still runs the deletion.
        empty = np.zeros(0, dtype=np.int64)
        resolved = serial([2, 0, 1], 3, empty, [], [])
        assert_matches_reference(resolved, reference_round([2, 0, 1], 3, empty, [], []))
        assert resolved.new_loads.tolist() == [1, 0, 0]
        assert resolved.deleted == 2
        assert hist_lists(resolved) == ([], [])
        resolved = unit_take(2, empty, [], [])
        assert_matches_reference(resolved, reference_round([0, 0], 1, empty, [], []))

    def test_clips_against_free_slots_oldest_first(self):
        # Bin 0: 3 requests (two from bucket 0, one from bucket 2), 2 free
        # below its ceiling — the two highest-priority ones win, the
        # bucket-2 one is rejected.
        loads = [1, 0]
        limit = np.array([3, 5], dtype=np.int64)
        keys = np.array([0, 0, 1, 0], dtype=np.int64)  # priority-major
        resolved = serial(loads, limit, keys, [2, 1, 1], [4, 3, 1])
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_bucket == [2, 1, 0]
        # Bin 0 positions start at load 1 → waits 4+1, 4+2; bin 1 at
        # load 0 → wait 3+0.
        assert hist_lists(resolved) == as_hist([4 + 1, 4 + 2, 3 + 0])
        assert resolved.new_loads.tolist() == [2, 0]

    def test_bucket_priority_splits_across_runs(self):
        # One bin, 4 free, requests from two buckets: each bucket's
        # acceptances take their own queue positions with their own age.
        keys = np.zeros(3, dtype=np.int64)
        resolved = serial([2], 6, keys, [2, 1], [7, 2])
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_bucket == [2, 1]
        # Bucket 0 at positions 2, 3; bucket 1 at position 4.
        assert hist_lists(resolved) == as_hist([7 + 2, 7 + 3, 2 + 4])

    def test_unit_take_first_touch(self):
        # Each bin accepts exactly its highest-priority requester.
        # bucket 0: keys 0, 2; bucket 1: keys 0, 1.
        keys = np.array([0, 2, 0, 1], dtype=np.int64)
        resolved = unit_take(3, keys, [2, 2], [5, 1])
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_bucket == [2, 1]
        assert hist_lists(resolved) == as_hist([5, 5, 1])
        assert resolved.new_loads.tolist() == [0, 0, 0]
        assert resolved.deleted == 3 and resolved.peak_load == 1 and resolved.max_load == 0

    def test_zero_free_accepts_nothing(self):
        loads = np.array([2, 2, 2], dtype=np.int64)
        keys = np.array([0, 1, 2, 1], dtype=np.int64)
        resolved = serial(loads, loads, keys, [4], [1])
        assert resolved.accepted_total == 0
        assert resolved.accepted_per_bucket == [0]
        assert hist_lists(resolved) == ([], [])
        assert resolved.new_loads.tolist() == [1, 1, 1]

    def test_unit_take_kernel_equals_serial_kernel(self):
        # Where the unit-take kernel is defined (ceiling 1, empty bins),
        # the serial kernel must agree with it field by field.
        rng = np.random.default_rng(17)
        for _ in range(50):
            loads, _, keys, counts, ages = random_instance(rng, 1, zero_loads=True)
            fast = unit_take(loads.size, keys, counts, ages)
            general = serial(loads, 1, keys, counts, ages)
            for field in ("accepted_per_bucket", "accepted_total", "deleted", "max_load"):
                assert getattr(fast, field) == getattr(general, field)
            assert fast.peak_load == general.peak_load
            assert fast.next_hist == general.next_hist
            assert np.array_equal(fast.new_loads, general.new_loads)
            assert hist_lists(fast) == hist_lists(general)

    def test_lean_mode_falls_back_when_loads_nonzero(self):
        # With every bin empty the unit-take kernel reads the histogram
        # off the per-bucket totals; rounds that start with loaded bins go
        # to the serial kernel, where one bucket's acceptances at bins of
        # different loads land on different waits.
        keys = np.array([0, 1, 2], dtype=np.int64)
        lean = unit_take(3, keys, [3], [4])
        assert hist_lists(lean) == ([4], [3])
        loads = np.array([0, 2, 2], dtype=np.int64)
        loaded = serial(loads, loads + 1, keys, [3], [4])
        assert loaded.accepted_total == 3
        assert hist_lists(loaded) == as_hist([4 + 0, 4 + 2, 4 + 2])

    @pytest.mark.parametrize("zero_loads", [True, False], ids=["zero-loads", "loads"])
    @pytest.mark.parametrize("max_free", [1, 4], ids=["unit-take", "serial"])
    def test_matches_per_ball_reference(self, max_free, zero_loads):
        # max_free = 1 is the unit-take regime; the unit-take kernel also
        # runs there when every bin is empty and the ceiling is 1.
        rng = np.random.default_rng(17 + max_free + 2 * zero_loads)
        for _ in range(60):
            instance = random_instance(rng, max_free, zero_loads)
            assert_matches_reference(serial(*instance), reference_round(*instance))
            if max_free == 1 and zero_loads:
                loads, _, keys, counts, ages = instance
                assert_matches_reference(
                    unit_take(loads.size, keys, counts, ages),
                    reference_round(loads, 1, keys, counts, ages),
                )

    def test_positional_waits_run_expansion(self):
        starts = np.array([5, 2], dtype=np.int64)
        lengths = np.array([3, 1], dtype=np.int64)
        assert positional_waits(starts, lengths).tolist() == [5, 6, 7, 2]
        assert positional_waits(starts[:0], lengths[:0]).size == 0


def bins_round(capacity, loads, rng, down=(), sealed=()):
    """A random round on a real BinArray: its ceiling and frozen mask."""
    n = len(loads)
    bins = BinArray(n, capacity=capacity)
    fill(bins, loads)
    bins.set_down(list(down))
    bins.seal(list(sealed))
    counts = [int(x) for x in rng.integers(0, 3 * n, size=int(rng.integers(1, 5)))]
    keys = rng.integers(0, n, size=sum(counts)).astype(np.int64)
    ages = list(range(len(counts) + 2, 2, -1))
    limit, hist_size = bins.serial_round_limit(keys)
    return bins, limit, hist_size, keys, counts, ages


def assert_bins_round(bins, limit, hist_size, keys, counts, ages):
    resolved = resolve_capped_round_serial(
        bins.loads, limit, keys, counts, ages, hist_size, frozen=bins.frozen
    )
    expected = reference_round(bins.loads, limit, keys, counts, ages, bins.frozen)
    assert_matches_reference(resolved, expected)
    return resolved


class TestRoundsOffTheSteadyState:
    @pytest.mark.parametrize("capacity", [1, 3])
    def test_down_bins_match_reference(self, capacity):
        rng = np.random.default_rng(capacity)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            loads = rng.integers(0, capacity + 1, size=n)
            # Bin 0 is down holding the max load: it must neither accept
            # nor delete, and it must still set the round's max load.
            loads[0] = capacity
            down = [0, *rng.choice(np.arange(1, n), size=int(rng.integers(0, 3)), replace=False)]
            round_ = bins_round(capacity, loads.tolist(), rng, down=down)
            resolved = assert_bins_round(*round_)
            assert resolved.new_loads[0] == capacity
            assert resolved.max_load == capacity

    def test_every_bin_down_accepts_and_deletes_nothing(self):
        rng = np.random.default_rng(5)
        bins, *round_ = bins_round(3, [3, 1, 0, 2], rng, down=[0, 1, 2, 3])
        resolved = assert_bins_round(bins, *round_)
        assert resolved.accepted_total == 0 and resolved.deleted == 0
        assert resolved.new_loads.tolist() == [3, 1, 0, 2]

    def test_unbounded_ceiling_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            loads = rng.integers(0, 6, size=n).tolist()
            bins, limit, hist_size, keys, counts, ages = bins_round(None, loads, rng)
            resolved = assert_bins_round(bins, limit, hist_size, keys, counts, ages)
            # The ceiling never binds: every thrown ball is accepted.
            assert resolved.accepted_total == keys.size

    def test_unbounded_down_bins_match_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            loads = rng.integers(0, 6, size=12).tolist()
            assert_bins_round(*bins_round(None, loads, rng, down=[1, 4]))

    def test_unit_capacity_with_loads_or_draining(self):
        # c = 1 off the steady state: bins holding a ball and sealed bins
        # — the serial kernel takes these rounds.
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            loads = rng.integers(0, 2, size=n).tolist()
            sealed = rng.choice(n, size=int(rng.integers(0, 3)), replace=False).tolist()
            assert_bins_round(*bins_round(1, loads, rng, sealed=sealed))

    def test_loaded_unit_capacity_rounds_match_legacy(self):
        # A c = 1 process whose bins start a round loaded must not take the
        # unit-take kernel, which assumes every bin is empty.
        runs = []
        for process_cls in (CappedProcess, SweepCappedProcess):
            process = process_cls(n=32, capacity=1, lam=0.5, rng=3)
            fill(process.bins, [1, 0, 0, 1] * 8)
            runs.append([process.step() for _ in range(4)])
            process.check_invariants()
        for a, b in zip(*runs):
            assert_records_equal(a, b, context=f"round {a.round}")
