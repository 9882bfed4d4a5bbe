"""Unit tests of the fused acceptance kernel :func:`resolve_capped_round`.

Hand-checkable acceptance cases, plus a per-ball reference that both
dispatch paths (unit-take and counting) must match on random instances.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.kernels import positional_waits, resolve_capped_round, wait_histogram
from repro.kernels.round import _resolve_counting


def as_hist(waits):
    """Sorted ``[values], [counts]`` of a list of waits, as plain lists."""
    values, counts = wait_histogram(np.asarray(waits, dtype=np.int64))
    return values.tolist(), counts.tolist()


def hist_lists(resolved):
    return resolved.wait_hist[0].tolist(), resolved.wait_hist[1].tolist()


def reference_round(free, loads, keys, counts, ages):
    """Per-ball oracle: walk the buckets in priority order, ball by ball.

    A ball is accepted if its bin is still below its limit
    (``loads + free``); it takes the next queue position, so it waits its
    bucket's age plus the bin's load at that moment.
    """
    held = [int(x) for x in loads]
    limit = [int(x) + int(f) for x, f in zip(loads, free)]
    accepted_per_bucket = []
    waits = Counter()
    offset = 0
    for age, count in zip(ages.tolist(), counts.tolist()):
        taken = 0
        for key in keys[offset : offset + count].tolist():
            if held[key] < limit[key]:
                waits[age + held[key]] += 1
                held[key] += 1
                taken += 1
        accepted_per_bucket.append(taken)
        offset += count
    accepted_per_key = [h - int(x) for h, x in zip(held, loads)]
    values = sorted(waits)
    return {
        "accepted_per_key": accepted_per_key,
        "accepted_per_bucket": accepted_per_bucket,
        "accepted_total": sum(accepted_per_bucket),
        "wait_hist": (values, [waits[v] for v in values]),
    }


def random_instance(rng, max_free, zero_loads):
    n = int(rng.integers(2, 40))
    num_buckets = int(rng.integers(1, 6))
    counts = rng.integers(0, 12, size=num_buckets).astype(np.int64)
    counts[0] += 1  # at least one thrown ball
    keys = rng.integers(0, n, size=int(counts.sum())).astype(np.int64)
    free = rng.integers(0, max_free + 1, size=n).astype(np.int64)
    free[int(rng.integers(0, n))] = max_free  # pin the dispatch path
    if zero_loads:
        loads = np.zeros(n, dtype=np.int64)
    else:
        loads = rng.integers(0, 4, size=n).astype(np.int64)
        loads[int(rng.integers(0, n))] = 1
    # Ages are distinct by construction for real callers (t − labels with
    # strictly increasing labels); the zero-load unit-take histogram
    # relies on it.
    ages = np.sort(rng.choice(30, size=num_buckets, replace=False))[::-1].astype(np.int64)
    return free, loads, keys, counts, ages


def assert_matches_reference(resolved, expected):
    assert resolved.accepted_total == expected["accepted_total"]
    assert np.asarray(resolved.accepted_per_key, dtype=np.int64).tolist() == (
        expected["accepted_per_key"]
    )
    assert resolved.accepted_per_bucket.tolist() == expected["accepted_per_bucket"]
    values, counts = expected["wait_hist"]
    assert hist_lists(resolved) == (values, counts)


class TestResolveCappedRound:
    def test_empty_round(self):
        free = np.array([1, 1], dtype=np.int64)
        loads = np.zeros(2, dtype=np.int64)
        resolved = resolve_capped_round(
            free, loads, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        assert resolved.accepted_total == 0
        assert resolved.accepted_per_key.tolist() == [0, 0]
        assert hist_lists(resolved) == ([], [])

    def test_clips_against_free_slots_oldest_first(self):
        # Bin 0: 3 requests (two from bucket 0, one from bucket 2), 2 free
        # — the two highest-priority ones win, the bucket-2 one is
        # rejected. free.max() > 1 exercises the count-matrix path.
        free = np.array([2, 5], dtype=np.int64)
        loads = np.array([1, 0], dtype=np.int64)
        keys = np.array([0, 0, 1, 0], dtype=np.int64)  # priority-major
        counts = np.array([2, 1, 1], dtype=np.int64)
        ages = np.array([4, 3, 1], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_key.tolist() == [2, 1]
        assert resolved.accepted_per_bucket.tolist() == [2, 1, 0]
        # Bin 0 positions start at load 1 → waits 4+1, 4+2; bin 1 at
        # load 0 → wait 3+0.
        assert hist_lists(resolved) == as_hist([4 + 1, 4 + 2, 3 + 0])

    def test_bucket_priority_splits_across_runs(self):
        # One bin, 4 free, requests from two buckets: each bucket's
        # acceptances take their own queue positions with their own age.
        free = np.array([4], dtype=np.int64)
        loads = np.array([2], dtype=np.int64)
        keys = np.zeros(3, dtype=np.int64)
        counts = np.array([2, 1], dtype=np.int64)
        ages = np.array([7, 2], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_bucket.tolist() == [2, 1]
        # Bucket 0 at positions 2, 3; bucket 1 at position 4.
        assert hist_lists(resolved) == as_hist([7 + 2, 7 + 3, 2 + 4])

    def test_unit_take_first_touch(self):
        # free.max() == 1 → the unit-take fast path: each free key accepts
        # exactly its highest-priority requester.
        free = np.array([1, 1, 0], dtype=np.int64)
        loads = np.array([0, 2, 1], dtype=np.int64)
        # bucket 0: keys 0, 2; bucket 1: keys 0, 1.
        keys = np.array([0, 2, 0, 1], dtype=np.int64)
        counts = np.array([2, 2], dtype=np.int64)
        ages = np.array([5, 1], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        assert resolved.accepted_total == 2
        assert resolved.accepted_per_key.tolist() == [1, 1, 0]
        assert resolved.accepted_per_bucket.tolist() == [1, 1]
        assert hist_lists(resolved) == as_hist([5 + 0, 1 + 2])

    def test_zero_free_accepts_nothing(self):
        free = np.zeros(3, dtype=np.int64)
        loads = np.array([2, 2, 2], dtype=np.int64)
        keys = np.array([0, 1, 2, 1], dtype=np.int64)
        resolved = resolve_capped_round(
            free, loads, keys, np.array([4], np.int64), np.ones(1, np.int64)
        )
        assert resolved.accepted_total == 0
        assert not resolved.accepted_per_key.any()
        assert hist_lists(resolved) == ([], [])

    def test_unit_take_path_equals_counting_path(self):
        # The dispatch condition (free <= 1 everywhere) is exactly where
        # both implementations are defined — they must agree field by
        # field on random instances.
        from repro.kernels.round import _resolve_unit_take

        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            num_buckets = int(rng.integers(1, 6))
            counts = rng.integers(0, 12, size=num_buckets).astype(np.int64)
            counts[0] += 1
            keys = rng.integers(0, n, size=int(counts.sum())).astype(np.int64)
            free = rng.integers(0, 2, size=n).astype(np.int64)
            loads = rng.integers(0, 4, size=n).astype(np.int64)
            ages = np.sort(rng.choice(30, size=num_buckets, replace=False))[::-1]
            ages = ages.astype(np.int64)
            fast = _resolve_unit_take(free, loads, keys, counts, ages)
            general = _resolve_counting(free, loads, keys, counts, ages)
            assert fast.accepted_total == general.accepted_total
            assert np.array_equal(fast.accepted_per_key, general.accepted_per_key)
            assert np.array_equal(fast.accepted_per_bucket, general.accepted_per_bucket)
            assert hist_lists(fast) == hist_lists(general)

    def test_lean_mode_falls_back_when_loads_nonzero(self):
        # With all-zero loads the unit-take path reads the histogram off
        # the per-bucket totals; nonzero loads need the per-ball gather,
        # so one bucket's acceptances at keys of different loads must
        # land on different waits.
        free = np.ones(3, dtype=np.int64)
        keys = np.array([0, 1, 2], dtype=np.int64)
        counts = np.array([3], dtype=np.int64)
        ages = np.array([4], dtype=np.int64)
        lean = resolve_capped_round(free, np.zeros(3, np.int64), keys, counts, ages)
        assert hist_lists(lean) == ([4], [3])
        loaded = resolve_capped_round(free, np.array([0, 2, 2], np.int64), keys, counts, ages)
        assert loaded.accepted_total == 3
        assert hist_lists(loaded) == as_hist([4 + 0, 4 + 2, 4 + 2])

    @pytest.mark.parametrize("zero_loads", [True, False], ids=["zero-loads", "loads"])
    @pytest.mark.parametrize("max_free", [1, 4], ids=["unit-take", "counting"])
    def test_matches_per_ball_reference(self, max_free, zero_loads):
        rng = np.random.default_rng(17 + max_free + 2 * zero_loads)
        for _ in range(60):
            instance = random_instance(rng, max_free, zero_loads)
            expected = reference_round(*instance)
            assert_matches_reference(resolve_capped_round(*instance), expected)
            # The counting path is defined everywhere, including where
            # dispatch would pick unit-take.
            assert_matches_reference(_resolve_counting(*instance), expected)

    def test_positional_waits_run_expansion(self):
        starts = np.array([5, 2], dtype=np.int64)
        lengths = np.array([3, 1], dtype=np.int64)
        assert positional_waits(starts, lengths).tolist() == [5, 6, 7, 2]
        assert positional_waits(starts[:0], lengths[:0]).size == 0
