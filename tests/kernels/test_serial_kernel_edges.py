"""Edge cases of the whole-round serial kernel.

The kernel's contract is purely arithmetic — clip evolving loads against
a per-key ceiling, oldest buckets first — so a transparent per-ball
Python reference checks it exactly on inputs the simulators never
produce through :class:`~repro.balls.bin_array.BinArray` (which enforces
``capacity >= 1``): zero-capacity keys, mixtures of tiny/huge ceilings,
and bucket layouts sized to hit the tiny/sparse/dense code paths in one
round. Separately: through a fleet-wide outage (every bin down) the
serial kernel freezes every bin and must still match the per-bucket
reference sweep bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import CrashBurst, Injector, Schedule
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import TraceRecorder
from repro.kernels.round import resolve_capped_round_serial

from tests.kernels.test_fused_equivalence import assert_records_equal
from tests.oracles import SweepCappedProcess


def naive_round(loads, capacity_limit, bucket_keys, bucket_ages, hist_size):
    """Ball-by-ball reference resolution of one round (oldest first)."""
    loads = np.asarray(loads, dtype=np.int64).copy()
    if np.isscalar(capacity_limit):
        limit = np.full(loads.shape, capacity_limit, dtype=np.int64)
    else:
        limit = np.asarray(capacity_limit, dtype=np.int64)
    accepted_per_bucket = []
    waits: dict[int, int] = {}
    for keys, age in zip(bucket_keys, bucket_ages):
        taken = 0
        for key in np.asarray(keys, dtype=np.int64).tolist():
            held = loads[key]
            if held < limit[key]:
                waits[age + held] = waits.get(age + held, 0) + 1
                loads[key] = held + 1
                taken += 1
        accepted_per_bucket.append(taken)
    peak_load = int(loads.max()) if loads.size else 0
    deleted = int(np.count_nonzero(loads))
    new_loads = np.maximum(loads - 1, 0)
    wait_values = sorted(waits)
    return {
        "new_loads": new_loads,
        "accepted_per_bucket": accepted_per_bucket,
        "accepted_total": sum(accepted_per_bucket),
        "deleted": deleted,
        "peak_load": peak_load,
        "max_load": max(peak_load - 1, 0),
        "wait_values": wait_values,
        "wait_counts": [waits[v] for v in wait_values],
    }


def run_kernel(loads, capacity_limit, bucket_keys, bucket_ages, hist_size, **kwargs):
    loads = np.asarray(loads, dtype=np.int64)
    ball_keys = (
        np.concatenate([np.asarray(k, dtype=np.int64) for k in bucket_keys])
        if bucket_keys
        else np.zeros(0, dtype=np.int64)
    )
    counts = [len(k) for k in bucket_keys]
    return resolve_capped_round_serial(
        loads, capacity_limit, ball_keys, counts, list(bucket_ages), hist_size, **kwargs
    )


def assert_matches_naive(loads, capacity_limit, bucket_keys, bucket_ages, hist_size):
    result = run_kernel(loads, capacity_limit, bucket_keys, bucket_ages, hist_size)
    expected = naive_round(loads, capacity_limit, bucket_keys, bucket_ages, hist_size)
    assert np.array_equal(result.new_loads, expected["new_loads"])
    assert result.accepted_per_bucket == expected["accepted_per_bucket"]
    assert result.accepted_total == expected["accepted_total"]
    assert result.deleted == expected["deleted"]
    assert result.peak_load == expected["peak_load"]
    assert result.max_load == expected["max_load"]
    assert result.wait_values.tolist() == expected["wait_values"]
    assert result.wait_counts.tolist() == expected["wait_counts"]
    return result


class TestHeterogeneousCeilings:
    def test_zero_one_and_large_capacities(self):
        # c_i ∈ {0, 1, 37}: zero-capacity keys must never accept, large
        # ones must absorb everything thrown at them.
        rng = np.random.default_rng(1)
        n = 24
        limit = np.array(([0, 1, 37] * n)[:n], dtype=np.int64)
        loads = np.minimum(rng.integers(0, 3, size=n), limit)
        buckets = [rng.integers(0, n, size=size) for size in (200, 40, 7)]
        result = assert_matches_naive(loads, limit, buckets, [2, 1, 0], hist_size=39)
        zero_keys = np.flatnonzero(limit == 0)
        assert not result.new_loads[zero_keys].any()

    def test_all_zero_capacity_accepts_nothing(self):
        rng = np.random.default_rng(2)
        n = 16
        result = assert_matches_naive(
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            [rng.integers(0, n, size=50)],
            [0],
            hist_size=2,
        )
        assert result.accepted_total == 0
        assert result.deleted == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixed_ceilings_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        limit = rng.choice([0, 1, 2, 5, 19], size=n).astype(np.int64)
        loads = np.minimum(rng.integers(0, 4, size=n), limit)
        num_buckets = int(rng.integers(1, 5))
        buckets = [rng.integers(0, n, size=int(rng.integers(0, 4 * n))) for _ in range(num_buckets)]
        ages = list(range(num_buckets))[::-1]
        hist_size = int(limit.max()) + 1 if limit.size else 1
        assert_matches_naive(loads, limit, buckets, ages, hist_size)

    def test_tiny_sparse_and_dense_buckets_in_one_round(self):
        # One bucket per code path: <= _TINY_BUCKET scalar balls, a
        # mid-size sparse bincount bucket, and a dense whole-array bucket.
        rng = np.random.default_rng(3)
        n = 64
        limit = np.array([1, 3] * 32, dtype=np.int64)
        loads = np.zeros(n, dtype=np.int64)
        buckets = [
            rng.integers(0, n, size=5),
            rng.integers(0, n, size=7),
            rng.integers(0, n, size=500),
        ]
        assert_matches_naive(loads, limit, buckets, [2, 1, 0], hist_size=4)

    def test_scalar_ceiling_matches_reference(self):
        rng = np.random.default_rng(4)
        n = 32
        loads = rng.integers(0, 3, size=n)
        buckets = [rng.integers(0, n, size=size) for size in (90, 12)]
        assert_matches_naive(loads, 4, buckets, [1, 0], hist_size=5)


class TestFleetWideOutage:
    def run_with_outage(self, process_cls):
        # Crash every bin at once: the serial kernel freezes them all and
        # must still match the reference sweep exactly through the outage
        # and the recovery.
        schedule = Schedule(events=(CrashBurst(at_round=15, fraction=1.0, duration=20),), seed=3)
        process = process_cls(n=64, capacity=2, lam=0.9375, rng=9, initial_pool=30)
        trace = TraceRecorder()
        SimulationDriver(burn_in=0, measure=80, observers=[trace, Injector(schedule)]).run(process)
        process.check_invariants()
        return trace, process

    def test_all_bins_down_matches_legacy(self):
        fused_trace, p1 = self.run_with_outage(CappedProcess)
        legacy_trace, p2 = self.run_with_outage(SweepCappedProcess)
        for a, b in zip(fused_trace.records, legacy_trace.records):
            assert_records_equal(a, b, context=f"round {a.round}")
        assert np.array_equal(p1.bins.loads, p2.bins.loads)
        # The outage really was total at its peak.
        assert p1.bins.down_count == 0  # recovered by the end
