"""Churn-event behaviour of :class:`repro.churn.Injector`.

The invariants under test: membership changes land at the scheduled round,
re-hashing conserves balls, drain removal is two-stage and loss-free, all
randomness comes from the schedule's own stream (determinism + zero
perturbation of static runs), and injector state round-trips through
get_state/set_state bit-identically.
"""

import numpy as np
import pytest

from repro.churn import (
    Flapping,
    Injector,
    JoinBurst,
    LeaveBurst,
    PoissonChurn,
    Ramp,
    Schedule,
    removal_mapping,
)
from repro.core.capped import CappedProcess
from repro.errors import CheckpointIncompatible, ConfigurationError
from repro.processes.greedy import GreedyBatchProcess

from tests.kernels.test_fused_equivalence import assert_records_equal


def run_with_churn(process, injector, rounds):
    """Step the process, delivering each record to the injector (driver order)."""
    records = []
    for _ in range(rounds):
        record = process.step()
        injector.on_round(record, process)
        records.append(record)
    return records


def total_balls(process):
    return process.pool.size + process.bins.total_load


class TestRemovalMapping:
    def test_compacts_survivors_in_order(self):
        mapping = removal_mapping(6, np.array([1, 4]))
        assert mapping.tolist() == [0, -1, 1, 2, -1, 3]

    def test_identity_when_nothing_removed(self):
        assert removal_mapping(4, np.array([], dtype=np.int64)).tolist() == [0, 1, 2, 3]


class TestJoinBurst:
    def test_membership_grows_at_scheduled_round(self):
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=1)
        injector = Injector(Schedule(events=(JoinBurst(at_round=3, count=8),), seed=5))
        run_with_churn(process, injector, 2)
        assert process.n == 32
        run_with_churn(process, injector, 1)
        assert process.n == 40
        assert injector.joins == 8
        process.check_invariants()

    def test_max_n_clamps_joins(self):
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=1)
        injector = Injector(Schedule(events=(JoinBurst(at_round=2, count=100),), seed=5, max_n=36))
        run_with_churn(process, injector, 3)
        assert process.n == 36


class TestLeaveBurst:
    def test_rehash_conserves_balls(self):
        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=2)
        injector = Injector(Schedule(events=(LeaveBurst(at_round=6, count=8),), seed=9))
        for _ in range(5):
            record = process.step()
            injector.on_round(record, process)
        record = process.step()
        before = record.pool_size + record.total_load
        injector.on_round(record, process)
        assert process.n == 24
        assert total_balls(process) == before
        assert injector.balls_rehashed >= 0
        assert injector.balls_dropped == 0
        process.check_invariants()

    def test_drop_discards_queued_balls(self):
        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=2)
        injector = Injector(
            Schedule(events=(LeaveBurst(at_round=6, fraction=0.25, policy="drop"),), seed=9)
        )
        for _ in range(5):
            record = process.step()
            injector.on_round(record, process)
        record = process.step()
        before = record.pool_size + record.total_load
        injector.on_round(record, process)
        assert process.n == 24
        assert total_balls(process) == before - injector.balls_dropped
        assert injector.balls_rehashed == 0
        process.check_invariants()

    def test_min_n_truncates_leaves(self):
        process = CappedProcess(n=16, capacity=2, lam=0.5, rng=3)
        injector = Injector(
            Schedule(events=(LeaveBurst(at_round=2, fraction=1.0),), seed=1, min_n=4)
        )
        run_with_churn(process, injector, 4)
        assert process.n == 4
        process.check_invariants()

    def test_drain_is_two_stage_and_lossless(self):
        process = CappedProcess(n=32, capacity=3, lam=0.9375, rng=4)
        injector = Injector(
            Schedule(events=(LeaveBurst(at_round=8, count=6, policy="drain"),), seed=2)
        )
        totals = []
        for t in range(1, 16):
            record = process.step()
            before = record.pool_size + record.total_load
            injector.on_round(record, process)
            totals.append((t, before, total_balls(process), process.n))
            process.check_invariants()
        # Sealed at round 8: membership unchanged until the drains empty.
        at_seal = next(row for row in totals if row[0] == 8)
        assert at_seal[3] == 32
        assert process.bins.draining.sum() == 0  # all drains finished
        assert process.n == 26
        assert injector.balls_dropped == 0
        assert injector.balls_rehashed == 0
        # Drain never loses a ball at any injection boundary.
        for _, before, after, _ in totals:
            assert after == before

    def test_victims_never_include_draining_bins(self):
        # Two overlapping drain bursts: the second must pick victims from
        # live bins only, and both drain groups are eventually removed.
        process = CappedProcess(n=32, capacity=3, lam=0.9375, rng=4)
        injector = Injector(
            Schedule(
                events=(
                    LeaveBurst(at_round=5, count=4, policy="drain"),
                    LeaveBurst(at_round=6, count=4, policy="drain"),
                ),
                seed=2,
            )
        )
        run_with_churn(process, injector, 20)
        assert process.n == 24
        assert process.bins.draining.sum() == 0
        process.check_invariants()


class TestTimeVaryingEvents:
    def test_flapping_oscillates_and_returns(self):
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=5)
        injector = Injector(
            Schedule(
                events=(Flapping(first_round=4, period=10, down_rounds=3, count=2, last_round=5),),
                seed=7,
            )
        )
        sizes = []
        for _ in range(12):
            record = process.step()
            injector.on_round(record, process)
            sizes.append(process.n)
        assert sizes[3] == 30  # departure at round 4
        assert sizes[6] == 32  # rejoin 3 rounds later
        assert sizes[-1] == 32
        process.check_invariants()

    def test_ramp_reaches_target(self):
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=6)
        injector = Injector(
            Schedule(events=(Ramp(start_round=2, end_round=10, target_n=56),), seed=3)
        )
        run_with_churn(process, injector, 12)
        assert process.n == 56
        process.check_invariants()

    def test_ramp_down(self):
        process = CappedProcess(n=32, capacity=2, lam=0.5, rng=6)
        injector = Injector(
            Schedule(events=(Ramp(start_round=2, end_round=10, target_n=16),), seed=3)
        )
        run_with_churn(process, injector, 12)
        assert process.n == 16
        process.check_invariants()

    def test_poisson_churn_respects_bounds(self):
        process = CappedProcess(n=16, capacity=2, lam=0.5, rng=7)
        injector = Injector(
            Schedule(
                events=(PoissonChurn(join_rate=3.0, leave_rate=3.0),),
                seed=11,
                min_n=12,
                max_n=20,
            )
        )
        for _ in range(40):
            record = process.step()
            injector.on_round(record, process)
            assert 12 <= process.n <= 20
        process.check_invariants()


class TestDeterminism:
    def _trajectory(self, seed):
        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=1)
        injector = Injector(
            Schedule(events=(PoissonChurn(join_rate=1.0, leave_rate=1.0),), seed=seed, min_n=8)
        )
        sizes = []
        for _ in range(30):
            record = process.step()
            injector.on_round(record, process)
            sizes.append(process.n)
        return sizes

    def test_same_seed_same_trajectory(self):
        assert self._trajectory(5) == self._trajectory(5)

    def test_churn_stream_independent_of_process_stream(self):
        # Same schedule seed over different process seeds: the Poisson
        # draws (join/leave counts) must not depend on the process RNG.
        def counts(process_seed):
            process = CappedProcess(n=64, capacity=2, lam=0.5, rng=process_seed)
            injector = Injector(
                Schedule(events=(PoissonChurn(join_rate=2.0, leave_rate=0.0),), seed=13)
            )
            run_with_churn(process, injector, 10)
            return injector.joins

        assert counts(1) == counts(2)

    def test_empty_schedule_is_bit_identical_noop(self):
        plain = CappedProcess(n=32, capacity=2, lam=0.75, rng=9)
        churned = CappedProcess(n=32, capacity=2, lam=0.75, rng=9)
        injector = Injector(Schedule())
        for _ in range(40):
            a = plain.step()
            b = churned.step()
            injector.on_round(b, churned)
            assert_records_equal(a, b)
        assert np.array_equal(plain.bins.loads, churned.bins.loads)
        assert plain.pool.size == churned.pool.size


class TestStateRoundTrip:
    def test_mid_run_snapshot_resumes_identically(self):
        schedule = Schedule(
            events=(
                JoinBurst(at_round=4, count=8),
                LeaveBurst(at_round=9, count=6, policy="drain"),
                PoissonChurn(join_rate=0.5, leave_rate=0.5, first_round=12),
            ),
            seed=21,
            min_n=8,
        )

        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=8)
        injector = Injector(schedule)
        run_with_churn(process, injector, 10)  # past the resize, drains pending
        proc_state = process.get_state()
        inj_state = injector.get_state()
        reference = [
            (r.round, r.pool_size, r.total_load, process.n)
            for r in run_with_churn(process, injector, 15)
        ]

        restored = CappedProcess(n=32, capacity=2, lam=0.75, rng=0)
        restored.set_state(proc_state)
        injector2 = Injector(schedule)
        injector2.set_state(inj_state)
        replay = [
            (r.round, r.pool_size, r.total_load, restored.n)
            for r in run_with_churn(restored, injector2, 15)
        ]
        assert replay == reference

    def test_set_state_rejects_garbage(self):
        injector = Injector(Schedule())
        with pytest.raises(CheckpointIncompatible):
            injector.set_state({"bogus": 1})


class TestBinding:
    def test_rejects_process_without_membership_surface(self):
        # GREEDY has no grow_bins/shrink_bins, so there is nothing to churn.
        process = GreedyBatchProcess(n=16, d=2, lam=0.75, rng=0)
        injector = Injector(Schedule(events=(JoinBurst(at_round=1, count=4),)))
        with pytest.raises(ConfigurationError, match="grow_bins/shrink_bins"):
            injector.on_round(process.step(), process)
        assert process.n == 16
