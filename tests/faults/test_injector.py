"""Fault-event semantics of the Injector on the fast CAPPED simulator.

The key property (an acceptance criterion for the subsystem) is
determinism: the same (Schedule, process seed) pair reproduces a
faulty run exactly, and an *empty* schedule leaves the fault-free
trajectory untouched — the injector draws from its own RNG stream, never
from the process's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import (
    CapacityDegradation,
    CrashBurst,
    Injector,
    PeriodicOutage,
    PoolShed,
    Schedule,
    StochasticCrashes,
    scenario_from_dict,
)
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import InvariantChecker, TraceRecorder
from repro.errors import ConfigurationError


def run_with_schedule(schedule, rounds=120, rng=1, n=256, lam=0.75, capacity=2):
    """One faulty run; returns (trace, injector, process)."""
    process = CappedProcess(n=n, capacity=capacity, lam=lam, rng=rng, initial_pool=40)
    trace = TraceRecorder()
    injector = Injector(schedule)
    driver = SimulationDriver(
        burn_in=0, measure=rounds, observers=[trace, injector, InvariantChecker(every=10)]
    )
    driver.run(process)
    return trace, injector, process


class TestDeterminism:
    def test_same_schedule_and_seed_reproduces_run(self):
        schedule = Schedule(
            events=(
                CrashBurst(at_round=30, fraction=0.25, duration=15),
                CapacityDegradation(at_round=60, duration=10, capacity=1, fraction=0.5),
                PoolShed(at_round=80, fraction=0.3),
            ),
            seed=7,
        )
        first, inj1, _ = run_with_schedule(schedule)
        second, inj2, _ = run_with_schedule(schedule)
        assert first.pool_sizes() == second.pool_sizes()
        assert inj1.events_log == inj2.events_log
        assert inj1.crashes == inj2.crashes

    def test_different_fault_seed_changes_victims_not_process(self):
        def make(seed):
            return Schedule(
                events=(CrashBurst(at_round=30, fraction=0.25, duration=15),), seed=seed
            )

        _, inj_a, _ = run_with_schedule(make(1))
        _, inj_b, _ = run_with_schedule(make(2))
        # Same number of crashes, (almost surely) different victims → the
        # post-fault trajectories may differ but the counters match.
        assert inj_a.crashes == inj_b.crashes == round(0.25 * 256)

    def test_empty_schedule_does_not_perturb_trajectory(self):
        bare = CappedProcess(n=256, capacity=2, lam=0.75, rng=1, initial_pool=40)
        bare_trace = TraceRecorder()
        SimulationDriver(burn_in=0, measure=120, observers=[bare_trace]).run(bare)
        observed, injector, _ = run_with_schedule(Schedule())
        assert observed.pool_sizes() == bare_trace.pool_sizes()
        assert injector.all_clear
        assert injector.crashes == injector.recoveries == 0


class TestCrashBurst:
    def test_preserved_crash_and_recovery(self):
        schedule = Schedule(events=(CrashBurst(at_round=30, fraction=0.25, duration=15),), seed=3)
        trace, injector, process = run_with_schedule(schedule)
        assert injector.crashes == injector.recoveries == round(0.25 * 256)
        assert injector.balls_lost == 0  # preserved buffers
        assert injector.all_clear
        assert not process.bins.down.any()
        # The outage visibly backs up the pool relative to just before it.
        pools = trace.pool_sizes()
        assert max(pools[30:45]) > pools[29]
        # down_rounds: 64 bins down for exactly 15 rounds each.
        assert injector.down_rounds == round(0.25 * 256) * 15

    def test_wiped_crash_loses_buffered_balls(self):
        schedule = Schedule(
            events=(CrashBurst(at_round=30, fraction=0.5, duration=10, buffer_policy="wiped"),),
            seed=3,
        )
        _, injector, process = run_with_schedule(schedule)
        assert injector.balls_lost > 0
        process.check_invariants()

    def test_permanent_outage_never_recovers(self):
        schedule = Schedule(events=(CrashBurst(at_round=10, fraction=0.1),), seed=3)
        _, injector, process = run_with_schedule(schedule, rounds=60)
        assert injector.recoveries == 0
        assert injector.down_count == round(0.1 * 256)
        assert int(process.bins.down.sum()) == injector.down_count


class TestPeriodicOutage:
    def test_fires_every_period(self):
        schedule = Schedule(
            events=(PeriodicOutage(period=30, duration=5, fraction=0.1, first_round=20),),
            seed=5,
        )
        _, injector, _ = run_with_schedule(schedule, rounds=100)
        crash_rounds = [t for t, msg in injector.events_log if msg.startswith("crash")]
        assert crash_rounds == [20, 50, 80]
        assert injector.crashes == 3 * round(0.1 * 256)
        assert injector.all_clear


class TestStochasticCrashes:
    def test_markov_crash_recover_within_window(self):
        schedule = Schedule(
            events=(StochasticCrashes(crash_prob=0.02, recover_prob=0.5, last_round=80),),
            seed=11,
        )
        _, injector, _ = run_with_schedule(schedule, rounds=100)
        assert injector.crashes > 0
        assert injector.recoveries > 0
        # After last_round the remaining down entities stop flipping coins.
        assert injector.down_count == injector.crashes - injector.recoveries


class TestCapacityDegradation:
    def test_degrade_and_restore(self):
        schedule = Schedule(
            events=(CapacityDegradation(at_round=30, duration=20, capacity=1),), seed=3
        )
        _, injector, process = run_with_schedule(schedule)
        # Capacity fully restored after the window…
        assert np.all(np.asarray(process.bins.capacity) == 2)
        assert injector.all_clear
        # …and the high-water invariant held throughout (checked every 10
        # rounds by the InvariantChecker; loads above the degraded capacity
        # are legal because existing queue contents are never truncated).
        process.check_invariants()
        restores = [msg for _, msg in injector.events_log if msg.startswith("restore")]
        assert len(restores) == 1

    def test_partial_degradation_touches_a_fraction(self):
        schedule = Schedule(
            events=(CapacityDegradation(at_round=30, duration=10, capacity=1, fraction=0.25),),
            seed=3,
        )
        _, _, process = run_with_schedule(schedule, rounds=35)
        degraded = np.asarray(process.bins.capacity)
        assert int((degraded == 1).sum()) == round(0.25 * 256)
        assert int((degraded == 2).sum()) == 256 - round(0.25 * 256)

    def test_joiners_mid_window_return_to_nominal_capacity(self):
        # Bins 32-39 join while every bin runs at capacity 1 and inherit
        # it; the window's end must lift them to the nominal 3 along with
        # the degraded bins. Bins 40-41 join with an explicit capacity and
        # keep it.
        scenario = scenario_from_dict(
            {
                "faults": {
                    "seed": 1,
                    "events": [
                        {
                            "type": "capacity_degradation",
                            "at_round": 5,
                            "duration": 10,
                            "capacity": 1,
                        }
                    ],
                },
                "churn": {
                    "seed": 2,
                    "events": [
                        {"type": "join_burst", "at_round": 8, "count": 8},
                        {"type": "join_burst", "at_round": 9, "count": 2, "capacity": 2},
                    ],
                },
            }
        )
        process = CappedProcess(n=32, capacity=3, lam=0.5, rng=1)
        SimulationDriver(burn_in=0, measure=30, observers=scenario.build_observers()).run(process)
        assert np.asarray(process.bins.capacity).tolist() == [3] * 40 + [2] * 2
        process.check_invariants()


class TestPoolShed:
    def test_sheds_youngest_pool_entries(self):
        schedule = Schedule(events=(PoolShed(at_round=50, fraction=0.5),), seed=3)
        trace, injector, _ = run_with_schedule(schedule)
        pools = trace.pool_sizes()
        # Round 50's record is snapshotted before observers run, so the
        # shed removes exactly int(0.5 · pool) of that recorded size.
        assert injector.balls_shed == int(0.5 * pools[49])
        assert injector.balls_shed > 0


class TestBinding:
    def test_rejects_non_schedule(self):
        with pytest.raises(ConfigurationError):
            Injector("not a schedule")

    def test_rejects_rebinding_to_another_process(self):
        injector = Injector(Schedule())
        a = CappedProcess(n=8, capacity=2, lam=0.5, rng=1)
        b = CappedProcess(n=8, capacity=2, lam=0.5, rng=2)
        injector.on_round(a.step(), a)
        with pytest.raises(ConfigurationError):
            injector.on_round(b.step(), b)

    def test_rejects_unknown_process_shape(self):
        injector = Injector(Schedule())
        record = type("R", (), {"round": 1})()
        with pytest.raises(ConfigurationError):
            injector.on_round(record, object())
