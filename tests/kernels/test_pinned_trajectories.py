"""Pinned trajectories of the rounds that leave the fault-free serial regime.

Down bins (preserved and wiped buffers), unit capacity with bins down or
draining, and unbounded bins each once ran on an acceptance path of their
own. The digests below are sha256 hashes of each fused run's records and
final loads, computed while those paths still existed: the round kernels
that replaced them must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.churn import CrashBurst, Injector, JoinBurst, LeaveBurst, PeriodicOutage, Schedule
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import TraceRecorder

from tests.engine.test_driver_checkpoint import records_key

ROUNDS = 120


def outages(buffer_policy):
    return (
        CrashBurst(at_round=20, fraction=0.1, duration=15, buffer_policy=buffer_policy),
        PeriodicOutage(
            period=25, duration=5, fraction=0.05, first_round=40, buffer_policy=buffer_policy
        ),
    )


RUNS = {
    "c3_preserved_outages": (3, Schedule(events=outages("preserved"), seed=4)),
    "c3_wiped_outages": (3, Schedule(events=outages("wiped"), seed=4)),
    "c1_down_bins": (1, Schedule(events=outages("preserved"), seed=6)),
    "unbounded": (None, None),
    "c1_drain": (
        1,
        Schedule(
            events=(
                JoinBurst(at_round=15, count=32),
                LeaveBurst(at_round=30, fraction=0.25, policy="drain"),
                LeaveBurst(at_round=50, count=16, policy="drain"),
            ),
            seed=2,
        ),
    ),
}

PINNED = {
    "c3_preserved_outages": "0f9761a414b6f3c90070619649fe658d2b7f7a552b5d7619f773ac055d5013b8",
    "c3_wiped_outages": "2ffede084eb149483d87ea66b8edb9b3d0999ad7062c11bd544cd878ad98d6f1",
    "c1_down_bins": "8c7566e8fe754c2f3d7969115f1da5bd3a66390b273cc4f1887b4432491258c5",
    "unbounded": "c5471c03de41923e3421e63a945d16db023ea746fc875495fe6abf436a97c40e",
    "c1_drain": "fc837101f82c6d93ba8454c48867dca2837be471c6357e45a80d30c69a714882",
}


def trajectory_digest(name):
    capacity, schedule = RUNS[name]
    process = CappedProcess(n=128, capacity=capacity, lam=0.875, rng=5, initial_pool=64)
    trace = TraceRecorder()
    observers = [trace] if schedule is None else [trace, Injector(schedule)]
    SimulationDriver(burn_in=0, measure=ROUNDS, observers=observers).run(process)
    process.check_invariants()
    payload = json.dumps([records_key(trace.records), process.bins.loads.tolist()])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_is_pinned(name):
    assert trajectory_digest(name) == PINNED[name]
