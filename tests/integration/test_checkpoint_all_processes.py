"""Integration: checkpoint/restore resumes identical trajectories everywhere.

Every checkpointable process (CAPPED, MODCAPPED, GREEDY, d-choice CAPPED)
must replay the
exact same future after a snapshot round-trip — including its RNG
state.
"""

import pytest

from repro.core.capped import CappedProcess
from repro.core.modcapped import ModCappedProcess
from repro.processes.capped_dchoice import CappedDChoiceProcess
from repro.processes.greedy import GreedyBatchProcess


def trajectory(process, rounds):
    return [
        (r.pool_size, r.accepted, r.deleted, r.max_load, r.total_load)
        for r in (process.step() for _ in range(rounds))
    ]


FACTORIES = {
    "capped": lambda seed: CappedProcess(n=48, capacity=2, lam=0.75, rng=seed),
    "capped_dchoice": lambda seed: CappedDChoiceProcess(n=48, capacity=2, lam=0.75, rng=seed),
    "modcapped": lambda seed: ModCappedProcess(n=48, c=3, lam=0.75, rng=seed),
    "greedy": lambda seed: GreedyBatchProcess(n=48, d=2, lam=0.75, rng=seed),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_snapshot_restore_resumes_identically(name):
    factory = FACTORIES[name]
    process = factory(1)
    trajectory(process, 25)
    snapshot = process.get_state()
    expected = trajectory(process, 40)

    fresh = factory(999)  # different seed: state must fully override it
    fresh.set_state(snapshot)
    assert trajectory(fresh, 40) == expected


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_snapshot_rewind_same_instance(name):
    process = FACTORIES[name](2)
    trajectory(process, 10)
    snapshot = process.get_state()
    first = trajectory(process, 20)
    process.set_state(snapshot)
    assert trajectory(process, 20) == first


def test_greedy_shape_mismatch_rejected():
    small = GreedyBatchProcess(n=8, d=1, lam=0.5, rng=0)
    small.step()
    big = GreedyBatchProcess(n=16, d=1, lam=0.5, rng=0)
    with pytest.raises(ValueError):
        big.set_state(small.get_state())


def test_modcapped_shape_mismatch_rejected():
    small = ModCappedProcess(n=8, c=2, lam=0.5, rng=0)
    small.step()
    big = ModCappedProcess(n=16, c=2, lam=0.5, rng=0)
    with pytest.raises(ValueError):
        big.set_state(small.get_state())
