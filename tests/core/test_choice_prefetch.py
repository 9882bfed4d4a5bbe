"""The background choice prefetch at n = 2¹⁵, where it engages.

Logical blocks of 2¹⁷ words and more are drawn in chunks on a prefetch
thread (``repro.core.capped``, ``docs/kernels.md``). The stream and the
logical block rule stay those of the inline draw, so every record must too:
fused against the per-bucket draws of the reference sweep
(``tests/oracles.py``), checkpoints taken with a chunk in flight or exactly
at a block end, resizes that discard the rest of a block, and a snapshot
whose ``rng`` is a logical block's base state.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.capped import CappedProcess
from repro.core.meanfield import equilibrium
from repro.workloads.arrivals import DeterministicArrivals

from tests.oracles import SweepCappedProcess

N = 2**15
LAM = 1 - 2**-10


def warm(c, process_cls=CappedProcess, seed=2021):
    """A paper-size process warm-started at the mean-field pool."""
    initial_pool = equilibrium(c, LAM).pool_size(N)
    return process_cls(n=N, capacity=c, lam=LAM, rng=seed, initial_pool=initial_pool)


def records_key(records):
    return [
        (
            r.round,
            r.arrivals,
            r.thrown,
            r.accepted,
            r.deleted,
            r.pool_size,
            r.total_load,
            r.max_load,
            r.wait_values.tolist(),
            r.wait_counts.tolist(),
        )
        for r in records
    ]


def digest(records, process):
    payload = json.dumps([records_key(records), process.bins.loads.tolist()])
    return hashlib.sha256(payload.encode()).hexdigest()


def prefetching(process):
    return process._pending is not None


@pytest.mark.parametrize("c", [1, 3])
def test_fused_matches_legacy_record_for_record(c):
    fused, legacy = warm(c), warm(c, SweepCappedProcess)
    for _ in range(12):
        assert records_key([fused.step()]) == records_key([legacy.step()])
        assert prefetching(fused)
    assert np.array_equal(fused.bins.loads, legacy.bins.loads)
    assert fused.pool.counts() == legacy.pool.counts()


def test_prefetch_under_contention_matches_legacy():
    # More stepping threads than cores, each process with its own prefetch
    # thread, and a short switch interval so the interpreter hands the GIL
    # over as often as it can: each process must still draw its own stream.
    seeds = (11, 12, 13)
    expected = {}
    for seed in seeds:
        legacy = warm(3, SweepCappedProcess, seed=seed)
        expected[seed] = records_key([legacy.step() for _ in range(6)])
    got = {}

    def run(seed):
        fused = warm(3, seed=seed)
        got[seed] = records_key([fused.step() for _ in range(6)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def run_from(process, rounds, grow_at=10):
    """Step to round ``rounds``, growing the bin set before ``grow_at``.

    The resize discards the rest of the logical block, so a resumed run only
    matches if its snapshot kept the block end as well as the position.
    """
    records = []
    while process.round < rounds:
        if process.round + 1 == grow_at:
            process.grow_bins(1000)
        records.append(process.step())
    return records


@pytest.mark.parametrize("c", [1, 3])
def test_checkpoint_with_a_chunk_in_flight_resumes(c):
    process = warm(c)
    records, snapshots = [], {}
    for t in (3, 6, 8):
        records += run_from(process, t)
        assert prefetching(process)
        snapshots[t] = process.get_state()
    records += run_from(process, 12)
    for t, state in snapshots.items():
        assert 0 <= state["choice_pos"] <= state["choice_block"]
        resumed = CappedProcess(n=N, capacity=c, lam=LAM, rng=0)
        resumed.set_state(state)
        assert records_key(run_from(resumed, 12)) == records_key(records[t:])
        assert np.array_equal(resumed.bins.loads, process.bins.loads)


def test_checkpoint_at_a_logical_block_end_resumes():
    # Unbounded bins accept every ball, so each round throws exactly 2¹⁶
    # new balls and a logical block (4 · 2¹⁶ words) ends after rounds 4 and 8.
    def make(seed):
        arrivals = DeterministicArrivals(n=4 * N, lam=0.5)
        return CappedProcess(n=N, capacity=None, lam=0.5, rng=seed, arrivals=arrivals)

    process = make(7)
    records, snapshots = [], {}
    for t in range(1, 11):
        records.append(process.step())
        if t in (4, 8):
            snapshots[t] = process.get_state()
    for t, state in snapshots.items():
        assert state.get("choice_pos") == state.get("choice_block")
        resumed = make(0)
        resumed.set_state(state)
        assert records_key([resumed.step() for _ in range(10 - t)]) == records_key(records[t:])


# sha256 of the records and final loads of a run that grows and shrinks the
# bin set mid-block, computed with every block drawn inline: the prefetch
# thread must discard exactly the words the inline draw discarded.
RESIZE_DIGESTS = {
    1: "43222d3b0609290b0659b4be78ae3bb1a04caf0fb8a9cb07aeeb6ad74196beea",
    3: "d170ec7a9624c109eea7a8b2f1c746631e36aea70e7e1568d52361450d3b2382",
}


@pytest.mark.parametrize("c", [1, 3])
def test_resize_trajectory_is_pinned(c):
    process = warm(c)
    records = []
    for t in range(1, 21):
        if t in (4, 11):
            process.grow_bins(1000)
        if t in (7, 16):
            process.shrink_bins(np.arange(0, 3000, 3))
        records.append(process.step())
    assert digest(records, process) == RESIZE_DIGESTS[c]


# A round-6 snapshot of CappedProcess(n=2**12, capacity=1, lam=0.5, rng=3,
# initial_pool=200_000) in the layout every version writes for an inline
# block: ``rng`` is the block's base state, and the block holds 775,424
# words. The digest covers the next 6 rounds of the uninterrupted run.
BLOCK_BASE_DIGEST = "25b896c3d3f7e4cbb1cd5bbc7135f36fe4651ca06d410b73b67c986299f2403f"


def test_block_base_snapshot_restores():
    fixture = json.loads(Path(__file__).with_name("block_base_snapshot.json").read_text())
    process = CappedProcess(n=2**12, capacity=1, lam=0.5, rng=0)
    process.set_state(fixture["state"])
    records = [process.step() for _ in range(6)]
    assert prefetching(process)
    assert digest(records, process) == BLOCK_BASE_DIGEST


def prefetch_threads():
    return sum(thread.name.startswith("choice-prefetch") for thread in threading.enumerate())


def test_prefetch_thread_ends_with_the_process():
    # Threads left by earlier tests may still be ending, so the overall
    # count may only fall; the prefetch threads are counted exactly.
    gc.collect()
    baseline = threading.active_count()
    process = warm(1)
    for _ in range(3):
        process.step()
    assert prefetch_threads() == 1
    process.set_state(process.get_state())
    assert prefetch_threads() == 0
    process.step()
    assert prefetch_threads() == 1
    del process
    gc.collect()
    assert prefetch_threads() == 0
    assert threading.active_count() <= baseline
