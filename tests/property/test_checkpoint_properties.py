"""Property-based tests on checkpoint/restore (hypothesis).

The snapshot contract: at *any* round boundary, ``get_state`` followed by
``set_state`` into a fresh object is invisible — the restored process emits
exactly the trajectory the original would have, and snapshots are immutable
value objects (restoring one twice replays the same future twice). Hypothesis
drives random interleavings of step / snapshot / restore to hunt for state
the snapshot misses (RNG position, pool ages, counters, capacity).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.capped import CappedProcess
from repro.rng import RngFactory

# n, c, lambda numerator (lam = k/n).
configs = st.tuples(
    st.sampled_from([4, 8, 16]),
    st.sampled_from([1, 2, 3, None]),
    st.integers(min_value=0, max_value=15),
).filter(lambda t: t[2] < t[0])

seeds = st.integers(min_value=0, max_value=2**31 - 1)

# A plan is a sequence of step-counts; a snapshot/restore cycle happens
# between consecutive entries.
plans = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5)


def record_key(record):
    return (
        record.round,
        record.arrivals,
        record.thrown,
        record.accepted,
        record.deleted,
        record.pool_size,
        record.total_load,
        record.max_load,
        record.wait_values.tolist(),
        record.wait_counts.tolist(),
    )


def make_capped(config, seed, generation):
    n, c, k = config
    # Restores land in processes built with a *different* RNG seed so any
    # state the snapshot forgets shows up as a diverging trajectory.
    return CappedProcess(
        n=n,
        capacity=c,
        lam=k / n,
        rng=RngFactory(seed).child(generation).generator("capped"),
    )


@given(configs, seeds, plans)
@settings(max_examples=40, deadline=None)
def test_snapshot_restore_interleaving_is_invisible(config, seed, plan):
    # Reference: one process stepping straight through.
    reference = make_capped(config, seed, 0)
    total = sum(plan)
    expected = [record_key(reference.step()) for _ in range(total)]

    # Same trajectory, but hopping through a snapshot/restore between
    # every chunk of the plan, each time into a freshly-built process.
    current = make_capped(config, seed, 0)
    observed = []
    for generation, chunk in enumerate(plan[:-1]):
        observed.extend(record_key(current.step()) for _ in range(chunk))
        snapshot = current.get_state()
        current = make_capped(config, seed, generation + 1)
        current.set_state(snapshot)
        current.check_invariants()
    observed.extend(record_key(current.step()) for _ in range(plan[-1]))

    assert observed == expected


@given(
    configs, seeds, st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=10)
)
@settings(max_examples=40, deadline=None)
def test_snapshot_is_an_immutable_value(config, seed, warmup, rounds):
    # Restoring the same snapshot twice replays the same future twice,
    # even after the donor process has moved on (deep-copy semantics).
    process = make_capped(config, seed, 0)
    for _ in range(warmup):
        process.step()
    snapshot = process.get_state()

    first = make_capped(config, seed, 1)
    first.set_state(snapshot)
    future_one = [record_key(first.step()) for _ in range(rounds)]

    for _ in range(rounds):
        process.step()  # mutate the donor after the snapshot was taken

    second = make_capped(config, seed, 2)
    second.set_state(snapshot)
    future_two = [record_key(second.step()) for _ in range(rounds)]
    assert future_one == future_two
