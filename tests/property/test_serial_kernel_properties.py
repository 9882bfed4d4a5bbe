"""Property-based tests on the whole-round serial kernel.

Hypothesis drives the exact-equivalence contract over randomly drawn
small configurations: the fused path (one whole-round kernel call per
round) produces ``RoundRecord`` streams bit-identical to the per-bucket
reference sweep (``tests/oracles.py``) on random ``(n, c, λ)`` grids.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.capped import CappedProcess
from repro.rng import RngFactory

from tests.oracles import SweepCappedProcess

# n, c, lambda numerator (lam = k/n). c = 1 covers the unit-take kernel
# (and the serial kernel on rounds that start with loaded bins), c >= 2 the
# serial kernel.
configs = st.tuples(
    st.sampled_from([4, 8, 16, 32]),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=31),
).filter(lambda t: t[2] < t[0])

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def assert_same_record(a, b, context):
    assert a.round == b.round, context
    assert a.thrown == b.thrown, context
    assert a.accepted == b.accepted, context
    assert a.deleted == b.deleted, context
    assert a.pool_size == b.pool_size, context
    assert a.total_load == b.total_load, context
    assert a.max_load == b.max_load, context
    assert np.array_equal(a.wait_values, b.wait_values), context
    assert np.array_equal(a.wait_counts, b.wait_counts), context


@given(configs, seeds, st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_fused_matches_legacy_on_random_grid(config, seed, rounds):
    n, c, k, = config
    lam = k / n
    fused = CappedProcess(
        n=n, capacity=c, lam=lam, rng=RngFactory(seed).child(0).generator("capped")
    )
    legacy = SweepCappedProcess(
        n=n, capacity=c, lam=lam, rng=RngFactory(seed).child(0).generator("capped")
    )
    for _ in range(rounds):
        assert_same_record(fused.step(), legacy.step(), context=(config, seed))
    assert np.array_equal(fused.bins.loads, legacy.bins.loads)
    fused.check_invariants()
