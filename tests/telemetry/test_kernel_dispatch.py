"""``kernel_dispatch_total{path}``: one whole-round kernel call per fused round.

Every fused round — down bins, unbounded bins and empty pools included —
is resolved by exactly one of the two round kernels, so the dispatch
counter has two paths, ``unit_take`` and ``serial``, and sums to
``rounds_total{kernel="fused"}``.
"""

import pytest

from repro import telemetry
from repro.core.capped import CappedProcess


def dispatch(tel, path):
    return tel.registry.counter("kernel_dispatch_total").value(path=path)


def test_round_with_a_bin_down_counts_serial():
    process = CappedProcess(n=16, capacity=3, lam=0.75, rng=1, initial_pool=8)
    process.step()
    process.bins.set_down([2])
    with telemetry.session() as tel:
        process.step()
    assert dispatch(tel, "serial") == 1.0
    assert dispatch(tel, "counting") == 0.0
    assert len(tel.registry.counter("kernel_dispatch_total")) == 1


@pytest.mark.parametrize("capacity", [1, 3, None], ids=["c1", "c3", "unbounded"])
def test_dispatch_total_equals_fused_rounds(capacity):
    # No arrivals: the warm pool drains and the last rounds throw nothing.
    process = CappedProcess(n=16, capacity=capacity, lam=0.0, rng=2, initial_pool=40)
    rounds = 30
    with telemetry.session() as tel:
        for _ in range(rounds):
            process.step()
    assert process.pool_size == 0 and process.bins.total_load == 0
    fused = tel.registry.counter("rounds_total").value(kernel="fused")
    assert fused == rounds
    assert dispatch(tel, "unit_take") + dispatch(tel, "serial") == fused
