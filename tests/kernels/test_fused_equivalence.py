"""The fused round kernel is exact against the per-bucket reference sweep.

The sweep (``tests/oracles.py``) is the original, legacy round step. Two
layers of evidence, per the kernel's contract:

1. **Identical injected choices** → identical :class:`RoundRecord`
   sequences (pure acceptance-logic equivalence, no RNG involved).
2. **Independent streams from the same seed** → identical sequences
   *anyway*, because both paths consume the generator identically:
   bounded ``Generator.integers`` draws split across calls concatenate
   bit-identically to one big call (asserted directly below as the
   RNG-stream contract).

Covered configurations: CAPPED with c = 1, larger c, unbounded bins,
youngest-first ablation order, heterogeneous per-bin capacities,
warm-started pools, d-choice with d ≥ 2, and fault-injected runs with
down and degraded bins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import (
    CapacityDegradation,
    CrashBurst,
    Injector,
    PeriodicOutage,
    Schedule,
)
from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import TraceRecorder
from repro.processes.capped_dchoice import CappedDChoiceProcess
from repro.rng import RngFactory

from tests.oracles import SweepCappedProcess, SweepDChoiceProcess


def assert_records_equal(a, b, context=""):
    assert a.round == b.round, context
    assert a.arrivals == b.arrivals, context
    assert a.thrown == b.thrown, context
    assert a.accepted == b.accepted, context
    assert a.deleted == b.deleted, context
    assert a.pool_size == b.pool_size, context
    assert a.total_load == b.total_load, context
    assert a.max_load == b.max_load, context
    assert np.array_equal(a.wait_values, b.wait_values), context
    assert np.array_equal(a.wait_counts, b.wait_counts), context


def run_capped(process_cls, rounds=150, seed=7, **kwargs):
    rng = RngFactory(seed).child(0).generator("capped")
    process = process_cls(rng=rng, **kwargs)
    records = [process.step() for _ in range(rounds)]
    process.check_invariants()
    return records, process


CAPPED_CONFIGS = [
    dict(n=64, capacity=1, lam=0.9375),
    dict(n=64, capacity=4, lam=0.984375),
    dict(n=64, capacity=None, lam=0.96875),
    dict(n=64, capacity=2, lam=0.9375, acceptance_order="youngest"),
    dict(n=64, capacity=1, lam=0.9375, initial_pool=100),
]


class TestCappedFusedVsLegacy:
    @pytest.mark.parametrize("config", CAPPED_CONFIGS, ids=lambda c: str(sorted(c.items())))
    def test_independent_streams_same_seed(self, config):
        fused, p1 = run_capped(CappedProcess, **config)
        legacy, p2 = run_capped(SweepCappedProcess, **config)
        for a, b in zip(fused, legacy):
            assert_records_equal(a, b, context=f"round {a.round}: {config}")
        assert np.array_equal(p1.bins.loads, p2.bins.loads)
        assert p1.pool.labels() == p2.pool.labels()
        assert p1.pool.counts() == p2.pool.counts()

    def test_heterogeneous_per_bin_capacities(self):
        capacity = np.arange(1, 33) % 3 + 1
        fused, p1 = run_capped(CappedProcess, n=32, capacity=capacity, lam=0.9375)
        legacy, p2 = run_capped(SweepCappedProcess, n=32, capacity=capacity, lam=0.9375)
        for a, b in zip(fused, legacy):
            assert_records_equal(a, b, context=f"round {a.round}")
        assert np.array_equal(p1.bins.loads, p2.bins.loads)

    def test_identical_injected_choices(self):
        # No RNG in the loop at all: the acceptance logic alone must agree.
        n, lam = 32, 0.875
        fused = CappedProcess(n=n, capacity=2, lam=lam, rng=0)
        legacy = SweepCappedProcess(n=n, capacity=2, lam=lam, rng=0)
        choice_rng = np.random.default_rng(42)
        for _ in range(120):
            thrown = fused.pool.size + round(lam * n)
            choices = choice_rng.integers(0, n, size=thrown)
            assert_records_equal(fused.step(choices=choices), legacy.step(choices=choices))

    def test_rng_stream_contract(self):
        # The property the paths' bit-identity rests on: bounded integer
        # draws split across calls equal one concatenated draw, for the 1D
        # per-bucket splits and the row-major (count, d) probe matrices.
        split, whole = np.random.default_rng(3), np.random.default_rng(3)
        chunks = [split.integers(0, 64, size=k) for k in (5, 0, 17, 3)]
        assert np.array_equal(np.concatenate(chunks), whole.integers(0, 64, size=25))

        split2, whole2 = np.random.default_rng(4), np.random.default_rng(4)
        rows = [split2.integers(0, 64, size=(k, 3)) for k in (4, 9)]
        assert np.array_equal(np.vstack(rows), whole2.integers(0, 64, size=(13, 3)))


class TestDChoiceFusedVsLegacy:
    @pytest.mark.parametrize(
        "config",
        [
            dict(n=64, capacity=1, lam=0.9375, d=2),
            dict(n=64, capacity=1, lam=0.9375, d=1),
            dict(n=64, capacity=4, lam=0.984375, d=3),
            dict(n=64, capacity=2, lam=0.25, d=2),  # pool empties regularly
            dict(n=64, capacity=2, lam=0.9375, d=2, initial_pool=80),
            dict(n=64, capacity=3, lam=0.9375, d=1),  # serial kernel
            dict(n=64, capacity=4, lam=0.984375, d=2, initial_pool=120),
        ],
        ids=lambda c: str(sorted(c.items())),
    )
    def test_independent_streams_same_seed(self, config):
        def run(process_cls):
            rng = RngFactory(3).child(0).generator("capped-dchoice")
            process = process_cls(rng=rng, **config)
            records = [process.step() for _ in range(200)]
            process.check_invariants()
            return records, process

        fused, p1 = run(CappedDChoiceProcess)
        legacy, p2 = run(SweepDChoiceProcess)
        for a, b in zip(fused, legacy):
            assert_records_equal(a, b, context=f"round {a.round}: {config}")
        assert np.array_equal(p1.bins.loads, p2.bins.loads)

    def test_identical_injected_choices(self):
        # Injected choices are the committed bins: no probes are drawn, and
        # both paths must resolve them identically.
        n, lam = 32, 0.875
        fused = CappedDChoiceProcess(n=n, capacity=3, lam=lam, rng=0)
        legacy = SweepDChoiceProcess(n=n, capacity=3, lam=lam, rng=0)
        choice_rng = np.random.default_rng(42)
        for _ in range(120):
            thrown = fused.pool.size + round(lam * n)
            choices = choice_rng.integers(0, n, size=thrown)
            assert_records_equal(fused.step(choices=choices), legacy.step(choices=choices))
        assert fused.rng.bit_generator.state == legacy.rng.bit_generator.state


class TestFusedUnderFaults:
    def run_faulty(self, process_cls, schedule):
        process = process_cls(n=128, capacity=2, lam=0.9375, rng=11, initial_pool=40)
        trace = TraceRecorder()
        driver = SimulationDriver(burn_in=0, measure=120, observers=[trace, Injector(schedule)])
        driver.run(process)
        process.check_invariants()
        return trace, process

    def test_down_and_degraded_bins_match(self):
        # Crashes zero a bin's free slots and freeze its queue; degradation
        # can leave bins *over* their shrunken capacity — both paths must
        # agree on acceptance and waits throughout.
        schedule = Schedule(
            events=(
                CrashBurst(at_round=20, fraction=0.25, duration=30),
                CapacityDegradation(at_round=55, duration=25, capacity=1, fraction=0.5),
                PeriodicOutage(period=40, duration=8, fraction=0.1, first_round=10),
            ),
            seed=5,
        )
        fused_trace, p1 = self.run_faulty(CappedProcess, schedule)
        legacy_trace, p2 = self.run_faulty(SweepCappedProcess, schedule)
        assert fused_trace.pool_sizes() == legacy_trace.pool_sizes()
        for a, b in zip(fused_trace.records, legacy_trace.records):
            assert_records_equal(a, b, context=f"round {a.round}")
        assert np.array_equal(p1.bins.loads, p2.bins.loads)
        assert np.array_equal(p1.bins.down, p2.bins.down)
