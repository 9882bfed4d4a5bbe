"""Unit tests for the d-choice CAPPED ablation process."""

import pytest

from repro.engine.driver import SimulationDriver
from repro.errors import ConfigurationError
from repro.processes.capped_dchoice import CappedDChoiceProcess
from repro.rng import RngFactory


def summary(record):
    return (
        record.accepted,
        record.pool_size,
        record.max_load,
        record.total_load,
        record.wait_values.tolist(),
        record.wait_counts.tolist(),
    )


class TestConfiguration:
    def test_rejects_unbounded_capacity(self):
        with pytest.raises(ConfigurationError):
            CappedDChoiceProcess(n=8, capacity=None, lam=0.5)  # type: ignore[arg-type]

    def test_rejects_zero_probes(self):
        with pytest.raises(ConfigurationError):
            CappedDChoiceProcess(n=8, capacity=1, lam=0.5, d=0)

    def test_rejects_negative_initial_pool(self):
        with pytest.raises(ConfigurationError):
            CappedDChoiceProcess(n=8, capacity=1, lam=0.5, initial_pool=-1)


class TestDynamics:
    def test_conservation(self):
        process = CappedDChoiceProcess(n=64, capacity=2, lam=0.75, d=2, rng=0)
        generated = deleted = 0
        for _ in range(80):
            record = process.step()
            generated += record.arrivals
            deleted += record.deleted
            assert record.thrown == record.accepted + record.pool_size
        assert generated == deleted + record.pool_size + record.total_load

    def test_capacity_respected(self):
        process = CappedDChoiceProcess(n=32, capacity=3, lam=0.875, d=2, rng=1)
        for _ in range(60):
            record = process.step()
            assert record.max_load <= 3
        process.check_invariants()

    def test_d1_matches_capped_distributionally(self):
        from repro.core.capped import CappedProcess

        driver = SimulationDriver(burn_in=300, measure=400)
        plain = driver.run(CappedProcess(n=512, capacity=2, lam=0.875, rng=2))
        dchoice = driver.run(CappedDChoiceProcess(n=512, capacity=2, lam=0.875, d=1, rng=3))
        assert dchoice.normalized_pool == pytest.approx(plain.normalized_pool, rel=0.1)
        assert dchoice.avg_wait == pytest.approx(plain.avg_wait, rel=0.1)

    def test_second_choice_noop_at_unit_capacity(self):
        # c=1 bins start every round empty: start-of-round loads carry no
        # signal, so the second probe changes nothing beyond noise (the
        # APPROX'12 parallel d-choice weakness).
        driver = SimulationDriver(burn_in=400, measure=400)
        one = driver.run(CappedDChoiceProcess(n=512, capacity=1, lam=0.9375, d=1, rng=4))
        two = driver.run(CappedDChoiceProcess(n=512, capacity=1, lam=0.9375, d=2, rng=4))
        assert two.normalized_pool == pytest.approx(one.normalized_pool, rel=0.1)

    def test_second_choice_reduces_pool_with_persistent_loads(self):
        driver = SimulationDriver(burn_in=400, measure=400)
        one = driver.run(CappedDChoiceProcess(n=512, capacity=2, lam=0.9375, d=1, rng=4))
        two = driver.run(CappedDChoiceProcess(n=512, capacity=2, lam=0.9375, d=2, rng=4))
        assert two.normalized_pool < one.normalized_pool
        assert two.avg_wait < one.avg_wait

    def test_warm_start(self):
        process = CappedDChoiceProcess(n=64, capacity=2, lam=0.75, d=2, rng=5, initial_pool=40)
        assert process.pool_size == 40


class TestCheckpoint:
    def test_stream_name_and_checkpoint_keys(self):
        seeded = CappedDChoiceProcess(n=32, capacity=2, lam=0.75, d=2, rng=1)
        named = RngFactory(1).generator("capped-dchoice")
        streamed = CappedDChoiceProcess(n=32, capacity=2, lam=0.75, d=2, rng=named)
        for _ in range(20):
            assert summary(seeded.step()) == summary(streamed.step())
        assert sorted(seeded.get_state()) == ["bins", "pool", "rng", "round"]

    def test_restore_snapshot_taken_at_another_bin_count(self):
        # Same λn (4 balls a round) at n = 8 and n = 16: after restoring
        # the n = 8 snapshot, the n = 16 process must *be* that process —
        # adopt its bin count and replay its future exactly.
        source = CappedDChoiceProcess(n=8, capacity=2, lam=0.5, d=2, rng=3)
        for _ in range(10):
            source.step()
        snapshot = source.get_state()
        expected = [source.step() for _ in range(30)]

        target = CappedDChoiceProcess(n=16, capacity=2, lam=0.25, d=2, rng=4)
        target.set_state(snapshot)
        assert target.n == target.bins.n == 8
        assert [summary(target.step()) for _ in expected] == [summary(r) for r in expected]
