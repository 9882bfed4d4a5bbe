"""Unit tests for heterogeneous (per-bin) capacities."""

import numpy as np
import pytest

from repro.balls.bin_array import BinArray
from repro.core.capped import CappedProcess
from repro.core.meanfield import equilibrium, mixture_equilibrium_pool
from repro.engine.driver import SimulationDriver
from repro.errors import ConfigurationError

from tests.rounds import fill, run_round


class TestBinArrayPerBinCapacity:
    def test_accept_respects_per_bin_caps(self):
        bins = BinArray(n=3, capacity=np.array([1, 2, 3]))
        resolved = run_round(bins, [5, 5, 5])
        # Queue positions 0 at all three bins, 1 at two of them, 2 at one.
        assert resolved.wait_values.tolist() == [0, 1, 2]
        assert resolved.wait_counts.tolist() == [3, 2, 1]

    def test_free_slots_per_bin(self):
        bins = BinArray(n=2, capacity=np.array([2, 4]))
        fill(bins, [1, 1])
        assert run_round(bins, [9, 9]).accepted_total == 1 + 3

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            BinArray(n=3, capacity=np.array([1, 2]))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BinArray(n=2, capacity=np.array([1, 0]))

    def test_invariant_check_elementwise(self):
        bins = BinArray(n=2, capacity=np.array([1, 5]))
        bins.loads[0] = 3
        with pytest.raises(Exception):
            bins.check_invariants()

    def test_capacity_array_copied(self):
        caps = np.array([2, 2])
        bins = BinArray(n=2, capacity=caps)
        caps[0] = 99
        assert bins.capacity[0] == 2


class TestCappedHeterogeneous:
    def test_runs_with_capacity_array(self):
        caps = np.concatenate([np.full(16, 1), np.full(16, 3)])
        process = CappedProcess(n=32, capacity=caps, lam=0.75, rng=0)
        for _ in range(60):
            record = process.step()
            assert record.thrown == record.accepted + record.pool_size
        process.check_invariants()

    def test_loads_respect_per_bin_caps(self):
        caps = np.concatenate([np.full(16, 1), np.full(16, 4)])
        process = CappedProcess(n=32, capacity=caps, lam=0.875, rng=1)
        for _ in range(80):
            process.step()
            assert np.all(process.bins.loads <= caps)

    def test_uniform_array_equals_scalar_distributionally(self):
        driver = SimulationDriver(burn_in=300, measure=300)
        scalar = driver.run(CappedProcess(n=512, capacity=2, lam=0.875, rng=2))
        array = driver.run(CappedProcess(n=512, capacity=np.full(512, 2), lam=0.875, rng=3))
        assert array.normalized_pool == pytest.approx(scalar.normalized_pool, rel=0.1)


class TestMixtureMeanField:
    def test_single_class_matches_plain_equilibrium(self):
        lam = 0.875
        mixture = mixture_equilibrium_pool({2: 1.0}, lam)
        plain = equilibrium(2, lam).normalized_pool
        assert mixture == pytest.approx(plain, rel=1e-4)

    def test_zero_lambda(self):
        assert mixture_equilibrium_pool({1: 0.5, 3: 0.5}, 0.0) == 0.0

    def test_uniform_beats_split_budget(self):
        # Concavity of the accept rate in c: equal budget, uniform wins.
        lam = 1 - 2**-8
        uniform = mixture_equilibrium_pool({2: 1.0}, lam)
        split = mixture_equilibrium_pool({1: 0.5, 3: 0.5}, lam)
        assert uniform < split

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mixture_equilibrium_pool({}, 0.5)
        with pytest.raises(ConfigurationError):
            mixture_equilibrium_pool({1: 0.4, 3: 0.4}, 0.5)  # shares != 1
        with pytest.raises(ConfigurationError):
            mixture_equilibrium_pool({0: 1.0}, 0.5)

    def test_matches_simulation(self):
        lam = 1 - 2**-6
        n = 1024
        caps = np.concatenate([np.full(n // 2, 1), np.full(n // 2, 3)])
        predicted = mixture_equilibrium_pool({1: 0.5, 3: 0.5}, lam)
        process = CappedProcess(n=n, capacity=caps, lam=lam, rng=4, initial_pool=int(predicted * n))
        result = SimulationDriver(burn_in=400, measure=400).run(process)
        assert result.normalized_pool == pytest.approx(predicted, rel=0.1)
