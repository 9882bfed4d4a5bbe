"""Unit tests for the mean-field equilibrium solver."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import meanfield
from repro.core.meanfield import (
    accept_rate,
    equilibrium,
    equilibrium_throw_intensity,
    mixture_equilibrium_pool,
    poisson_pmf,
    stationary_loads,
)
from repro.errors import ConfigurationError

GOLDEN = Path(__file__).with_name("meanfield_golden.json")

# The heterogeneous_capacity experiment's three layouts of a 2n budget.
LAYOUTS = {
    "uniform c=2": {2: 1.0},
    "split 1/3": {1: 0.5, 3: 0.5},
    "skewed 1/9": {9: 1 / 8, 1: 7 / 8},
}


@pytest.fixture(autouse=True)
def cold_memo():
    """Start every test with an empty equilibrium memo."""
    meanfield._solve_equilibrium.cache_clear()


def snapshot() -> dict:
    """Every solver output of the golden grid, as ``float.hex`` strings.

    Grid: c ∈ 1..9 × λ = 1 − 2⁻ᵏ, k ∈ 1..13 (keyed ``"c k"``), plus the
    mixture pools of :data:`LAYOUTS` at λ = 1 − 2⁻⁸. Regenerate the
    golden file only for an intended numerical change:
    ``PYTHONPATH=src python tests/core/test_meanfield.py``.
    """
    cells = {}
    for c in range(1, 10):
        for k in range(1, 14):
            eq = equilibrium(c, 1.0 - 2.0**-k)
            cells[f"{c} {k}"] = {
                "throw_intensity": float(eq.throw_intensity).hex(),
                "normalized_pool": float(eq.normalized_pool).hex(),
                "mean_load": float(eq.mean_load).hex(),
                "mean_wait": float(eq.mean_wait).hex(),
                "load_distribution": [float(p).hex() for p in eq.load_distribution],
            }
    mixture = {
        name: mixture_equilibrium_pool(shares, 1.0 - 2.0**-8).hex()
        for name, shares in LAYOUTS.items()
    }
    return {"equilibrium": cells, "mixture": mixture}


class TestPoissonPmf:
    def test_sums_to_one(self):
        assert poisson_pmf(3.0, 50).sum() == pytest.approx(1.0)

    def test_matches_closed_form(self):
        pmf = poisson_pmf(2.0, 20)
        for k in (0, 1, 5):
            expected = math.exp(-2.0) * 2.0**k / math.factorial(k)
            assert pmf[k] == pytest.approx(expected)

    def test_zero_rate(self):
        pmf = poisson_pmf(0.0, 5)
        assert pmf[0] == 1.0
        assert pmf[1:].sum() == 0.0

    def test_tail_folded_into_last_bin(self):
        pmf = poisson_pmf(10.0, 5)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[5] > math.exp(-10.0) * 10.0**5 / math.factorial(5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            poisson_pmf(-1.0, 5)
        with pytest.raises(ConfigurationError):
            poisson_pmf(1.0, -1)


class TestStationaryLoads:
    def test_unit_capacity_always_empty(self):
        # c=1 bins delete everything they accept each round.
        dist = stationary_loads(2.0, c=1)
        assert dist[0] == pytest.approx(1.0)
        assert dist[1] == pytest.approx(0.0)

    def test_distribution_normalised(self):
        for c in (1, 2, 4):
            dist = stationary_loads(1.5, c)
            assert dist.sum() == pytest.approx(1.0)
            assert np.all(dist >= -1e-12)

    def test_high_intensity_saturates(self):
        # Huge intensity: bin always fills to c, deletes one -> load c-1.
        dist = stationary_loads(50.0, c=3)
        assert dist[2] == pytest.approx(1.0, abs=1e-6)

    def test_zero_intensity_stays_empty(self):
        dist = stationary_loads(0.0, c=3)
        assert dist[0] == pytest.approx(1.0)


class TestAcceptRate:
    def test_unit_capacity_closed_form(self):
        # c=1: accept rate = P(A >= 1) = 1 - e^{-intensity}.
        for intensity in (0.5, 1.0, 2.5):
            assert accept_rate(intensity, 1) == pytest.approx(1 - math.exp(-intensity), abs=1e-6)

    def test_monotone_in_intensity(self):
        rates = [accept_rate(x, 2) for x in (0.5, 1.0, 2.0, 4.0)]
        assert rates == sorted(rates)

    def test_bounded_by_one(self):
        # At most one deletion per bin per round in equilibrium.
        assert accept_rate(30.0, 2) <= 1.0 + 1e-9


class TestEquilibrium:
    def test_unit_capacity_matches_ln_form(self):
        # For c=1 the equilibrium intensity is exactly ln(1/(1-lam)).
        for lam in (0.5, 0.75, 1 - 2**-8):
            intensity = equilibrium_throw_intensity(1, lam)
            assert intensity == pytest.approx(math.log(1 / (1 - lam)), rel=1e-5)

    def test_zero_lambda(self):
        eq = equilibrium(2, 0.0)
        assert eq.normalized_pool == 0.0
        assert eq.mean_wait == 0.0

    def test_pool_decreases_in_capacity(self):
        lam = 1 - 2**-8
        pools = [equilibrium(c, lam).normalized_pool for c in (1, 2, 3, 4)]
        assert pools == sorted(pools, reverse=True)

    def test_pool_increases_in_lambda(self):
        pools = [equilibrium(2, lam).normalized_pool for lam in (0.5, 0.75, 0.9375)]
        assert pools == sorted(pools)

    def test_little_law_consistency(self):
        eq = equilibrium(2, 0.75)
        assert eq.mean_wait == pytest.approx((eq.normalized_pool + eq.mean_load) / 0.75)

    def test_pool_size_helper(self):
        eq = equilibrium(1, 0.75)
        assert eq.pool_size(1000) == round(eq.normalized_pool * 1000)

    def test_matches_simulation(self):
        # The headline validation: fluid limit vs the actual process.
        from repro.analysis.sweep import measure_capped

        for c, lam in ((1, 0.75), (2, 1 - 2**-6)):
            predicted = equilibrium(c, lam).normalized_pool
            point = measure_capped(n=2048, c=c, lam=lam, measure=300, seed=1)
            assert point.normalized_pool == pytest.approx(predicted, rel=0.1)

    def test_wait_prediction_matches_simulation(self):
        from repro.analysis.sweep import measure_capped

        c, lam = 2, 0.875
        predicted = equilibrium(c, lam).mean_wait
        point = measure_capped(n=2048, c=c, lam=lam, measure=300, seed=2)
        assert point.avg_wait == pytest.approx(predicted, rel=0.1)


class TestBitExactness:
    def test_matches_golden_bit_for_bit(self):
        golden = json.loads(GOLDEN.read_text())
        current = snapshot()
        assert current["mixture"] == golden["mixture"]
        assert current["equilibrium"].keys() == golden["equilibrium"].keys()
        for cell, expected in golden["equilibrium"].items():
            assert current["equilibrium"][cell] == expected, cell


class TestMemo:
    def test_repeat_call_returns_same_object(self):
        first = equilibrium(3, 1 - 2**-6)
        assert equilibrium(3, 1 - 2**-6) is first
        assert equilibrium(np.int64(3), np.float64(1 - 2**-6)) is first

    def test_shared_load_distribution_is_read_only(self):
        eq = equilibrium(2, 0.75)
        with pytest.raises(ValueError):
            eq.load_distribution[0] = 0.5

    def test_one_solve_per_cell(self, meanfield_solves):
        for _ in range(3):
            equilibrium(2, 0.75)
            equilibrium(4, 0.75)
        assert meanfield_solves == [(2, 0.75), (4, 0.75)]

    def test_serial_experiment_solves_each_cell_once(self, meanfield_solves):
        # Discovery, every warm-started task and the replay of fig4_right
        # all ask for the same cells; each must be solved exactly once.
        from repro.analysis.experiments import Profile
        from repro.parallel.runner import run_experiments

        profile = Profile(name="tiny", n=256, measure=20, replicates=1)
        [result] = run_experiments(["fig4_right"], profile=profile, jobs=1).results
        assert result.rows
        cells = {(c, 1.0 - 2.0**-k) for c in (1, 3) for k in range(1, 9)}
        assert sorted(meanfield_solves) == sorted(cells)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True))
