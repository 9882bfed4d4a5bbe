"""Shared fixtures and collection hooks for the repro test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.rng import RngFactory


def pytest_collection_modifyitems(config, items) -> None:
    """Mark tests by tier based on their directory.

    ``tests/integration`` holds the long-running end-to-end runs and
    ``tests/property`` the hypothesis suites; both get ``slow`` so CI's
    default job (``-m "not slow"``) runs the fast tier and the scheduled
    job picks the rest up. The tier-1 command runs everything regardless.
    """
    for item in items:
        parts = Path(str(item.fspath)).parts
        if "integration" in parts:
            item.add_marker(pytest.mark.slow)
        if "property" in parts:
            item.add_marker(pytest.mark.property)
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def factory() -> RngFactory:
    """A deterministic RngFactory, fresh per test."""
    return RngFactory(seed=777)


@pytest.fixture
def meanfield_solves(monkeypatch) -> list[tuple[int, float]]:
    """Cold mean-field solves in this test, as ``(c, lam)`` in call order.

    Empties the per-process :func:`repro.core.meanfield.equilibrium` memo
    first, so the count does not depend on which tests ran before.
    """
    from repro.core import meanfield

    meanfield._solve_equilibrium.cache_clear()
    solves: list[tuple[int, float]] = []
    solve = meanfield.equilibrium_throw_intensity

    def counting(c: int, lam: float) -> float:
        solves.append((c, lam))
        return solve(c, lam)

    monkeypatch.setattr(meanfield, "equilibrium_throw_intensity", counting)
    return solves
