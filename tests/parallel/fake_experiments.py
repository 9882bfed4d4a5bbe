"""Fake experiments for runner scheduling tests.

Register them with :func:`register` (through ``monkeypatch``, so the real
registry is restored after the test). A *measuring* experiment asks the
sweep helpers for one cheap cell; a *pure-driver* experiment makes no
measurement call, so its discovery run is its real run, and it calls a
test-supplied ``wait`` first to stand in for a slow simulation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from repro.analysis.experiments import ExperimentResult, Profile

CELL = {"n": 64, "c": 2, "lam": 0.5, "measure": 10}


def measuring(experiment_id: str, replicates: int = 2) -> Callable[[Profile], ExperimentResult]:
    """An experiment measuring :data:`CELL` with ``replicates`` replicates."""

    def generator(profile: Profile) -> ExperimentResult:
        from repro.analysis.sweep import measure_capped

        point = measure_capped(**CELL, replicates=replicates, seed=profile.seed)
        result = ExperimentResult(
            experiment_id=experiment_id,
            title=f"fake measuring experiment {experiment_id}",
            profile=profile.name,
            columns=["replicates", "pool/n", "max_wait"],
        )
        result.rows.append(
            {"replicates": replicates, "pool/n": point.normalized_pool, "max_wait": point.max_wait}
        )
        return result

    return generator


def pure_driver(
    experiment_id: str, wait: Callable[[], None] = lambda: None
) -> Callable[[Profile], ExperimentResult]:
    """An experiment without measurement calls that runs ``wait`` first."""

    def generator(profile: Profile) -> ExperimentResult:
        wait()
        result = ExperimentResult(
            experiment_id=experiment_id,
            title=f"fake pure-driver experiment {experiment_id}",
            profile=profile.name,
            columns=["seed"],
        )
        result.rows.append({"seed": profile.seed})
        return result

    return generator


def register(monkeypatch, **generators: Callable[[Profile], ExperimentResult]) -> None:
    from repro.analysis import experiments

    for experiment_id, generator in generators.items():
        monkeypatch.setitem(experiments.EXPERIMENTS, experiment_id, generator)


def until(predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
    """Poll ``predicate`` until it holds (True) or ``timeout`` passes (False)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def journal_entries(path: Path) -> list[dict]:
    """Whole entries of a journal that may still be growing."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines(keepends=True)
            if line.endswith("\n")]


def has_task_entry(path: Path) -> bool:
    return any(entry["type"] == "task" for entry in journal_entries(path))


def journal_order(path: Path) -> tuple[int, dict[str, int]]:
    """(index of the first task entry, {experiment id: index of its entry})."""
    entries = journal_entries(path)
    first_task = next(i for i, entry in enumerate(entries) if entry["type"] == "task")
    finished = {
        entry["experiment_id"]: i
        for i, entry in enumerate(entries)
        if entry["type"] == "experiment"
    }
    return first_task, finished
