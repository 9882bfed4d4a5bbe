"""Unit tests for the experiment registry.

Full experiment runs live in the benchmark suite; here we verify the
registry mechanics and run the cheapest experiments at a tiny ad-hoc
profile to validate row structure and claim checks.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.experiments import (
    EXPERIMENTS,
    PROFILES,
    ExperimentResult,
    Profile,
    get_experiment,
    run_experiment,
)
from repro.errors import ExperimentError

TINY = Profile(name="tiny", n=256, measure=60, replicates=1)


class TestRegistry:
    def test_all_design_doc_experiments_present(self):
        expected = {
            "fig4_left",
            "fig4_right",
            "fig5_left",
            "fig5_right",
            "sweet_spot",
            "theory_bounds",
            "dominance",
            "baseline_comparison",
            "n_invariance",
            "meanfield_validation",
            "ablation_dchoice",
            "ablation_aging",
            "heterogeneous_capacity",
            "drain_stages",
            "robustness_workloads",
            "fault_recovery",
            "churn_recovery",
        }
        assert expected == set(EXPERIMENTS)

    def test_profiles(self):
        assert PROFILES["paper"].n == 2**15
        assert PROFILES["paper"].measure == 1000
        assert PROFILES["quick"].n < PROFILES["default"].n

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("nope")

    def test_unknown_profile(self):
        with pytest.raises(ExperimentError):
            run_experiment("dominance", "nope")

    def test_every_generator_has_docstring(self):
        for fn in EXPERIMENTS.values():
            assert fn.__doc__


class TestResultRendering:
    def test_table_and_csv(self):
        result = ExperimentResult(
            experiment_id="x",
            title="T",
            profile="tiny",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}],
            notes=["a note"],
            verdicts={"check": True},
        )
        table = result.table()
        assert "T" in table and "note: a note" in table and "PASS" in table
        assert result.csv().splitlines()[0] == "a,b"

    def test_all_checks_pass_logic(self):
        result = ExperimentResult("x", "T", "p", ["a"], verdicts={"one": True, "two": False})
        assert not result.all_checks_pass
        assert "FAIL" in result.table()


class TestTinyRuns:
    def test_dominance_tiny(self):
        result = run_experiment("dominance", TINY)
        assert result.all_checks_pass
        assert all(row["violations"] == 0 for row in result.rows)

    def test_lambda_clamping_noted(self):
        result = run_experiment("fig4_left", TINY)
        # exponent 10 > log2(256) = 8 must be clamped and noted.
        assert any("substituted" in note for note in result.notes)
        assert result.rows  # all points produced

    def test_sweet_spot_tiny(self):
        result = run_experiment("sweet_spot", TINY)
        assert len(result.rows) == 8
        assert "avg-wait minimum" in " ".join(result.notes)

    def test_meanfield_validation_tiny(self):
        result = run_experiment("meanfield_validation", TINY)
        assert {row["c"] for row in result.rows} == {1, 2, 4}


class TestInterpreterIndependence:
    def test_ablation_aging_csv_ignores_the_string_hash_seed(self):
        # Built-in str hashing is salted per interpreter start; a seed
        # derived from it would make the CSV differ from run to run.
        script = (
            "from repro.analysis.experiments import Profile, run_experiment\n"
            "profile = Profile(name='tiny', n=256, measure=60, replicates=1)\n"
            "print(run_experiment('ablation_aging', profile).csv())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        csvs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            csvs.append(proc.stdout)
        assert csvs[0] == csvs[1]
