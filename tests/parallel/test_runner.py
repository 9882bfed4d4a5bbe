"""End-to-end tests for the parallel experiment runner.

Everything runs on a deliberately tiny profile (n = 256, 30 measured
rounds) so the whole module stays in the fast tier.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import Profile, run_experiment
from repro.errors import ParallelExecutionError
from repro.parallel import ExperimentRunner, Journal
from repro.parallel.runner import run_experiments

from .fake_experiments import (
    has_task_entry,
    journal_entries,
    journal_order,
    measuring,
    pure_driver,
    register,
    until,
)

TINY = Profile(name="tiny", n=256, measure=30, replicates=2, seed=4242)


class TestBitIdentical:
    def test_process_pool_matches_serial(self):
        serial = run_experiment("fig4_left", TINY)
        report = run_experiments(["fig4_left"], profile=TINY, jobs=2)
        parallel = report.results[0]
        assert parallel.rows == serial.rows
        assert parallel.notes == serial.notes
        assert parallel.verdicts == serial.verdicts
        assert parallel.csv() == serial.csv()
        assert report.tasks_total == report.tasks_computed == 20

    def test_in_process_runner_matches_serial(self):
        serial = run_experiment("sweet_spot", TINY)
        report = run_experiments(["sweet_spot"], profile=TINY, jobs=1)
        assert report.results[0].csv() == serial.csv()

    def test_pure_driver_experiment_matches_serial(self):
        # drain_stages never calls the sweep helpers; its discovery run is
        # the real run and must still match the serial path exactly.
        serial = run_experiment("drain_stages", TINY)
        report = run_experiments(["drain_stages"], profile=TINY, jobs=2)
        assert report.results[0].csv() == serial.csv()
        assert report.tasks_total == 0

    def test_mixed_kinds_match_serial(self):
        # baseline_comparison interleaves capped and greedy measurements.
        serial = run_experiment("baseline_comparison", TINY)
        report = run_experiments(["baseline_comparison"], profile=TINY, jobs=2)
        assert report.results[0].csv() == serial.csv()


class TestCrashResume:
    def test_journal_replay_after_simulated_crash(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        serial = run_experiment("fig4_left", TINY)

        import repro.parallel.runner as runner_module

        real_execute = runner_module.execute_task
        calls = {"n": 0}

        def dying_execute(payload):
            if calls["n"] >= 3:
                raise KeyboardInterrupt  # simulate Ctrl-C / a killed worker
            calls["n"] += 1
            return real_execute(payload)

        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "execute_task", dying_execute)
            with pytest.raises(KeyboardInterrupt):
                run_experiments(["fig4_left"], profile=TINY, jobs=1, journal_path=journal_path)

        crashed = Journal.load(journal_path)
        assert len(crashed.tasks) == 3
        assert not crashed.experiments

        report = run_experiments(
            ["fig4_left"], profile=TINY, jobs=1, journal_path=journal_path, resume=True
        )
        assert report.tasks_from_journal == 3
        assert report.tasks_computed == report.tasks_total - 3
        assert report.results[0].csv() == serial.csv()

        # No duplicate and no missing cells in the journal afterwards.
        lines = [json.loads(line) for line in journal_path.read_text().splitlines() if line.strip()]
        task_keys = [entry["key"] for entry in lines if entry["type"] == "task"]
        assert len(task_keys) == len(set(task_keys)) == report.tasks_total

    def test_resume_skips_whole_finished_experiments(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        first = run_experiments(["fig4_left"], profile=TINY, jobs=1, journal_path=journal_path)
        resumed = run_experiments(
            ["fig4_left"], profile=TINY, jobs=1, journal_path=journal_path, resume=True
        )
        assert resumed.experiments_from_journal == 1
        assert resumed.tasks_computed == 0
        assert resumed.results[0].csv() == first.results[0].csv()

    def test_resume_requires_a_journal(self):
        with pytest.raises(ParallelExecutionError):
            ExperimentRunner(profile=TINY, resume=True)


class TestCacheAccounting:
    def test_hit_miss_accounting(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_experiments(["fig4_left"], profile=TINY, jobs=1, cache_dir=cache_dir)
        assert first.cache_hits == 0
        assert first.cache_misses == first.tasks_total == 20

        # Drop the whole-experiment entries so the rerun has to rediscover
        # and pull every measurement from the task-level cache.
        for path in cache_dir.glob("*.json"):
            if "experiment_id" in json.loads(path.read_text()):
                path.unlink()

        second = run_experiments(["fig4_left"], profile=TINY, jobs=1, cache_dir=cache_dir)
        assert second.tasks_from_cache == second.tasks_total == 20
        assert second.tasks_computed == 0
        assert second.cache_misses == 0
        assert second.results[0].csv() == first.results[0].csv()

    def test_whole_experiment_cache_hit(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_experiments(["fig4_left"], profile=TINY, jobs=1, cache_dir=cache_dir)
        second = run_experiments(["fig4_left"], profile=TINY, jobs=1, cache_dir=cache_dir)
        assert second.experiments_from_cache == 1
        assert second.tasks_total == 0
        assert second.results[0].csv() == first.results[0].csv()

    def test_cache_mirrors_hits_into_journal_for_later_resume(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_experiments(["fig4_left"], profile=TINY, jobs=1, cache_dir=cache_dir)
        for path in cache_dir.glob("*.json"):
            if "experiment_id" in json.loads(path.read_text()):
                path.unlink()
        run_experiments(["fig4_left"], profile=TINY, jobs=1, cache_dir=cache_dir)
        state = Journal.load(cache_dir / "journal.jsonl")
        assert len(state.tasks) == 20


class TestRunnerValidation:
    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(Exception) as excinfo:
            run_experiments(["no_such_experiment"], profile=TINY)
        assert "no_such_experiment" in str(excinfo.value)

    def test_unknown_profile_fails(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            ExperimentRunner(profile="warp-speed")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ParallelExecutionError):
            ExperimentRunner(profile=TINY, jobs=0)


class TestOverlap:
    """Measurement starts as soon as a plan lands, not after every discovery."""

    def test_pool_measures_while_a_slow_discovery_runs(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        seen = tmp_path / "slow-saw-a-task"

        def wait_for_a_journaled_task():
            # Runs on a pool worker: it returns once the parent has
            # journaled a measurement task, or gives up after 5 s.
            if journal_path.exists() and until(lambda: has_task_entry(journal_path)):
                seen.touch()

        register(
            monkeypatch, slow=pure_driver("slow", wait_for_a_journaled_task), fast=measuring("fast")
        )
        report = run_experiments(["slow", "fast"], profile=TINY, jobs=2, journal_path=journal_path)
        assert not report.failures
        assert seen.exists()
        first_task, finished = journal_order(journal_path)
        assert first_task < finished["slow"]
        for result in report.results:
            assert result.csv() == run_experiment(result.experiment_id, TINY).csv()

    def test_a_single_task_still_runs_on_the_pool(self, tmp_path, monkeypatch):
        import os

        from repro.telemetry import runtime
        from repro.telemetry.tracing import Tracer, assemble_traces, read_spans

        register(monkeypatch, single=measuring("single", replicates=1))
        trace_path = tmp_path / "trace.jsonl"
        with runtime.session(tracer=Tracer(trace_path)):
            report = run_experiments(["single"], profile=TINY, jobs=2)
        assert report.tasks_computed == 1
        (trace,) = assemble_traces(read_spans(trace_path))
        (running,) = trace.named("running")
        assert running["attrs"]["pid"] != os.getpid()


class TestPlanMerge:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_later_plan_adds_only_missing_replicates(self, tmp_path, monkeypatch, jobs):
        register(monkeypatch, one=measuring("one", replicates=1), three=measuring("three", 3))
        journal_path = tmp_path / "journal.jsonl"
        report = run_experiments(
            ["one", "three"], profile=TINY, jobs=jobs, journal_path=journal_path
        )
        assert report.tasks_total == report.tasks_computed == 3
        tasks = [e for e in journal_entries(journal_path) if e["type"] == "task"]
        assert sorted(e["spec"]["replicate"] for e in tasks) == [0, 1, 2]
        for result in report.results:
            assert result.csv() == run_experiment(result.experiment_id, TINY).csv()
