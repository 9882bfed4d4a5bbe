"""Fault tolerance of the hardened runner: retries, timeouts, quarantine,
broken-pool recovery, and graceful degradation to serial execution.

Two layers of tests:

* **fabric tests** drive ``ExperimentRunner._run_tasks`` directly with a
  queue of tiny module-level functions (pickle-friendly) that fail/hang/crash on demand,
  coordinated through marker files so "fail exactly once" works across
  worker processes;
* **end-to-end tests** run a real experiment under the ``REPRO_CHAOS``
  hooks and assert the final CSV is still bit-identical to the serial path
  — fault tolerance must not cost determinism.
"""

from __future__ import annotations

import os
import time
from collections import deque
from pathlib import Path

import pytest

from repro.analysis.experiments import Profile, run_experiment
from repro.errors import ParallelExecutionError
from repro.faults.chaos import CHAOS_ENV, ChaosSpec
from repro.parallel import ExperimentRunner, TaskFailure
from repro.parallel.runner import RunnerReport

TINY = Profile(name="tiny", n=256, measure=30, replicates=2, seed=4242)


def _claim(payload: dict) -> bool:
    """Atomically claim this payload's marker; True on first call only."""
    path = Path(payload["dir"]) / f"{payload['i']}.marker"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _fail_once(payload):
    if _claim(payload):
        raise RuntimeError("first attempt fails")
    return {"ok": payload["i"]}


def _always_fail(payload):
    raise RuntimeError("broken forever")


def _hang_once(payload):
    if _claim(payload):
        time.sleep(60)
    return {"ok": payload["i"]}


def _always_hang(payload):
    time.sleep(60)


def _crash_once(payload):
    if _claim(payload):
        os._exit(13)
    return {"ok": payload["i"]}


def _crash_marked_once(payload):
    # Only payloads flagged "crash" ever die, and only on their first
    # execution — safe to re-run in the main process after a fallback.
    if payload.get("crash") and _claim(payload):
        os._exit(13)
    return {"ok": payload["i"]}


def _payloads(tmp_path, count):
    return [{"i": i, "dir": str(tmp_path)} for i in range(count)]


def _run(runner, fn, payloads):
    report = RunnerReport()
    outcomes = dict()
    for payload, outcome in runner._run_tasks(deque((fn, p) for p in payloads), report):
        assert payload["i"] not in outcomes, "payload yielded twice"
        outcomes[payload["i"]] = outcome
    # Accounting invariant: exactly one outcome per payload, success or not.
    assert set(outcomes) == {p["i"] for p in payloads}
    return report, outcomes


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"max_retries": -1},
            {"retry_backoff": -0.1},
            {"max_pool_rebuilds": -1},
        ],
    )
    def test_rejects_bad_fault_tolerance_config(self, kwargs):
        with pytest.raises(ParallelExecutionError):
            ExperimentRunner(profile=TINY, **kwargs)


class TestSerialFabric:
    def test_transient_failures_are_retried(self, tmp_path):
        runner = ExperimentRunner(profile=TINY, jobs=1, retry_backoff=0.0)
        report, outcomes = _run(runner, _fail_once, _payloads(tmp_path, 4))
        assert all(outcome == {"ok": i} for i, outcome in outcomes.items())
        assert report.tasks_retried == 4

    def test_exhausted_budget_becomes_task_failure(self, tmp_path):
        runner = ExperimentRunner(profile=TINY, jobs=1, max_retries=1, retry_backoff=0.0)
        report, outcomes = _run(runner, _always_fail, _payloads(tmp_path, 2))
        for outcome in outcomes.values():
            assert isinstance(outcome, TaskFailure)
            assert outcome.attempts == 2  # max_retries=1 → 2 executions
            assert "broken forever" in outcome.error
        assert report.tasks_retried == 2  # one retry each before giving up

    def test_zero_retries_fails_immediately(self, tmp_path):
        runner = ExperimentRunner(profile=TINY, jobs=1, max_retries=0, retry_backoff=0.0)
        report, outcomes = _run(runner, _always_fail, _payloads(tmp_path, 1))
        assert outcomes[0].attempts == 1
        assert report.tasks_retried == 0


class TestPooledFabric:
    def test_worker_exceptions_are_retried(self, tmp_path):
        runner = ExperimentRunner(profile=TINY, jobs=2, retry_backoff=0.0)
        report, outcomes = _run(runner, _fail_once, _payloads(tmp_path, 4))
        assert all(outcome == {"ok": i} for i, outcome in outcomes.items())
        assert report.tasks_retried == 4
        assert report.pool_rebuilds == 0  # plain exceptions don't break the pool

    def test_hung_worker_is_timed_out_and_task_retried(self, tmp_path):
        runner = ExperimentRunner(profile=TINY, jobs=2, task_timeout=0.25, retry_backoff=0.0)
        report, outcomes = _run(runner, _hang_once, _payloads(tmp_path, 3))
        assert all(outcome == {"ok": i} for i, outcome in outcomes.items())
        assert report.pool_rebuilds >= 1  # a hung worker poisons the pool
        assert report.tasks_retried >= 1

    def test_hopeless_hang_is_reported_as_timeout(self, tmp_path):
        runner = ExperimentRunner(
            profile=TINY, jobs=2, task_timeout=0.25, max_retries=0, retry_backoff=0.0
        )
        report, outcomes = _run(runner, _always_hang, _payloads(tmp_path, 2))
        for failure in outcomes.values():
            assert isinstance(failure, TaskFailure)
            assert failure.timed_out
            assert "timed out" in failure.error
        assert report.pool_rebuilds >= 1

    def test_killed_worker_breaks_pool_then_recovers(self, tmp_path):
        # max_retries is generous because a pool break charges every
        # in-flight task one attempt: a crasher can also be charged as an
        # innocent bystander of another crasher's break.
        runner = ExperimentRunner(profile=TINY, jobs=2, max_retries=5, retry_backoff=0.0)
        report, outcomes = _run(runner, _crash_once, _payloads(tmp_path, 4))
        assert all(outcome == {"ok": i} for i, outcome in outcomes.items())
        assert report.pool_rebuilds >= 1

    def test_rebuild_budget_exhaustion_falls_back_to_serial(self, tmp_path):
        runner = ExperimentRunner(profile=TINY, jobs=2, max_pool_rebuilds=0, retry_backoff=0.0)
        payloads = _payloads(tmp_path, 4)
        payloads[0]["crash"] = True
        report, outcomes = _run(runner, _crash_marked_once, payloads)
        # The one crash marker was claimed by the dead worker, so the
        # serial fallback completes every task in the main process.
        assert all(outcome == {"ok": i} for i, outcome in outcomes.items())
        assert report.serial_fallback
        assert report.pool_rebuilds == 1


class TestEndToEndChaos:
    """Real experiments under REPRO_CHAOS: faults must not cost determinism."""

    def test_injected_failure_is_retried_to_the_same_answer(self, tmp_path, monkeypatch):
        serial = run_experiment("fig4_left", TINY)
        spec = ChaosSpec(action="fail", times=1, marker_dir=str(tmp_path / "markers"))
        monkeypatch.setenv(CHAOS_ENV, spec.to_env())
        runner = ExperimentRunner(profile=TINY, jobs=2, retry_backoff=0.0)
        report = runner.run(["fig4_left"])
        assert report.tasks_retried >= 1
        assert not report.failures
        assert report.results[0].csv() == serial.csv()

    def test_sigkilled_worker_still_bit_identical(self, tmp_path, monkeypatch):
        serial = run_experiment("fig4_left", TINY)
        spec = ChaosSpec(action="kill", times=1, marker_dir=str(tmp_path / "markers"))
        monkeypatch.setenv(CHAOS_ENV, spec.to_env())
        runner = ExperimentRunner(profile=TINY, jobs=2, retry_backoff=0.0)
        report = runner.run(["fig4_left"])
        assert report.pool_rebuilds >= 1
        assert not report.failures
        assert report.results[0].csv() == serial.csv()
        assert report.tasks_accounted >= report.tasks_total

    def test_poisoned_task_is_quarantined_not_fatal(self, tmp_path, monkeypatch):
        # Every replicate-1 task fails deterministically (no marker dir →
        # every attempt injects): each must be quarantined, the experiment
        # must fail cleanly, and nothing may be silently lost.
        spec = ChaosSpec(action="fail", match="r1")
        monkeypatch.setenv(CHAOS_ENV, spec.to_env())
        journal_path = tmp_path / "journal.jsonl"
        runner = ExperimentRunner(
            profile=TINY,
            jobs=1,
            journal_path=journal_path,
            max_retries=1,
            retry_backoff=0.0,
        )
        report = runner.run(["fig4_left"])
        assert report.tasks_quarantined == 10  # 10 cells × replicate 1
        assert report.tasks_computed == 10  # replicate 0 still computed
        assert report.tasks_accounted == report.tasks_total == 20
        assert report.experiments_failed == 1
        assert "fig4_left" in report.failures
        assert report.results == []
        assert all(entry["attempts"] == 2 for entry in report.quarantined)
        summary = "\n".join(report.summary_lines())
        assert "quarantined" in summary and "failed: fig4_left" in summary

        # Quarantine is sticky: a resumed run re-reports the quarantined
        # tasks from the journal instead of re-running them — even though
        # chaos is now disarmed and they would succeed.
        monkeypatch.delenv(CHAOS_ENV)
        resumed = ExperimentRunner(
            profile=TINY,
            jobs=1,
            journal_path=journal_path,
            resume=True,
            retry_backoff=0.0,
        ).run(["fig4_left"])
        assert resumed.tasks_computed == 0
        assert resumed.tasks_quarantined == 10
        assert resumed.tasks_from_journal == 10
        assert "fig4_left" in resumed.failures
        assert all("quarantined in journal" in entry["error"] for entry in resumed.quarantined)
