"""``ExperimentRunner`` broker mode: identical results, honest accounting.

The broker is just another execution fabric under the runner's
journaling/caching/replay machinery, so a broker sweep must produce
byte-identical CSV output, and every task must be accounted to exactly
one source (remote / remote-cache / cache / journal).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.experiments import Profile, run_experiment
from repro.distributed.broker import DONE
from repro.errors import DistributedError
from repro.parallel.runner import ExperimentRunner, run_experiments

from ..parallel.fake_experiments import (
    has_task_entry,
    journal_order,
    measuring,
    pure_driver,
    register,
    until,
)

TINY = Profile(name="tiny", n=256, measure=30, replicates=2, seed=4242)


def journal_entries(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def fleet(make_broker, stub_worker):
    """A broker with two real (execute_task) workers attached."""
    broker = make_broker()
    stub_worker(broker.address, worker_id="fleet-a")
    stub_worker(broker.address, worker_id="fleet-b")
    return broker


class TestBrokerMode:
    def test_results_identical_to_serial(self, fleet):
        serial = run_experiment("fig4_left", TINY)
        report = run_experiments(["fig4_left"], profile=TINY, broker=fleet.address)
        assert report.results[0].csv() == serial.csv()
        assert report.tasks_remote == report.tasks_total
        assert report.tasks_computed == report.tasks_total
        assert sum(report.remote_workers.values()) == report.tasks_total
        assert set(report.remote_workers) <= {"fleet-a", "fleet-b"}

    def test_summary_lines_show_the_fleet(self, fleet):
        report = run_experiments(["fig4_left"], profile=TINY, broker=fleet.address)
        text = "\n".join(report.summary_lines())
        assert "broker:" in text
        assert "re-leases 0" in text
        # The CI grep contract on the tasks line is preserved.
        assert "remote-cache 0" in text

    def test_invalid_broker_address_fails_fast(self):
        with pytest.raises(DistributedError):
            ExperimentRunner(profile=TINY, broker="nonsense:notaport")

    def test_unreachable_broker_raises_with_hint(self):
        runner = ExperimentRunner(profile=TINY, broker="127.0.0.1:1")
        with pytest.raises(DistributedError, match="repro broker"):
            runner.run(["fig4_left"])


class TestRemoteCacheAccounting:
    def test_local_hit_on_remote_upload_is_journaled_as_remote_cache(self, fleet, tmp_path):
        # Run 1: broker sweep, shared cache. The runner stores each remote
        # result with its origin (which worker computed it).
        cache_dir = tmp_path / "shared-cache"
        first = run_experiments(
            ["fig4_left"], profile=TINY, broker=fleet.address, cache_dir=cache_dir
        )
        assert first.tasks_remote == first.tasks_total

        # Drop the whole-experiment entries so the rerun has to rediscover
        # and pull every measurement from the task-level cache.
        for path in cache_dir.glob("*.json"):
            if "experiment_id" in json.loads(path.read_text()):
                path.unlink()

        # Run 2: plain local run over the same cache (a fresh journal is
        # written). Every hit was a remote worker's upload, and the journal
        # must say so.
        second = run_experiments(["fig4_left"], profile=TINY, cache_dir=cache_dir)
        assert second.tasks_from_remote_cache == second.tasks_total
        assert second.tasks_from_cache == 0
        assert second.cache_hits == second.tasks_total
        assert second.results[0].csv() == first.results[0].csv()

        task_entries = [
            entry
            for entry in journal_entries(cache_dir / "journal.jsonl")
            if entry.get("type") == "task" and entry.get("provenance")
        ]
        assert len(task_entries) == second.tasks_total
        for entry in task_entries:
            assert entry["provenance"]["source"] == "remote-cache"
            assert entry["provenance"]["worker"] in ("fleet-a", "fleet-b")

        text = "\n".join(second.summary_lines())
        assert f"remote-cache {second.tasks_total}" in text

    def test_remote_journal_provenance_records_worker(self, fleet, tmp_path):
        cache_dir = tmp_path / "cache"
        report = run_experiments(
            ["fig4_left"], profile=TINY, broker=fleet.address, cache_dir=cache_dir
        )
        task_entries = [
            entry
            for entry in journal_entries(cache_dir / "journal.jsonl")
            if entry.get("type") == "task" and entry.get("provenance")
        ]
        assert len(task_entries) == report.tasks_total
        for entry in task_entries:
            assert entry["provenance"]["source"] == "remote"
            assert entry["provenance"]["worker"] in ("fleet-a", "fleet-b")

    def test_plain_local_cache_hits_stay_plain(self, tmp_path):
        # Guard the other side of the contract: a hit on a locally
        # computed entry must NOT be promoted to remote-cache.
        cache_dir = tmp_path / "cache"
        run_experiments(["fig4_left"], profile=TINY, cache_dir=cache_dir)
        for path in cache_dir.glob("*.json"):
            if "experiment_id" in json.loads(path.read_text()):
                path.unlink()
        second = run_experiments(["fig4_left"], profile=TINY, cache_dir=cache_dir)
        assert second.tasks_from_cache == second.tasks_total > 0
        assert second.tasks_from_remote_cache == 0


class TestBrokerProgress:
    def test_live_status_reports_fleet_throughput(self, fleet):
        stream = io.StringIO()
        report = run_experiments(
            ["fig4_left"],
            profile=TINY,
            broker=fleet.address,
            live_status=True,
            progress_stream=stream,
        )
        text = stream.getvalue()
        assert report.tasks_remote == report.tasks_total
        # Worker ids (not pids) appear in the per-worker tallies, and the
        # fleet line shows live membership.
        assert "workers" in text
        assert "fleet" in text


class TestOverlap:
    """The fleet measures while the client discovers the next experiment."""

    def test_fleet_measures_during_in_process_discovery(self, fleet, tmp_path, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        saw = {}

        def fleet_finished_fast():
            # In-process discovery: returns once the fleet has computed
            # both of fast's tasks, or gives up after 5 s.
            tasks = fleet.broker.tasks
            saw["fleet"] = until(
                lambda: len(tasks) == 2 and all(t.status == DONE for t in tasks.values())
            )

        def journal_has_a_task():
            saw["journal"] = until(lambda: has_task_entry(journal_path))

        register(
            monkeypatch,
            fast=measuring("fast"),
            slow=pure_driver("slow", fleet_finished_fast),
            slower=pure_driver("slower", journal_has_a_task),
        )
        ids = ["fast", "slow", "slower"]
        report = run_experiments(ids, profile=TINY, broker=fleet.address, journal_path=journal_path)
        assert not report.failures
        assert saw == {"fleet": True, "journal": True}
        first_task, finished = journal_order(journal_path)
        assert first_task < finished["slower"]
        assert report.tasks_remote == report.tasks_total == 2
        for result in report.results:
            assert result.csv() == run_experiment(result.experiment_id, TINY).csv()

    def test_later_plan_adds_only_missing_replicates(self, fleet, monkeypatch):
        register(monkeypatch, one=measuring("one", replicates=1), three=measuring("three", 3))
        report = run_experiments(["one", "three"], profile=TINY, broker=fleet.address)
        assert report.tasks_total == report.tasks_remote == 3
        assert len(fleet.broker.tasks) == 3
        for result in report.results:
            assert result.csv() == run_experiment(result.experiment_id, TINY).csv()


class TestRestartBetweenSubmits:
    @pytest.mark.parametrize("tls", [False, True], ids=["plain", "tls"])
    def test_every_key_resolves_once(self, make_broker, stub_worker, tmp_path, monkeypatch, tls, request):
        tls_kwargs: dict = {}
        ca = None
        if tls:
            cert, key = request.getfixturevalue("certs")
            tls_kwargs, ca = {"tls_cert": cert, "tls_key": key}, cert
        # No worker on the first broker: the first submit stays queued there.
        first = make_broker(**tls_kwargs)
        port = first.broker.port
        restarted = []

        def restart_broker():
            if restarted:
                return  # replay re-runs this generator; restart only once
            first.stop()
            second = make_broker(port=port, **tls_kwargs)
            stub_worker(second.address, worker_id="after-restart", tls_ca=ca)
            restarted.append(second)

        register(
            monkeypatch,
            before=measuring("before", replicates=2),
            restart=pure_driver("restart", restart_broker),
            after=measuring("after", replicates=3),
        )
        journal_path = tmp_path / "journal.jsonl"
        report = run_experiments(
            ["before", "restart", "after"],
            profile=TINY,
            broker=first.address,
            broker_tls_ca=ca,
            journal_path=journal_path,
        )
        assert not report.failures
        assert report.broker_reconnects >= 1
        assert report.tasks_total == report.tasks_remote == 3
        journaled = [
            json.loads(line)["key"]
            for line in journal_path.read_text().splitlines()
            if json.loads(line)["type"] == "task"
        ]
        assert len(journaled) == len(set(journaled)) == 3
        (second,) = restarted
        assert set(second.broker.tasks) == set(journaled)
        for result in report.results:
            assert result.csv() == run_experiment(result.experiment_id, TINY).csv()
