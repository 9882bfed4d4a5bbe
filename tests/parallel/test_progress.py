"""Unit tests for progress reporting, timing stats, and the live dashboard."""

import io
import types

from repro.parallel import progress
from repro.parallel.progress import (
    LiveStatusReporter,
    ProgressReporter,
    TimingStats,
    stream_is_tty,
)


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class BrokenStream(io.StringIO):
    def isatty(self):
        raise ValueError("closed")


class TestStreamIsTty:
    def test_stringio_is_not_tty(self):
        assert stream_is_tty(io.StringIO()) is False

    def test_fake_tty(self):
        assert stream_is_tty(FakeTTY()) is True

    def test_missing_isatty(self):
        assert stream_is_tty(object()) is False

    def test_raising_isatty(self):
        assert stream_is_tty(BrokenStream()) is False


class TestTimingStats:
    def test_overall_aggregates(self):
        stats = TimingStats()
        stats.add("a", 1.0)
        stats.add("b", 3.0)
        assert stats.count == 2
        assert stats.total == 4.0
        assert stats.mean == 2.0
        assert stats.slowest == 3.0 and stats.slowest_label == "b"

    def test_explicit_group_argument(self):
        stats = TimingStats()
        stats.add("capped n=64 c=1 r0", 1.0, group="capped")
        stats.add("capped n=64 c=2 r0", 2.0, group="capped")
        stats.add("greedy n=64 d=1 r0", 5.0, group="greedy")
        assert sorted(stats.by_group) == ["capped", "greedy"]
        assert stats.by_group["capped"] == [1.0, 2.0]

    def test_no_group_defaults_to_full_label(self):
        # The old behaviour silently grouped by label.split()[0]; now the
        # full label is its own group unless the caller says otherwise.
        stats = TimingStats()
        stats.add("capped n=64 r0", 1.0)
        stats.add("capped n=128 r0", 2.0)
        assert sorted(stats.by_group) == ["capped n=128 r0", "capped n=64 r0"]

    def test_summary_lines_include_percentiles(self):
        stats = TimingStats()
        for i in range(1, 101):
            stats.add(f"task{i}", float(i), group="capped")
        lines = stats.summary_lines()
        assert "tasks timed: 100" in lines[0]
        (group_line,) = [line for line in lines if "capped" in line]
        assert "p50=50.00s" in group_line
        assert "p95=95.00s" in group_line
        assert "max=100.00s" in group_line

    def test_summary_single_sample_group(self):
        stats = TimingStats()
        stats.add("only", 2.0, group="g")
        (line,) = [line for line in stats.summary_lines() if "g " in line]
        assert "p50=2.00s" in line and "p95=2.00s" in line


class TestProgressReporter:
    def test_non_tty_writes_plain_newlines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, stream=stream, min_interval=0.0)
        reporter.task_done("a", 0.5)
        reporter.task_done("b", 0.5)
        text = stream.getvalue()
        assert "\r" not in text
        assert text.count("\n") == 2
        assert "[2/2] b" in text

    def test_tty_rewrites_in_place(self):
        stream = FakeTTY()
        reporter = ProgressReporter(total=2, stream=stream, min_interval=0.0)
        reporter.task_done("a", 0.5)
        reporter.task_done("b", 0.5)
        reporter.finish()
        text = stream.getvalue()
        assert text.startswith("\r")
        assert text.count("\r") == 2
        assert text.endswith("\n")  # finish() ends the final frame

    def test_tty_pads_shorter_frames(self):
        stream = FakeTTY()
        reporter = ProgressReporter(total=2, stream=stream, min_interval=0.0)
        reporter.task_done("a-very-long-label-indeed", 0.5)
        reporter.task_done("b", 0.5)
        frames = stream.getvalue().split("\r")
        assert len(frames[2].rstrip("\n")) >= len(frames[1])

    def test_extra_info_kwargs_ignored(self):
        reporter = ProgressReporter(total=1, stream=io.StringIO(), min_interval=0.0)
        reporter.task_done("a", 0.1, pid=123, outcome={"x": 1}, kind="capped", params={})
        assert reporter.done == 1

    def test_cached_tasks_do_not_skew_eta(self):
        reporter = ProgressReporter(total=3, stream=io.StringIO(), min_interval=0.0)
        reporter.task_done("a", 0.0, source="cache")
        assert reporter.computed == 0


class TestGrowingTotal:
    """Plans land while tasks finish: the total grows, finish() ends the run."""

    def drive(self, reporter):
        reporter.add_total(2)
        reporter.task_done("a", 0.5)
        reporter.task_done("b", 0.5)  # done == total, yet the run goes on
        reporter.add_total(3)
        reporter.task_done("c", 0.5)

    def test_total_grows_as_plans_land(self):
        for cls in (ProgressReporter, LiveStatusReporter):
            stream = io.StringIO()
            reporter = cls(stream=stream, min_interval=0.0)
            self.drive(reporter)
            assert reporter.total == 5
            lines = stream.getvalue().splitlines()
            assert lines[1].startswith("[2/2] b") and lines[2].startswith("[3/5] c")
            assert "eta" in lines[2]

    def test_no_final_line_before_finish(self):
        for cls in (ProgressReporter, LiveStatusReporter):
            stream = FakeTTY()
            reporter = cls(stream=stream, min_interval=0.0)
            self.drive(reporter)
            assert not stream.getvalue().endswith("\n")
            reporter.finish()
            assert stream.getvalue().endswith("\n")
            assert stream.getvalue().count("\n") == 1

    def test_finish_shows_a_throttled_last_task(self):
        for cls in (ProgressReporter, LiveStatusReporter):
            stream = io.StringIO()
            reporter = cls(stream=stream, min_interval=3600.0)
            self.drive(reporter)
            assert stream.getvalue().count("\n") == 1  # only the first task printed
            reporter.finish()
            last = stream.getvalue().splitlines()[-1]
            assert last.startswith("[3/5] c (computed, 0.50s)")
            assert "eta" not in last

    def test_first_task_shows_whatever_the_clock_reads(self, monkeypatch):
        # time.monotonic()'s zero is undefined (boot time on Linux): pin it
        # near zero, as on a freshly booted host, so the throttle cannot
        # lean on the host's uptime to let the first line through.
        monkeypatch.setattr(progress, "time", types.SimpleNamespace(monotonic=lambda: 5.0))
        for cls in (ProgressReporter, LiveStatusReporter):
            stream = io.StringIO()
            reporter = cls(total=2, stream=stream, min_interval=3600.0)
            reporter.task_done("a", 0.5)
            assert stream.getvalue().count("\n") == 1
            assert stream.getvalue().startswith("[1/2] a (computed, 0.50s)")
            reporter.task_done("b", 0.5)
            assert stream.getvalue().count("\n") == 1  # throttled

    def test_finish_does_not_repeat_a_shown_line(self):
        for cls in (ProgressReporter, LiveStatusReporter):
            stream = io.StringIO()
            reporter = cls(stream=stream, min_interval=0.0)
            self.drive(reporter)
            reporter.finish()
            assert stream.getvalue().count("\n") == 3

    def test_finish_without_tasks_prints_nothing(self):
        for cls in (ProgressReporter, LiveStatusReporter):
            stream = FakeTTY()
            cls(stream=stream, min_interval=0.0).finish()
            assert stream.getvalue() == ""


class TestLiveStatusReporter:
    def test_dashboard_extras_appear(self):
        class Report:
            tasks_retried = 2
            tasks_quarantined = 1

        stream = io.StringIO()
        reporter = LiveStatusReporter(
            total=2, jobs=2, stream=stream, min_interval=0.0, report=Report()
        )
        outcome = {"normalized_pool": 0.17}
        params = {"n": 64, "c": 2, "lam": 0.75}
        reporter.task_done("t1", 0.1, pid=11, outcome=outcome, kind="capped", params=params)
        reporter.task_done("t2", 0.1, pid=12, outcome=outcome, kind="capped", params=params)
        text = stream.getvalue()
        assert "workers 2 (1/1)" in text
        assert "task/s" in text
        assert "retries 2" in text and "quarantined 1" in text
        assert "pool err" in text

    def test_pool_error_uses_meanfield_reference(self):
        from repro.core.meanfield import equilibrium

        reporter = LiveStatusReporter(total=1, stream=io.StringIO(), min_interval=0.0)
        theory = equilibrium(2, 0.75).normalized_pool
        reporter.task_done(
            "t",
            0.1,
            pid=1,
            outcome={"normalized_pool": theory},
            kind="capped",
            params={"c": 2, "lam": 0.75},
        )
        assert reporter.theory_errors == [0.0]

    def test_non_capped_outcomes_skipped(self):
        reporter = LiveStatusReporter(total=1, stream=io.StringIO(), min_interval=0.0)
        reporter.task_done(
            "t",
            0.1,
            pid=1,
            outcome={"normalized_pool": 0.5},
            kind="greedy",
            params={"d": 2, "lam": 0.75},
        )
        assert reporter.theory_errors == []

    def test_malformed_params_skipped(self):
        reporter = LiveStatusReporter(total=2, stream=io.StringIO(), min_interval=0.0)
        reporter.task_done("t", 0.1, kind="capped", outcome={}, params={"c": 2, "lam": 0.75})
        reporter.task_done(
            "u", 0.1, kind="capped", outcome={"normalized_pool": 0.5}, params={"lam": 1.5}
        )
        assert reporter.theory_errors == []

    def test_theory_cache_memoises_per_cell(self, meanfield_solves):
        reporter = LiveStatusReporter(total=2, stream=io.StringIO(), min_interval=0.0)
        params = {"c": 2, "lam": 0.75}
        for label in ("a", "b"):
            reporter.task_done(
                label, 0.1, outcome={"normalized_pool": 0.2}, kind="capped", params=params
            )
        assert meanfield_solves == [(2, 0.75)]
        assert len(reporter.theory_errors) == 2


class TestFleetAggregation:
    def test_base_reporter_ignores_fleet_events(self):
        reporter = ProgressReporter(total=1, stream=io.StringIO())
        reporter.note_fleet_event({"kind": "re-lease", "worker": "w-1"})  # no-op, no crash

    def test_remote_tasks_count_toward_throughput_and_eta(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=4, jobs=1, stream=stream, min_interval=0.0)
        reporter.task_done("t1", 2.0, source="remote", worker="vm-1")
        assert reporter.computed == 1
        assert reporter.computed_seconds == 2.0
        assert "eta" in stream.getvalue()

    def test_live_status_aggregates_by_worker_id(self):
        stream = io.StringIO()
        reporter = LiveStatusReporter(total=3, stream=stream, min_interval=0.0)
        info = {"outcome": {}, "kind": "greedy", "params": {}}
        reporter.task_done("t1", 0.1, source="remote", worker="vm-b", **info)
        reporter.task_done("t2", 0.1, source="remote", worker="vm-a", **info)
        reporter.task_done("t3", 0.1, source="remote", worker="vm-b", **info)
        assert reporter.worker_tasks == {"vm-a": 1, "vm-b": 2}
        # Sorted by worker id: vm-a first.
        assert "workers 2 (1/2)" in stream.getvalue()

    def test_fleet_events_update_membership_and_counters(self):
        stream = io.StringIO()
        reporter = LiveStatusReporter(total=2, stream=stream, min_interval=0.0)
        reporter.note_fleet_event({"kind": "worker-join", "worker": "vm-a"})
        reporter.note_fleet_event({"kind": "worker-join", "worker": "vm-b"})
        reporter.note_fleet_event({"kind": "re-lease", "worker": "vm-a", "key": "k1"})
        reporter.note_fleet_event({"kind": "retry", "worker": "vm-b", "key": "k2"})
        reporter.note_fleet_event({"kind": "worker-leave", "worker": "vm-a"})
        assert reporter.fleet_workers == {"vm-b"}
        assert reporter.fleet_releases == 1
        assert reporter.fleet_retries == 1
        reporter.task_done(
            "t1", 0.1, source="remote", worker="vm-b", outcome={}, kind="x", params={}
        )
        assert "fleet 1 live" in stream.getvalue()
        assert "re-leases 1" in stream.getvalue()

    def test_completion_implies_membership_without_join_event(self):
        # Workers that joined before this client connected never produce a
        # join event; their completions must still light up the fleet line.
        stream = io.StringIO()
        reporter = LiveStatusReporter(total=1, stream=stream, min_interval=0.0)
        reporter.task_done(
            "t1", 0.1, source="remote", worker="early-bird", outcome={}, kind="x", params={}
        )
        assert reporter.fleet_workers == {"early-bird"}
        assert "fleet 1 live" in stream.getvalue()

    def test_mixed_sources_only_count_computed_and_remote(self):
        reporter = LiveStatusReporter(total=4, stream=io.StringIO(), min_interval=0.0)
        info = {"outcome": {}, "kind": "x", "params": {}}
        reporter.task_done("t1", 0.5, source="computed", pid=7, **info)
        reporter.task_done("t2", 0.5, source="remote", worker="vm-a", **info)
        reporter.task_done("t3", 0.0, source="cache")
        reporter.task_done("t4", 0.0, source="remote-cache")
        assert reporter.computed == 2
        assert reporter.worker_tasks == {7: 1, "vm-a": 1}
